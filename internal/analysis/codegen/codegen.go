// Package codegen implements the hot-path codegen regression gate: the
// compiler-output half of the //npdp:hotpath invariant. The syntactic
// analyzer (internal/analysis.HotPath) can ban `make` and interface
// dispatch, but only the compiler knows whether a value escapes to the
// heap or a bounds check survived in the panel kernels' inner loops —
// the Go analogue of keeping the paper's Table I SPE kernel at 80
// instructions. The gate builds the kernel package with
//
//	go build -a -gcflags='-m -d=ssa/check_bce/debug=1'
//
// (-a defeats the build cache, which does not replay compiler
// diagnostics), buckets every escape/bounds-check diagnostic that lands
// inside an annotated function into normalized per-function category
// counts, and diffs them against a checked-in golden baseline. Any new
// category or increased count fails the gate; decreases are advisory
// (refresh the baseline with -update).
package codegen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// gcflags are the diagnostic flags the gate compiles with: escape
// analysis (-m) plus bounds-check elimination reporting.
const gcflags = "-m -d=ssa/check_bce/debug=1"

// hotpathMarker matches internal/analysis.hotpathMarker.
const hotpathMarker = "npdp:hotpath"

// docHasHotpath reports whether a doc comment group contains the
// //npdp:hotpath directive as a whole comment line (prose that merely
// mentions the marker does not count), matching the analyzer's rule.
func docHasHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//"+hotpathMarker)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

// Record is one normalized gate entry: how many diagnostics of one
// category the compiler emitted inside one annotated function. Line
// numbers are deliberately normalized away so unrelated edits above a
// kernel do not churn the baseline.
type Record struct {
	Func     string // annotated function name
	Category string // heap-escape | bounds-check | slice-bounds-check
	Count    int
}

// Key identifies a record in baseline comparisons.
func (r Record) Key() string { return r.Func + "\t" + r.Category }

// FuncRange is the source extent of one annotated function.
type FuncRange struct {
	File       string // base name, e.g. "panel.go"
	Name       string
	Start, End int // 1-based line range, inclusive
}

// HotpathRanges parses the package sources and returns the extents of
// every //npdp:hotpath-annotated function.
func HotpathRanges(dir string, goFiles []string) ([]FuncRange, error) {
	fset := token.NewFileSet()
	var out []FuncRange
	for _, name := range goFiles {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !docHasHotpath(fd.Doc) {
				continue
			}
			out = append(out, FuncRange{
				File:  name,
				Name:  fd.Name.Name,
				Start: fset.Position(fd.Pos()).Line,
				End:   fset.Position(fd.End()).Line,
			})
		}
	}
	return out, nil
}

// diagRe matches one compiler diagnostic: path/file.go:line:col: message.
var diagRe = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*)$`)

// categorize maps a compiler diagnostic message to a gate category;
// empty for messages the gate ignores (inlining decisions, parameters
// that do not escape, ...).
func categorize(msg string) string {
	switch {
	case strings.Contains(msg, "Found IsSliceInBounds"):
		return "slice-bounds-check"
	case strings.Contains(msg, "Found IsInBounds"):
		return "bounds-check"
	case strings.Contains(msg, "does not escape"):
		return ""
	case strings.Contains(msg, "escapes to heap"), strings.Contains(msg, "moved to heap"):
		return "heap-escape"
	}
	return ""
}

// Extract buckets compiler diagnostics into per-function category
// counts, keeping only those inside an annotated range.
func Extract(buildOutput string, ranges []FuncRange) []Record {
	counts := make(map[string]*Record)
	sc := bufio.NewScanner(strings.NewReader(buildOutput))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := diagRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		cat := categorize(m[3])
		if cat == "" {
			continue
		}
		file := filepath.Base(m[1])
		line, _ := strconv.Atoi(m[2])
		for i := range ranges {
			r := &ranges[i]
			if r.File != file || line < r.Start || line > r.End {
				continue
			}
			key := r.Name + "\t" + cat
			if rec, ok := counts[key]; ok {
				rec.Count++
			} else {
				counts[key] = &Record{Func: r.Name, Category: cat, Count: 1}
			}
			break
		}
	}
	out := make([]Record, 0, len(counts))
	for _, r := range counts {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// BuildDiagnostics compiles pkg for goarch ("" = host) with the gate's
// gcflags and returns the compiler's diagnostic stream. -a forces real
// recompilation: the build cache does not replay compiler stderr, so a
// cached hit would otherwise read as "zero diagnostics" and defeat the
// gate. Cross-GOARCH runs only invoke the compiler and assembler, so
// the gate can check the arm64 kernels from an amd64 box and vice
// versa.
func BuildDiagnostics(pkg, goarch string) (string, error) {
	cmd := exec.Command("go", "build", "-a", "-gcflags="+gcflags, pkg)
	cmd.Env = archEnv(goarch)
	var out strings.Builder
	cmd.Stderr = &out
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build %s (GOARCH=%s): %v\n%s", pkg, goarch, err, out.String())
	}
	return out.String(), nil
}

// archEnv is the process environment with GOARCH pinned (host arch for
// ""). CGO is forced off so cross builds never depend on a foreign C
// toolchain.
func archEnv(goarch string) []string {
	env := os.Environ()
	if goarch != "" {
		env = append(env, "GOARCH="+goarch, "CGO_ENABLED=0")
	}
	return env
}

// Format renders one GOARCH's records as flat baseline rows (no section
// header) — the single-section helper FormatBaseline builds on.
func Format(records []Record) string {
	var b strings.Builder
	for _, r := range records {
		fmt.Fprintf(&b, "%s\t%s\t%d\n", r.Func, r.Category, r.Count)
	}
	return b.String()
}

// FormatBaseline renders the full per-GOARCH baseline file body. The
// kernel package compiles differently per architecture (band_amd64.go
// vs band_arm64.go and the stub files, and the arm64 backend's own BCE
// decisions), so each checked GOARCH gets its own section.
func FormatBaseline(sections map[string][]Record) string {
	var b strings.Builder
	b.WriteString("# npdplint codegen gate baseline: per-hotpath-function compiler\n")
	b.WriteString("# diagnostic counts (escape analysis + bounds checks), normalized,\n")
	b.WriteString("# one [GOARCH] section per checked architecture. Regenerate with:\n")
	b.WriteString("#   go run ./cmd/npdplint -codegen -update [-goarch arch]\n")
	arches := make([]string, 0, len(sections))
	for a := range sections {
		arches = append(arches, a)
	}
	sort.Strings(arches)
	for _, a := range arches {
		recs := append([]Record(nil), sections[a]...)
		sort.Slice(recs, func(i, j int) bool { return recs[i].Key() < recs[j].Key() })
		fmt.Fprintf(&b, "[%s]\n", a)
		b.WriteString(Format(recs))
	}
	return b.String()
}

// ParseBaseline reads flat baseline rows back into records. Section
// headers are rejected here; ParseBaselineFile handles full files.
func ParseBaseline(s string) ([]Record, error) {
	var out []Record
	for i, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("baseline line %d: want 'func\\tcategory\\tcount', got %q", i+1, line)
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("baseline line %d: bad count %q", i+1, parts[2])
		}
		out = append(out, Record{Func: parts[0], Category: parts[1], Count: n})
	}
	return out, nil
}

// ParseBaselineFile reads a sectioned baseline body into per-GOARCH
// record lists. Rows before the first [GOARCH] header — the legacy flat
// format — land under the "" key.
func ParseBaselineFile(s string) (map[string][]Record, error) {
	sections := make(map[string][]Record)
	cur := ""
	for i, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
			cur = strings.TrimSuffix(strings.TrimPrefix(line, "["), "]")
			if cur == "" {
				return nil, fmt.Errorf("baseline line %d: empty [GOARCH] section", i+1)
			}
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("baseline line %d: want 'func\\tcategory\\tcount', got %q", i+1, line)
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("baseline line %d: bad count %q", i+1, parts[2])
		}
		sections[cur] = append(sections[cur], Record{Func: parts[0], Category: parts[1], Count: n})
	}
	if len(sections[""]) == 0 {
		delete(sections, "")
	}
	return sections, nil
}

// Compare diffs current records against the baseline. Regressions (new
// key or increased count) fail the gate; improvements (decreased or
// vanished counts) are advisory.
func Compare(current, baseline []Record) (regressions, improvements []string) {
	base := make(map[string]int, len(baseline))
	for _, r := range baseline {
		base[r.Key()] = r.Count
	}
	cur := make(map[string]int, len(current))
	for _, r := range current {
		cur[r.Key()] = r.Count
		want, ok := base[r.Key()]
		switch {
		case !ok:
			regressions = append(regressions, fmt.Sprintf("%s: NEW %s ×%d", r.Func, r.Category, r.Count))
		case r.Count > want:
			regressions = append(regressions, fmt.Sprintf("%s: %s %d → %d", r.Func, r.Category, want, r.Count))
		case r.Count < want:
			improvements = append(improvements, fmt.Sprintf("%s: %s %d → %d", r.Func, r.Category, want, r.Count))
		}
	}
	for _, r := range baseline {
		if _, ok := cur[r.Key()]; !ok {
			improvements = append(improvements, fmt.Sprintf("%s: %s %d → 0", r.Func, r.Category, r.Count))
		}
	}
	sort.Strings(regressions)
	sort.Strings(improvements)
	return regressions, improvements
}

// resolvePackage asks the go tool for pkg's directory and file list
// under goarch's build constraints (band_amd64.go, band_arm64.go and
// the stub files select differently per arch).
func resolvePackage(pkg, goarch string) (dir string, goFiles []string, err error) {
	cmd := exec.Command("go", "list", "-json=Dir,GoFiles", pkg)
	cmd.Env = archEnv(goarch)
	out, err := cmd.Output()
	if err != nil {
		return "", nil, fmt.Errorf("go list %s: %v", pkg, err)
	}
	var p struct {
		Dir     string
		GoFiles []string
	}
	if err := json.Unmarshal(out, &p); err != nil {
		return "", nil, fmt.Errorf("go list %s: %v", pkg, err)
	}
	if p.Dir == "" || len(p.GoFiles) == 0 {
		return "", nil, fmt.Errorf("go list %s: no Go files", pkg)
	}
	return p.Dir, p.GoFiles, nil
}

// Gate runs the full regression gate for pkg on goarch ("" = host)
// against baselinePath, writing a human-readable report to w. With
// update true it rewrites goarch's section of the baseline (other
// sections are preserved) instead of comparing. A non-nil error means
// the gate failed (regression found, no annotations, zero extracted
// diagnostics, or tooling failure).
func Gate(pkg, baselinePath, goarch string, update bool, w io.Writer) error {
	if goarch == "" {
		goarch = runtime.GOARCH
	}
	dir, goFiles, err := resolvePackage(pkg, goarch)
	if err != nil {
		return err
	}
	ranges, err := HotpathRanges(dir, goFiles)
	if err != nil {
		return err
	}
	if len(ranges) == 0 {
		return fmt.Errorf("no //npdp:hotpath functions in %s (GOARCH=%s): the gate would vacuously pass", pkg, goarch)
	}
	buildOut, err := BuildDiagnostics(pkg, goarch)
	if err != nil {
		return err
	}
	current := Extract(buildOut, ranges)
	// The second vacuous-pass hazard: assembly stubs replacing the Go
	// kernel bodies. The hotpath annotations survive on the dispatchers,
	// but if no compiled Go body emits a single diagnostic, "clean" means
	// "nothing was checked" — require the codegen probes to keep the
	// fallback bodies materialized in-package.
	if len(current) == 0 {
		return fmt.Errorf("0 diagnostics extracted from %d hotpath functions in %s (GOARCH=%s): "+
			"the gate would vacuously pass — keep the pure-Go kernel bodies reachable from a codegen probe",
			len(ranges), pkg, goarch)
	}
	sections := make(map[string][]Record)
	if baseBody, rerr := os.ReadFile(baselinePath); rerr == nil {
		if sections, err = ParseBaselineFile(string(baseBody)); err != nil {
			return err
		}
	} else if !update {
		return fmt.Errorf("reading baseline (run with -update to create it): %w", rerr)
	}
	if update {
		sections[goarch] = current
		delete(sections, "") // migrate away the legacy flat section
		if err := os.WriteFile(baselinePath, []byte(FormatBaseline(sections)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "codegen gate: [%s] baseline updated (%d records across %d hotpath functions)\n", goarch, len(current), len(ranges))
		return nil
	}
	baseline, ok := sections[goarch]
	if !ok {
		// Legacy flat baselines apply to whatever arch they were made on;
		// an absent section otherwise compares against empty, so every
		// current record reads as a regression — fail-safe, never vacuous.
		baseline = sections[""]
	}
	regressions, improvements := Compare(current, baseline)
	for _, s := range improvements {
		fmt.Fprintf(w, "codegen gate: [%s] improved: %s (refresh baseline with -update)\n", goarch, s)
	}
	if len(regressions) > 0 {
		for _, s := range regressions {
			fmt.Fprintf(w, "codegen gate: [%s] REGRESSION: %s\n", goarch, s)
		}
		return fmt.Errorf("%d hot-path codegen regression(s) on %s: a new allocation or bounds check landed in an //npdp:hotpath kernel", len(regressions), goarch)
	}
	fmt.Fprintf(w, "codegen gate: [%s] clean (%d records across %d hotpath functions match baseline)\n", goarch, len(current), len(ranges))
	return nil
}
