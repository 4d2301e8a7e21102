package cellnpdp_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildCLI compiles a command once per test binary run and returns the
// executable path.
var (
	cliOnce  sync.Once
	cliDir   string
	cliErr   error
	cliNames = []string{"cellnpdp", "benchtables", "rnafold", "speviz"}
)

func cliPath(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI builds in -short mode")
	}
	cliOnce.Do(func() {
		cliDir, cliErr = os.MkdirTemp("", "cellnpdp-cli")
		if cliErr != nil {
			return
		}
		for _, n := range cliNames {
			cmd := exec.Command("go", "build", "-o", filepath.Join(cliDir, n), "./cmd/"+n)
			if out, err := cmd.CombinedOutput(); err != nil {
				cliErr = &buildError{name: n, out: string(out), err: err}
				return
			}
		}
	})
	if cliErr != nil {
		t.Fatal(cliErr)
	}
	return filepath.Join(cliDir, name)
}

type buildError struct {
	name string
	out  string
	err  error
}

func (e *buildError) Error() string {
	return "building " + e.name + ": " + e.err.Error() + "\n" + e.out
}

func runCLI(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(cliPath(t, name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLISolverEnginesAgreeOnChecksum(t *testing.T) {
	var checks []string
	for _, eng := range []string{"serial", "tiled", "parallel", "cell"} {
		out := runCLI(t, "cellnpdp", "-n", "300", "-engine", eng, "-seed", "9")
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "d[0][n-1]=") {
				checks = append(checks, line)
			}
		}
	}
	if len(checks) != 4 {
		t.Fatalf("got %d checksum lines: %v", len(checks), checks)
	}
	for _, c := range checks[1:] {
		if c != checks[0] {
			t.Fatalf("engines disagree:\n%s\n%s", checks[0], c)
		}
	}
}

func TestCLISaveAndCrossCheck(t *testing.T) {
	file := filepath.Join(t.TempDir(), "t.npdp")
	runCLI(t, "cellnpdp", "-n", "200", "-engine", "serial", "-save", file)
	out := runCLI(t, "cellnpdp", "-n", "200", "-engine", "cell", "-check", file)
	if !strings.Contains(out, "identical") {
		t.Fatalf("cross-check did not verify:\n%s", out)
	}
	// A different seed must fail the check (non-zero exit).
	cmd := exec.Command(cliPath(t, "cellnpdp"), "-n", "200", "-seed", "2", "-check", file)
	if combined, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("mismatch not detected:\n%s", combined)
	}
}

func TestCLIBenchtablesListAndRun(t *testing.T) {
	list := runCLI(t, "benchtables", "-list")
	for _, want := range []string{"table1", "fig13", "ablations", "utilization"} {
		if !strings.Contains(list, want) {
			t.Errorf("-list missing %q", want)
		}
	}
	out := runCLI(t, "benchtables", "-run", "table1")
	if !strings.Contains(out, "54 cycles") {
		t.Errorf("table1 output missing the 54-cycle note:\n%s", out)
	}
	csv := runCLI(t, "benchtables", "-run", "table1", "-csv")
	if !strings.HasPrefix(csv, "Instruction,") {
		t.Errorf("CSV output malformed:\n%s", csv)
	}
}

func TestCLIRnafold(t *testing.T) {
	out := runCLI(t, "rnafold", "GGGAAAACCC")
	if !strings.Contains(out, "(((....)))") {
		t.Errorf("hairpin not folded:\n%s", out)
	}
	full := runCLI(t, "rnafold", "-full", "GGGGGAAGGGGAAAACCCCAAGGGGAAAACCCCAACCCCC")
	if !strings.Contains(full, "(((((..((((") {
		t.Errorf("multibranch fold missing:\n%s", full)
	}
	constrained := runCLI(t, "rnafold", "-constraints", "x.........", "GGGAAAACCC")
	lines := strings.Split(constrained, "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[1], ".") {
		t.Errorf("constraint ignored:\n%s", constrained)
	}
}

func TestCLISpeviz(t *testing.T) {
	out := runCLI(t, "speviz", "-kernel")
	if !strings.Contains(out, "list-scheduled") || !strings.Contains(out, "pipe0") {
		t.Errorf("kernel view malformed:\n%s", out)
	}
	run := runCLI(t, "speviz", "-run", "-n", "300", "-spes", "4", "-tile", "16")
	if !strings.Contains(run, "SPE0") || !strings.Contains(run, "legend") {
		t.Errorf("gantt view malformed:\n%s", run)
	}
}

// TestCLIWorkersValidation asserts the uniform negative-worker rejection
// across all four engines, through the CLI surface.
func TestCLIWorkersValidation(t *testing.T) {
	for _, eng := range []string{"serial", "tiled", "parallel", "cell"} {
		cmd := exec.Command(cliPath(t, "cellnpdp"), "-n", "100", "-engine", eng, "-workers", "-1")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s engine accepted -workers -1:\n%s", eng, out)
		}
		if !strings.Contains(string(out), "Workers must be non-negative") {
			t.Fatalf("%s engine rejection unclear:\n%s", eng, out)
		}
	}
}

// TestCLITimeout asserts -timeout aborts a solve with the context error.
func TestCLITimeout(t *testing.T) {
	cmd := exec.Command(cliPath(t, "cellnpdp"), "-n", "1500", "-engine", "parallel", "-timeout", "1ns")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("expired -timeout still solved:\n%s", out)
	}
	if !strings.Contains(string(out), "deadline") {
		t.Fatalf("timeout error not surfaced:\n%s", out)
	}
}

// TestCLIFaultInjectionRecovers asserts a 5%-fault run with retries
// enabled still produces the serial reference answer (the acceptance
// scenario: complete correctly via retry, no fallback allowed).
func TestCLIFaultInjectionRecovers(t *testing.T) {
	ref := checksumLine(t, runCLI(t, "cellnpdp", "-n", "300", "-engine", "serial"))
	out := runCLI(t, "cellnpdp", "-n", "300", "-engine", "parallel",
		"-faultrate", "0.05", "-faultseed", "7", "-retries", "3", "-fallback=false")
	if got := checksumLine(t, out); got != ref {
		t.Fatalf("faulted run diverged:\n%s\nvs serial\n%s", got, ref)
	}
}

// TestCLIFallbackDegrades asserts an unretried fault degrades the solve
// to the tiled engine with a logged reason — and still gets the right
// answer.
func TestCLIFallbackDegrades(t *testing.T) {
	ref := checksumLine(t, runCLI(t, "cellnpdp", "-n", "300", "-engine", "serial"))
	out := runCLI(t, "cellnpdp", "-n", "300", "-engine", "parallel",
		"-faultrate", "0.6", "-faultseed", "3", "-retries", "0")
	if !strings.Contains(out, "degraded to tiled engine") || !strings.Contains(out, "task") {
		t.Fatalf("degradation not reported with a task-identified reason:\n%s", out)
	}
	if got := checksumLine(t, out); got != ref {
		t.Fatalf("degraded run diverged:\n%s\nvs serial\n%s", got, ref)
	}
}

// TestCLIKillAndResume is the acceptance scenario: a run killed part-way
// by an injected fault leaves a checkpoint; resuming from it with faults
// off completes and is bit-identical to the serial reference (verified
// through the tableio -check path, which compares every cell).
func TestCLIKillAndResume(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.npdp")
	ck := filepath.Join(dir, "solve.npsp")
	runCLI(t, "cellnpdp", "-n", "400", "-engine", "serial", "-save", ref)

	// Run 1: unretried injected faults, no fallback — must die with a
	// task-identified error but leave a validated checkpoint behind.
	cmd := exec.Command(cliPath(t, "cellnpdp"), "-n", "400", "-engine", "parallel",
		"-workers", "2", "-faultrate", "0.4", "-faultseed", "5", "-retries", "0",
		"-fallback=false", "-checkpoint", ck, "-checkpoint-every", "1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("faulted run unexpectedly succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "task") {
		t.Fatalf("failure lacks task identity:\n%s", out)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint left behind: %v\n%s", err, out)
	}

	// Run 2: resume with faults off; must restore completed tasks and
	// finish bit-identical to the serial reference.
	out2 := runCLI(t, "cellnpdp", "-n", "400", "-engine", "parallel",
		"-checkpoint", ck, "-resume", "-check", ref)
	if !strings.Contains(out2, "resumed ") {
		t.Fatalf("resume not reported:\n%s", out2)
	}
	if !strings.Contains(out2, "identical") {
		t.Fatalf("resumed table not bit-identical to serial reference:\n%s", out2)
	}
}

// TestCLIKillMidSpillResume is the out-of-core acceptance scenario with
// a real SIGKILL: a checkpointed paged solve under a memory budget far
// below the table footprint is killed mid-spill — no flush, no
// farewell, torn in-flight state — and a fresh process resumes from the
// committed spill index and finishes bit-identical to the serial
// reference (verified through -check, which compares every cell).
func TestCLIKillMidSpillResume(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.npdp")
	spill := filepath.Join(dir, "solve.npsp")
	runCLI(t, "cellnpdp", "-n", "1024", "-engine", "serial", "-save", ref)

	// Run 1: paged solve (tile 16 → 64×64 blocks). SIGKILL lands as soon
	// as a committed index carrying final-block records appears (the
	// temp+rename discipline makes each commit an atomic all-or-nothing
	// event; Create's initial commit is empty, so require records: the
	// NPSX layout is a 28-byte header, 8 bytes per record, 4-byte CRC).
	cmd := exec.Command(cliPath(t, "cellnpdp"), "-n", "1024", "-engine", "parallel",
		"-workers", "2", "-block", "1024", "-memory-budget", "32768", "-checkpoint", spill)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if fi, err := os.Stat(spill + ".idx"); err == nil && fi.Size() >= 28+8+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no spill index with committed records ever appeared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatal("solve finished before the kill fired; nothing was proven")
	}

	// Run 2: a fresh process recovers the committed blocks, recomputes
	// the rest, and must match the serial reference cell for cell.
	out := runCLI(t, "cellnpdp", "-n", "1024", "-engine", "parallel",
		"-workers", "2", "-block", "1024", "-memory-budget", "32768",
		"-checkpoint", spill, "-resume", "-check", ref)
	if !strings.Contains(out, "resumed ") {
		t.Fatalf("resume not reported:\n%s", out)
	}
	if !strings.Contains(out, "identical") {
		t.Fatalf("resumed paged solve not bit-identical to serial reference:\n%s", out)
	}
}

// TestCLIPagedDiskFaults drives the paged solve through the injected
// disk-fault ladder end to end: torn writes and read-back bit flips at
// 5% must be detected (CRC), healed (pristine demote + cone recompute),
// and still produce the serial reference bit for bit.
func TestCLIPagedDiskFaults(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.npdp")
	runCLI(t, "cellnpdp", "-n", "400", "-engine", "serial", "-save", ref)
	out := runCLI(t, "cellnpdp", "-n", "400", "-engine", "parallel",
		"-block", "1024", "-memory-budget", "16384",
		"-disk-faultrate", "0.05", "-disk-faultseed", "3", "-disk-faultkinds", "torn,flip",
		"-check", ref)
	if !strings.Contains(out, "identical") {
		t.Fatalf("paged solve under disk faults not bit-identical:\n%s", out)
	}
	if !strings.Contains(out, "paged ") {
		t.Fatalf("pager counters not reported:\n%s", out)
	}
}

// TestCLISelfHeal is the corruption acceptance scenario end to end:
// silent bit flips injected at 5% with -heal produce the serial
// reference bit-for-bit (verified through -check, which compares every
// cell) while reporting the heal events; the same run without -heal must
// die with the seal-audit error, never print a wrong answer.
func TestCLISelfHeal(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.npdp")
	runCLI(t, "cellnpdp", "-n", "400", "-engine", "serial", "-save", ref)

	out := runCLI(t, "cellnpdp", "-n", "400", "-engine", "parallel",
		"-faultkinds", "corrupt", "-faultrate", "0.05", "-faultseed", "7",
		"-heal", "-fallback=false", "-check", ref)
	if !strings.Contains(out, "detected ") || !strings.Contains(out, "heal rounds recomputed") {
		t.Fatalf("heal events not reported:\n%s", out)
	}
	if !strings.Contains(out, "identical") {
		t.Fatalf("healed run not bit-identical to serial reference:\n%s", out)
	}

	// Detection without healing: loud failure naming the corrupted block.
	cmd := exec.Command(cliPath(t, "cellnpdp"), "-n", "400", "-engine", "parallel",
		"-faultkinds", "corrupt", "-faultrate", "0.05", "-faultseed", "7",
		"-fallback=false")
	noHeal, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("unhealed corruption run exited 0:\n%s", noHeal)
	}
	if !strings.Contains(string(noHeal), "block seal audit") {
		t.Fatalf("corruption not named in the failure:\n%s", noHeal)
	}
}

// TestCLICellEngineHeals covers the cell engine's heal path through the
// CLI: the DES completes, the wavefront recompute repairs the table, and
// the result matches the serial reference exactly.
func TestCLICellEngineHeals(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.npdp")
	runCLI(t, "cellnpdp", "-n", "300", "-engine", "serial", "-save", ref)
	out := runCLI(t, "cellnpdp", "-n", "300", "-engine", "cell",
		"-faultkinds", "corrupt", "-faultrate", "0.2", "-faultseed", "3",
		"-heal", "-check", ref)
	if !strings.Contains(out, "detected ") || !strings.Contains(out, "identical") {
		t.Fatalf("cell heal run malformed:\n%s", out)
	}
}

// TestCLIResilienceFlagValidation asserts out-of-range resilience knobs
// fail loudly at startup with a message naming the flag.
func TestCLIResilienceFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-faultrate", "1.5"}, "-faultrate must be in [0, 1]"},
		{[]string{"-faultrate", "-0.1"}, "-faultrate must be in [0, 1]"},
		{[]string{"-retries", "-1"}, "-retries must be non-negative"},
		{[]string{"-checkpoint-every", "-2"}, "-checkpoint-every must be non-negative"},
		{[]string{"-heal-attempts", "-1"}, "-heal-attempts must be non-negative"},
		{[]string{"-audit-every", "-3"}, "-audit-every must be non-negative"},
		{[]string{"-faultkinds", "error,bogus"}, `unknown fault kind "bogus"`},
	}
	for _, c := range cases {
		args := append([]string{"-n", "50"}, c.args...)
		cmd := exec.Command(cliPath(t, "cellnpdp"), args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%v accepted:\n%s", c.args, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Fatalf("%v rejection missing %q:\n%s", c.args, c.want, out)
		}
	}
}

// TestCLIServeDrainsOnSIGTERM is the lifecycle acceptance scenario: a
// serve process with a solve in flight receives SIGTERM, finishes the
// in-flight work (the client still gets its 200), reports the outcome
// summary, and exits 0.
func TestCLIServeDrainsOnSIGTERM(t *testing.T) {
	cmd := exec.Command(cliPath(t, "cellnpdp"), "serve", "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	lines := bufio.NewScanner(stdout)
	var addr string
	for lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatal("serve never announced its address")
	}
	base := "http://" + addr

	// Kick off a solve big enough to still be running when SIGTERM lands.
	slow := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/solve", "application/json",
			strings.NewReader(`{"n": 1024, "engine": "tiled"}`))
		if err != nil {
			slow <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			slow <- fmt.Errorf("in-flight solve got %d: %s", resp.StatusCode, body)
			return
		}
		slow <- nil
	}()
	// SIGTERM only once the server confirms the solve is in flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		var h struct {
			Inflight int64 `json:"inflight"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Inflight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("solve never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-slow; err != nil {
		t.Fatalf("in-flight solve during drain: %v", err)
	}
	var out strings.Builder
	for lines.Scan() {
		out.WriteString(lines.Text())
		out.WriteByte('\n')
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve did not exit 0 after SIGTERM: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "drained; outcomes:") || !strings.Contains(out.String(), "200=1") {
		t.Fatalf("drain summary missing or wrong:\n%s", out.String())
	}
}

// checksumLine extracts the d[0][n-1] line for cross-run comparison.
func checksumLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "d[0][n-1]=") {
			return line
		}
	}
	t.Fatalf("no checksum line in output:\n%s", out)
	return ""
}

// TestCLIClusterChaos is the distributed-chaos acceptance scenario end
// to end, with real processes and a real SIGKILL: a loopback cluster of
// three worker processes runs a seeded schedule that SIGKILLs one worker
// mid-wavefront while every worker silently corrupts a seeded subset of
// its sealed result blocks. The coordinator must absorb the death,
// detect every corrupted boundary block at install, heal the poisoned
// cones, and finish bit-identical to the serial engine. The same
// corruption without -heal must die with the typed seal-mismatch error,
// never print a wrong answer.
func TestCLIClusterChaos(t *testing.T) {
	out := runCLI(t, "cellnpdp", "cluster", "-n", "704", "-cluster-workers", "3",
		"-chaos-kills", "1", "-chaos-seed", "5",
		"-faultrate", "0.25", "-faultseed", "42",
		"-heal", "-verify", "-timeout", "2m")
	if !strings.Contains(out, "verified against serial engine: identical") {
		t.Fatalf("chaos run not verified identical:\n%s", out)
	}
	stats := clusterStatsLine(t, out)
	if !strings.Contains(stats, " deaths=1 ") && !strings.Contains(stats, " deaths=2 ") {
		t.Fatalf("SIGKILL never observed: %s", stats)
	}
	if strings.Contains(stats, " mismatches=0 ") || strings.Contains(stats, " healrounds=0 ") {
		t.Fatalf("corruption never exercised: %s", stats)
	}

	cmd := exec.Command(cliPath(t, "cellnpdp"), "cluster", "-n", "704",
		"-cluster-workers", "2", "-faultrate", "1", "-faultseed", "7", "-timeout", "2m")
	out2, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("corrupted run with healing off succeeded:\n%s", out2)
	}
	if !strings.Contains(string(out2), "block seal mismatch") {
		t.Fatalf("failure lacks the typed seal-mismatch identity:\n%s", out2)
	}
}

// TestCLIClusterResume interrupts a checkpointing loopback cluster run
// with SIGTERM, then resumes it across processes and verifies identity.
func TestCLIClusterResume(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "cluster.npck")
	out := runCLI(t, "cellnpdp", "cluster", "-n", "704", "-cluster-workers", "2",
		"-checkpoint", ck, "-checkpoint-every", "4", "-timeout", "2m")
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint written: %v\n%s", err, out)
	}
	out2 := runCLI(t, "cellnpdp", "cluster", "-n", "704", "-cluster-workers", "0",
		"-checkpoint", ck, "-resume", "-verify", "-timeout", "2m")
	if !strings.Contains(out2, "verified against serial engine: identical") {
		t.Fatalf("resumed run not verified identical:\n%s", out2)
	}
	stats := clusterStatsLine(t, out2)
	if !strings.Contains(stats, " resumed=36 ") {
		t.Fatalf("full resume did not pre-complete all 36 tasks: %s", stats)
	}
}

// clusterStatsLine extracts the parseable "cluster: tasks=..." line.
func clusterStatsLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "cluster: tasks=") {
			return line
		}
	}
	t.Fatalf("no cluster stats line in output:\n%s", out)
	return ""
}
