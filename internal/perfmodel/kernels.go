package perfmodel

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file extends the Section V model from "which block size" to
// "which kernel": the engines now have several bit-identical stage-1
// implementations (scalar CB-step reference, register-blocked Go panel,
// AVX-512/AVX2/NEON vector kernel, and the Four-Russians lattice
// kernel), and
// the same measured-constants-into-closed-form discipline the paper
// uses for N₂ picks between them. Per-kernel ns/cell is calibrated once
// per machine (scripts/kernel_calibration.txt, regenerated like the
// codegen baseline), and PickKernel evaluates the calibrated costs for
// a concrete workload shape. The min-plus engines do not consult it:
// they all run npdp.Stage1, whose body the ISA level picks. For a
// min-plus shape PickKernel names that running kernel (the benchmark's
// stage-1 model ratio reads it); for a lattice shape it decides the
// Four-Russians kernel.

// Kernel identifies one stage-1 implementation.
type Kernel int

// The stage-1 kernels, in escalation order.
const (
	// KernelAuto is the zero value: whatever the ISA level runs
	// (npdp.ResolveStage1 maps it to npdp.Stage1).
	KernelAuto Kernel = iota
	// KernelScalar is the 4×4 CB-step reference (kernel.MulMinPlus).
	KernelScalar
	// KernelPanel is the register-blocked pure-Go panel.
	KernelPanel
	// KernelVector is the assembly band kernel, t/4 bands per block
	// product: AVX-512 or AVX2 at both widths, NEON at float32.
	KernelVector
	// KernelFourRussians is the two-vector lattice kernel
	// (internal/fourrussians; integer 0/1-difference DPs only).
	KernelFourRussians
)

// String names the kernel as it appears in calibration files and bench
// rows.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelScalar:
		return "scalar"
	case KernelPanel:
		return "panel"
	case KernelVector:
		return "vector"
	case KernelFourRussians:
		return "fourrussians"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

// ParseKernel inverts String.
func ParseKernel(s string) (Kernel, error) {
	for k := KernelAuto; k <= KernelFourRussians; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("perfmodel: unknown kernel %q", s)
}

// Shape describes one stage-1 workload for kernel selection.
type Shape struct {
	// Block is the memory-block side t (the paper's N₂); stage-1 runs
	// 4×t panel products over t×t blocks.
	Block int
	// N is the total problem size (DP points) — the Four-Russians
	// decision is asymptotic, so it needs n, not just t.
	N int
	// Float32 reports single-precision elements. The AVX-512 and AVX2
	// vector kernels cover both widths; the NEON ones cover float32
	// only, so a float64 shape on "neon" takes the Go panel.
	Float32 bool
	// Lattice reports a 0/1-difference integer DP (Nussinov max-pairs):
	// the only workload where Four-Russians is sound.
	Lattice bool
}

// Calibration holds a machine's measured per-kernel costs.
type Calibration struct {
	// Arch is the GOARCH the numbers were measured on.
	Arch string
	// ISA is the vector ISA in use ("avx512", "avx2", "neon", "none").
	ISA string
	// NsPerCell maps kernel → block side → measured ns per relaxed
	// cell. Missing entries fall back to the kernel's worst measured
	// block (or defaults).
	NsPerCell map[Kernel]map[int]float64
	// FourRussiansCrossover is the smallest n at which the
	// Four-Russians solve beat the serial Nussinov reference; 0 means
	// it never won in calibration.
	FourRussiansCrossover int
}

// defaultCalibration is a conservative built-in table (measured on the
// reference amd64 dev machine; see scripts/kernel_calibration.txt for
// the regenerated per-machine numbers). Values are ns/cell of the
// stage-1 panel product.
func defaultCalibration(arch, isa string) *Calibration {
	c := &Calibration{
		Arch: arch,
		ISA:  isa,
		NsPerCell: map[Kernel]map[int]float64{
			KernelScalar: {32: 1.6},
			KernelPanel:  {32: 0.65},
		},
		FourRussiansCrossover: 768,
	}
	if isa != "none" {
		c.NsPerCell[KernelVector] = map[int]float64{32: 0.06}
	}
	return c
}

// nsPerCell returns the calibrated cost of k at block side t, falling
// back to the nearest measured block.
func (c *Calibration) nsPerCell(k Kernel, t int) (float64, bool) {
	m := c.NsPerCell[k]
	if len(m) == 0 {
		return 0, false
	}
	if v, ok := m[t]; ok {
		return v, true
	}
	// Nearest block side wins; ties prefer the smaller (pessimistic for
	// vector kernels, whose advantage grows with t).
	bestD := -1
	var bestV float64
	for b, v := range m {
		d := b - t
		if d < 0 {
			d = -d
		}
		if bestD < 0 || d < bestD {
			bestD, bestV = d, v
		}
	}
	return bestV, true
}

var (
	calMu     sync.RWMutex
	activeCal *Calibration
	pickCount atomic.Int64
)

// SetActiveCalibration installs a measured calibration (normally loaded
// from scripts/kernel_calibration.txt at process start) and returns a
// restore func for tests. Passing nil reverts to the built-in defaults.
func SetActiveCalibration(c *Calibration) (restore func()) {
	calMu.Lock()
	prev := activeCal
	activeCal = c
	calMu.Unlock()
	return func() {
		calMu.Lock()
		activeCal = prev
		calMu.Unlock()
	}
}

// ActiveCalibration returns the installed calibration, or the built-in
// defaults for the given arch/ISA when none is installed.
func ActiveCalibration(arch, isa string) *Calibration {
	calMu.RLock()
	c := activeCal
	calMu.RUnlock()
	if c != nil {
		return c
	}
	return defaultCalibration(arch, isa)
}

// PickCount returns the number of PickKernel calls since process start.
// The engines never call PickKernel; the regression test asserts this
// counter does not grow during a solve.
func PickCount() int64 { return pickCount.Load() }

// PickKernel selects the stage-1 kernel for a workload the way
// Section V picks block sizes: evaluate the calibrated cost of every
// sound kernel and take the cheapest.
//
//   - Lattice shapes beyond the measured Four-Russians crossover take
//     the O(n³/log n) kernel — its win is asymptotic, not per-cell.
//   - Shapes the ISA has a vector kernel for (float32 everywhere,
//     float64 on AVX-512 and AVX2) take it when calibration agrees it is cheapest
//     (it always is where supported).
//   - Everything else takes the Go panel. KernelScalar is never
//     picked; it survives as the reference ablations time against
//     npdp.Stage1 (npdp.ResolveStage1).
func PickKernel(shape Shape, arch, isa string) Kernel {
	pickCount.Add(1)
	cal := ActiveCalibration(arch, isa)
	if shape.Lattice {
		if cx := cal.FourRussiansCrossover; cx > 0 && shape.N >= cx {
			return KernelFourRussians
		}
		return KernelScalar // lattice DPs have no float panel form
	}
	best, bestCost := KernelPanel, 0.0
	if v, ok := cal.nsPerCell(KernelPanel, shape.Block); ok {
		bestCost = v
	}
	if vectorWidth(shape.Float32, isa) && shape.Block%4 == 0 {
		if v, ok := cal.nsPerCell(KernelVector, shape.Block); ok && (bestCost == 0 || v < bestCost) {
			best = KernelVector
		}
	}
	return best
}

// vectorWidth reports whether isa has an assembly kernel at the shape's
// element width: every vector ISA carries float32, and AVX-512 and AVX2
// carry float64 too.
func vectorWidth(f32 bool, isa string) bool {
	if f32 {
		return isa != "none"
	}
	return isa == "avx512" || isa == "avx2"
}

// FormatCalibration renders a calibration as the persisted file body —
// the same normalized-text discipline as the codegen baseline.
func FormatCalibration(c *Calibration) string {
	return "# stage-1 kernel calibration: measured ns/cell per kernel × block side,\n" +
		"# plus the Four-Russians crossover n, one [arch/isa] section per host\n" +
		"# kind. Regenerate this host's section with:\n" +
		"#   go run ./cmd/benchtables -calibrate scripts/kernel_calibration.txt\n" +
		formatSection(c)
}

// MergeCalibration returns the calibration file body with c's
// [arch/isa] section replaced by c, or appended when body has none;
// the header and every other section keep their lines and their order.
// An empty body yields FormatCalibration(c).
func MergeCalibration(body string, c *Calibration) string {
	if strings.TrimSpace(body) == "" {
		return FormatCalibration(c)
	}
	head := fmt.Sprintf("[%s/%s]", c.Arch, c.ISA)
	var b strings.Builder
	replaced, inSection := false, false
	for _, line := range strings.SplitAfter(body, "\n") {
		if t := strings.TrimSpace(line); strings.HasPrefix(t, "[") && strings.HasSuffix(t, "]") {
			inSection = t == head
			if inSection && !replaced {
				b.WriteString(formatSection(c))
				replaced = true
			}
		}
		if !inSection {
			b.WriteString(line)
		}
	}
	if !replaced {
		if !strings.HasSuffix(body, "\n") {
			b.WriteString("\n")
		}
		b.WriteString(formatSection(c))
	}
	return b.String()
}

// formatSection renders c's [arch/isa] section: its header line, the
// crossover and one kernel/block/ns row per measurement, sorted.
func formatSection(c *Calibration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s/%s]\n", c.Arch, c.ISA)
	fmt.Fprintf(&b, "fourrussians-crossover\t%d\n", c.FourRussiansCrossover)
	type row struct {
		k Kernel
		t int
		v float64
	}
	var rows []row
	for k, m := range c.NsPerCell {
		for t, v := range m {
			rows = append(rows, row{k, t, v})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].k != rows[j].k {
			return rows[i].k < rows[j].k
		}
		return rows[i].t < rows[j].t
	})
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%d\t%.4f\n", r.k, r.t, r.v)
	}
	return b.String()
}

// LoadCalibrationFile installs the section of the persisted calibration
// file matching arch/isa (with the usual arch-only fallback). A missing
// file or a file with no matching section leaves the built-in defaults
// active and is not an error; a malformed file is. Returns whether a
// section was installed.
func LoadCalibrationFile(path, arch, isa string) (bool, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	c, err := ParseCalibration(string(body), arch, isa)
	if err != nil {
		return false, fmt.Errorf("%s: %v", path, err)
	}
	if c == nil {
		return false, nil
	}
	SetActiveCalibration(c)
	return true, nil
}

// ParseCalibration reads a calibration file body. Only the section
// matching arch/isa is returned; with no exact match the first section
// of the same arch is taken, and with no match at all (nil, nil) — the
// caller falls back to defaults.
func ParseCalibration(s, arch, isa string) (*Calibration, error) {
	var (
		cur      *Calibration
		match    *Calibration
		archOnly *Calibration
	)
	for i, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
			sec := strings.TrimSuffix(strings.TrimPrefix(line, "["), "]")
			a, i2, ok := strings.Cut(sec, "/")
			if !ok {
				return nil, fmt.Errorf("calibration line %d: bad section %q", i+1, line)
			}
			cur = &Calibration{Arch: a, ISA: i2, NsPerCell: make(map[Kernel]map[int]float64)}
			if a == arch && i2 == isa && match == nil {
				match = cur
			}
			if a == arch && archOnly == nil {
				archOnly = cur
			}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("calibration line %d: data before any [arch/isa] section", i+1)
		}
		parts := strings.Split(line, "\t")
		if len(parts) == 2 && parts[0] == "fourrussians-crossover" {
			n, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("calibration line %d: bad crossover %q", i+1, parts[1])
			}
			cur.FourRussiansCrossover = n
			continue
		}
		if len(parts) != 3 {
			return nil, fmt.Errorf("calibration line %d: want 'kernel\\tblock\\tns', got %q", i+1, line)
		}
		k, err := ParseKernel(parts[0])
		if err != nil {
			return nil, fmt.Errorf("calibration line %d: %v", i+1, err)
		}
		t, err := strconv.Atoi(parts[1])
		if err != nil || t <= 0 {
			return nil, fmt.Errorf("calibration line %d: bad block %q", i+1, parts[1])
		}
		v, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("calibration line %d: bad ns/cell %q", i+1, parts[2])
		}
		if cur.NsPerCell[k] == nil {
			cur.NsPerCell[k] = make(map[int]float64)
		}
		cur.NsPerCell[k][t] = v
	}
	if match != nil {
		return match, nil
	}
	return archOnly, nil
}
