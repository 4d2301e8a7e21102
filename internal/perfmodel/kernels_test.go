package perfmodel

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestKernelStringRoundTrip(t *testing.T) {
	for k := KernelAuto; k <= KernelFourRussians; k++ {
		got, err := ParseKernel(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, err %v", k, got, err)
		}
	}
	if _, err := ParseKernel("warp"); err == nil {
		t.Fatal("ParseKernel must reject unknown names")
	}
}

func TestPickKernelLattice(t *testing.T) {
	defer SetActiveCalibration(&Calibration{
		Arch: "amd64", ISA: "avx2",
		NsPerCell:             map[Kernel]map[int]float64{KernelPanel: {32: 0.6}},
		FourRussiansCrossover: 512,
	})()
	if k := PickKernel(Shape{N: 1024, Lattice: true}, "amd64", "avx2"); k != KernelFourRussians {
		t.Fatalf("large lattice shape picked %v, want fourrussians", k)
	}
	if k := PickKernel(Shape{N: 128, Lattice: true}, "amd64", "avx2"); k != KernelScalar {
		t.Fatalf("small lattice shape picked %v, want scalar", k)
	}
}

func TestPickKernelVector(t *testing.T) {
	defer SetActiveCalibration(&Calibration{
		Arch: "amd64", ISA: "avx2",
		NsPerCell: map[Kernel]map[int]float64{
			KernelPanel:  {32: 0.6},
			KernelVector: {32: 0.06},
		},
	})()
	if k := PickKernel(Shape{Block: 32, N: 2048, Float32: true}, "amd64", "avx2"); k != KernelVector {
		t.Fatalf("f32 shape on avx2 picked %v, want vector", k)
	}
	// No ISA: the vector kernel is not a candidate.
	if k := PickKernel(Shape{Block: 32, N: 2048, Float32: true}, "riscv64", "none"); k != KernelPanel {
		t.Fatalf("f32 shape without ISA picked %v, want panel", k)
	}
	// float64: AVX2 has a 4×f64 panel, NEON has none.
	if k := PickKernel(Shape{Block: 32, N: 2048}, "amd64", "avx2"); k != KernelVector {
		t.Fatalf("f64 shape on avx2 picked %v, want vector", k)
	}
	if k := PickKernel(Shape{Block: 32, N: 2048}, "arm64", "neon"); k != KernelPanel {
		t.Fatalf("f64 shape on neon picked %v, want panel", k)
	}
	// AVX-512 carries both widths on its band kernels.
	for _, f32 := range []bool{true, false} {
		if k := PickKernel(Shape{Block: 32, N: 2048, Float32: f32}, "amd64", "avx512"); k != KernelVector {
			t.Fatalf("Float32=%v shape on avx512 picked %v, want vector", f32, k)
		}
	}
}

// Regenerating one host's calibration must replace only that host's
// section: the header and the other sections keep their lines and
// order, and a host with no section yet is appended.
func TestMergeCalibrationKeepsOtherSections(t *testing.T) {
	avx2 := &Calibration{Arch: "amd64", ISA: "avx2", NsPerCell: map[Kernel]map[int]float64{KernelVector: {32: 0.05}}, FourRussiansCrossover: 768}
	neon := &Calibration{Arch: "arm64", ISA: "neon", NsPerCell: map[Kernel]map[int]float64{KernelVector: {32: 0.09}}, FourRussiansCrossover: 640}
	body := FormatCalibration(avx2) + formatSection(neon)

	newAVX2 := &Calibration{Arch: "amd64", ISA: "avx2", NsPerCell: map[Kernel]map[int]float64{KernelVector: {32: 0.04, 88: 0.041}}, FourRussiansCrossover: 512}
	merged := MergeCalibration(body, newAVX2)
	if want := FormatCalibration(newAVX2) + formatSection(neon); merged != want {
		t.Fatalf("replacing [amd64/avx2]:\n%s\nwant\n%s", merged, want)
	}

	avx512 := &Calibration{Arch: "amd64", ISA: "avx512", NsPerCell: map[Kernel]map[int]float64{KernelVector: {88: 0.03}}, FourRussiansCrossover: 768}
	merged = MergeCalibration(body, avx512)
	if want := body + formatSection(avx512); merged != want {
		t.Fatalf("appending [amd64/avx512]:\n%s\nwant\n%s", merged, want)
	}
	for _, c := range []*Calibration{avx2, neon, avx512} {
		got, err := ParseCalibration(merged, c.Arch, c.ISA)
		if err != nil || got == nil || got.ISA != c.ISA || got.FourRussiansCrossover != c.FourRussiansCrossover {
			t.Fatalf("section [%s/%s] after merge: %+v, %v", c.Arch, c.ISA, got, err)
		}
	}
	if got := MergeCalibration("", avx2); got != FormatCalibration(avx2) {
		t.Fatalf("merging into an empty file:\n%s", got)
	}
}

func TestPickCountAdvances(t *testing.T) {
	before := PickCount()
	PickKernel(Shape{Block: 32, N: 256, Float32: true}, "amd64", "avx2")
	if PickCount() != before+1 {
		t.Fatalf("PickCount %d → %d, want +1", before, PickCount())
	}
}

func TestCalibrationFormatParseRoundTrip(t *testing.T) {
	in := &Calibration{
		Arch: "arm64", ISA: "neon",
		NsPerCell: map[Kernel]map[int]float64{
			KernelScalar: {16: 2.5, 32: 1.9},
			KernelPanel:  {32: 0.7},
			KernelVector: {32: 0.09},
		},
		FourRussiansCrossover: 640,
	}
	body := FormatCalibration(in)
	out, err := ParseCalibration(body, "arm64", "neon")
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || out.Arch != "arm64" || out.ISA != "neon" || out.FourRussiansCrossover != 640 {
		t.Fatalf("parsed %+v", out)
	}
	for k, m := range in.NsPerCell {
		for b, v := range m {
			if out.NsPerCell[k][b] != v {
				t.Fatalf("%v/%d: %g != %g", k, b, out.NsPerCell[k][b], v)
			}
		}
	}
	// Arch-only fallback: asking for a missing ISA on a present arch.
	if c, err := ParseCalibration(body, "arm64", "none"); err != nil || c == nil {
		t.Fatalf("arch-only fallback: %v %v", c, err)
	}
	// No match at all → nil, nil (caller falls back to defaults).
	if c, err := ParseCalibration(body, "amd64", "avx2"); err != nil || c != nil {
		t.Fatalf("no-match: %v %v", c, err)
	}
}

func TestLoadCalibrationFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.txt")
	body := FormatCalibration(&Calibration{
		Arch: "amd64", ISA: "avx2",
		NsPerCell:             map[Kernel]map[int]float64{KernelPanel: {32: 0.5}},
		FourRussiansCrossover: 512,
	})
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	defer SetActiveCalibration(nil)()
	ok, err := LoadCalibrationFile(path, "amd64", "avx2")
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if c := ActiveCalibration("amd64", "avx2"); c.FourRussiansCrossover != 512 {
		t.Fatalf("installed calibration not active: %+v", c)
	}
	// Missing file and no matching section are silent no-ops.
	if ok, err := LoadCalibrationFile(filepath.Join(dir, "absent.txt"), "amd64", "avx2"); err != nil || ok {
		t.Fatalf("missing file: ok=%v err=%v", ok, err)
	}
	if ok, err := LoadCalibrationFile(path, "riscv64", "none"); err != nil || ok {
		t.Fatalf("no section: ok=%v err=%v", ok, err)
	}
	// Malformed body is an error.
	if err := os.WriteFile(path, []byte("garbage line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCalibrationFile(path, "amd64", "avx2"); err == nil {
		t.Fatal("malformed file accepted")
	}
}

func TestParseCalibrationRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"scalar\t32\t1.0\n",                         // data before any section
		"[amd64]\n",                                 // malformed section
		"[amd64/avx2]\nwarp\t32\t1.0\n",             // unknown kernel
		"[amd64/avx2]\nscalar\t0\t1.0\n",            // bad block
		"[amd64/avx2]\nscalar\t32\t-1\n",            // bad ns
		"[amd64/avx2]\nscalar\t32\n",                // wrong arity
		"[amd64/avx2]\nfourrussians-crossover\tx\n", // bad crossover
	} {
		if _, err := ParseCalibration(bad, "amd64", "avx2"); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestNsPerCellNearestBlock(t *testing.T) {
	c := &Calibration{NsPerCell: map[Kernel]map[int]float64{
		KernelPanel: {16: 1.0, 64: 0.5},
	}}
	if v, ok := c.nsPerCell(KernelPanel, 64); !ok || v != 0.5 {
		t.Fatalf("exact: %v %v", v, ok)
	}
	if v, ok := c.nsPerCell(KernelPanel, 24); !ok || v != 1.0 {
		t.Fatalf("nearest(24): %v %v, want 16's 1.0", v, ok)
	}
	if _, ok := c.nsPerCell(KernelVector, 32); ok {
		t.Fatal("missing kernel must report !ok")
	}
}

func TestCalibrateProducesRows(t *testing.T) {
	if testing.Short() {
		t.Skip("timing loops")
	}
	cal := Calibrate([]int{16, 32})
	if len(cal.NsPerCell[KernelScalar]) != 2 || len(cal.NsPerCell[KernelPanel]) != 2 {
		t.Fatalf("missing rows: %+v", cal.NsPerCell)
	}
	for k, m := range cal.NsPerCell {
		for b, v := range m {
			if v <= 0 {
				t.Fatalf("%v/%d: non-positive ns/cell %g", k, b, v)
			}
		}
	}
	body := FormatCalibration(cal)
	if !strings.Contains(body, "[") {
		t.Fatalf("format lost the section header:\n%s", body)
	}
	back, err := ParseCalibration(body, cal.Arch, cal.ISA)
	if err != nil || back == nil {
		t.Fatalf("self round trip: %v %v", back, err)
	}
}
