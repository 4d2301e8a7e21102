package npdp

import (
	"testing"

	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

// TestPickKernelHoisted pins the hoisting contract documented on
// ResolveStage1: one model consult per solve, no matter how many block
// products the solve performs. A regression that moves the selection
// back inside the //npdp:dispatch stage-1 loop makes the count scale
// with O(blocks³) and fails loudly here.
func TestPickKernelHoisted(t *testing.T) {
	src := workload.Chain[float32](256, 99) // 16 blocks of 16 → hundreds of block products
	tt := tri.ToTiled(src, 16)
	before := perfmodel.PickCount()
	if _, err := SolveParallel(tt, ParallelOptions{Workers: 2, SchedSide: 2}); err != nil {
		t.Fatal(err)
	}
	if got := perfmodel.PickCount() - before; got != 1 {
		t.Fatalf("SolveParallel consulted PickKernel %d times, want exactly 1", got)
	}

	// An explicit kernel choice bypasses the model entirely.
	tt2 := tri.ToTiled(src, 16)
	before = perfmodel.PickCount()
	if _, err := SolveParallel(tt2, ParallelOptions{Workers: 2, Stage1: perfmodel.KernelScalar}); err != nil {
		t.Fatal(err)
	}
	if got := perfmodel.PickCount() - before; got != 0 {
		t.Fatalf("explicit Stage1 consulted PickKernel %d times, want 0", got)
	}
}

// Every explicit stage-1 kernel, and the model's pick, matches serial
// at both widths; tile 20 (≡ 4 mod 8) runs the vector panels' 4-wide
// column tail.
func TestStage1ExplicitKernelsBitIdentical(t *testing.T) {
	explicitKernelsBitIdentical[float32](t)
	explicitKernelsBitIdentical[float64](t)
}

func explicitKernelsBitIdentical[E semiring.Elem](t *testing.T) {
	t.Helper()
	src := workload.Chain[E](200, 41)
	ref := solveRef(src)
	for _, sel := range []perfmodel.Kernel{perfmodel.KernelAuto, perfmodel.KernelScalar, perfmodel.KernelPanel, perfmodel.KernelVector} {
		tt := tri.ToTiled(src, 20)
		if _, err := SolveParallel(tt, ParallelOptions{Workers: 3, Stage1: sel}); err != nil {
			t.Fatalf("%T Stage1=%v: %v", *new(E), sel, err)
		}
		got := tri.ToRowMajor(tt)
		if i, j, av, bv, diff := tri.FirstDiff[E](ref, got); diff {
			t.Fatalf("%T Stage1=%v: first diff at (%d,%d): serial=%v got=%v", *new(E), sel, i, j, av, bv)
		}
	}
}

func TestStage1RejectsFourRussians(t *testing.T) {
	tt := tri.ToTiled(workload.Chain[float32](32, 1), 8)
	if _, err := SolveParallel(tt, ParallelOptions{Workers: 1, Stage1: perfmodel.KernelFourRussians}); err == nil {
		t.Fatal("SolveParallel accepted the Four-Russians kernel for a min-plus solve")
	}
}
