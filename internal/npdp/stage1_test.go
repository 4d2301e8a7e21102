package npdp

import (
	"testing"

	"cellnpdp/internal/cellsim"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

// TestPickKernelHoisted pins that no engine consults the Section V
// model: every engine runs Stage1, whose ISA level internal/kernel
// picks once per process. A regression that puts a model consult back
// into a solve, let alone into the //npdp:dispatch stage-1 loop, makes
// the count non-zero here.
func TestPickKernelHoisted(t *testing.T) {
	src := workload.Chain[float32](256, 99) // 16 blocks of 16 → hundreds of block products
	mach, err := cellsim.NewMachine(cellsim.QS20())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		name  string
		solve func(*tri.Tiled[float32]) error
	}{
		{"SolveParallel", func(tt *tri.Tiled[float32]) error {
			_, err := SolveParallel(tt, ParallelOptions{Workers: 2, SchedSide: 2})
			return err
		}},
		{"SolveTiled", func(tt *tri.Tiled[float32]) error {
			_, err := SolveTiled(tt)
			return err
		}},
		{"SolveCell", func(tt *tri.Tiled[float32]) error {
			_, err := SolveCell(tt, mach, cellOpts(4))
			return err
		}},
	} {
		before := perfmodel.PickCount()
		if err := e.solve(tri.ToTiled(src, 16)); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if got := perfmodel.PickCount() - before; got != 0 {
			t.Fatalf("%s consulted PickKernel %d times, want 0", e.name, got)
		}
	}
}

// Every named stage-1 kernel, run through the block procedure, matches
// serial at both widths; tile 20 (≡ 4 mod 8) runs the vector panels'
// 4-wide column tail.
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
		mul, err := ResolveStage1(sel, tt)
		if err != nil {
			t.Fatalf("%T %v: %v", *new(E), sel, err)
		}
		for bj := 0; bj < tt.Blocks(); bj++ {
			for bi := bj; bi >= 0; bi-- {
				computeTableBlock(tt, bi, bj, mul)
			}
		}
		got := tri.ToRowMajor(tt)
		if i, j, av, bv, diff := tri.FirstDiff[E](ref, got); diff {
			t.Fatalf("%T %v: first diff at (%d,%d): serial=%v got=%v", *new(E), sel, i, j, av, bv)
		}
	}
}

func TestStage1RejectsFourRussians(t *testing.T) {
	tt := tri.ToTiled(workload.Chain[float32](32, 1), 8)
	if _, err := ResolveStage1(perfmodel.KernelFourRussians, tt); err == nil {
		t.Fatal("ResolveStage1 accepted the Four-Russians kernel for a min-plus block product")
	}
}
