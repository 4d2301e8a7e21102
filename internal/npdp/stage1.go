package npdp

import (
	"fmt"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// Stage1Func computes one stage-1 block product C = min(C, A ⊗ B).
type Stage1Func[E semiring.Elem] func(c, a, b []E, t int) kernel.Stats

// Stage1 is the stage-1 product every engine runs: the width's panel
// entry point (PanelMinPlusF32, PanelMinPlusF64), which runs t/4
// assembly band calls when a vector level is live and has a band kernel
// at the element width, and the Go panel otherwise. internal/kernel's
// ISA level is the only choice: forcing the pure-Go body on a
// vector-capable machine is a process-level switch
// (kernel.SetVectorEnabled or CELLNPDP_FORCE_SCALAR=1), not a per-solve
// one. Every level is bit-identical (FuzzKernelEquivalence), so the
// choice never changes a table.
func Stage1[E semiring.Elem]() Stage1Func[E] {
	if semiring.Width[E]() == 4 {
		return func(c, a, b []E, ts int) kernel.Stats {
			return kernel.PanelMinPlusF32(semiring.AsWidth[float32](c), semiring.AsWidth[float32](a), semiring.AsWidth[float32](b), ts)
		}
	}
	return func(c, a, b []E, ts int) kernel.Stats {
		return kernel.PanelMinPlusF64(semiring.AsWidth[float64](c), semiring.AsWidth[float64](a), semiring.AsWidth[float64](b), ts)
	}
}

// ResolveStage1 maps a kernel name to its stage-1 product, for callers
// that time one kernel against another. KernelAuto, KernelPanel and
// KernelVector all name Stage1; KernelScalar names the 4×4 CB-step
// reference MulMinPlus. KernelFourRussians is rejected: the lattice
// kernel is not a min-plus block product (use zuker.MaxPairs for that
// workload). The engines call Stage1 directly.
func ResolveStage1[E semiring.Elem](sel perfmodel.Kernel, t *tri.Tiled[E]) (Stage1Func[E], error) {
	return ResolveStage1Shape[E](sel, t.Tile(), t.Len())
}

// ResolveStage1Shape is ResolveStage1 for callers that know the problem
// shape but do not hold the table in memory. The shape does not change
// the answer: the name alone decides.
func ResolveStage1Shape[E semiring.Elem](sel perfmodel.Kernel, tile, n int) (Stage1Func[E], error) {
	switch sel {
	case perfmodel.KernelAuto, perfmodel.KernelPanel, perfmodel.KernelVector:
		return Stage1[E](), nil
	case perfmodel.KernelScalar:
		return kernel.MulMinPlus[E], nil
	case perfmodel.KernelFourRussians:
		return nil, fmt.Errorf("npdp: the Four-Russians kernel solves lattice DPs, not min-plus block products (use zuker.MaxPairs)")
	}
	return nil, fmt.Errorf("npdp: unknown stage-1 kernel %v", sel)
}
