package npdp

import (
	"fmt"
	"runtime"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// Stage1Func computes one stage-1 block product C = min(C, A ⊗ B).
type Stage1Func[E semiring.Elem] func(c, a, b []E, t int) kernel.Stats

// ResolveStage1 resolves the stage-1 kernel for one solve. Selection is
// solve-invariant — the table's element type, tile and size never
// change mid-solve — so the engines call this exactly once per solve
// and thread the returned function through the per-block dispatch
// loops — re-resolving inside the //npdp:dispatch stage-1 loop would
// put a type assertion and a model consult on every one of the
// O(blocks³/6) block products. The TestPickKernelHoisted guard pins the
// once-per-solve behavior.
//
// KernelAuto consults the Section V calibration via
// perfmodel.PickKernel. KernelPanel and KernelVector both map to the
// panel entry points (PanelMinPlusF32, PanelMinPlusF64), which run t/4
// assembly band calls exactly when a vector level is live and has a
// band kernel at the element width, and the Go panel otherwise —
// forcing the pure-Go body on a vector-capable machine is a
// process-level switch (kernel.SetVectorEnabled or
// CELLNPDP_FORCE_SCALAR=1), not a per-solve one. KernelFourRussians is rejected: the lattice kernel is not a
// min-plus block product (use zuker.MaxPairs for that workload).
func ResolveStage1[E semiring.Elem](sel perfmodel.Kernel, t *tri.Tiled[E]) (Stage1Func[E], error) {
	return ResolveStage1Shape[E](sel, t.Tile(), t.Len())
}

// ResolveStage1Shape is ResolveStage1 for engines that know the problem
// shape but do not hold the table in memory — the paged solve resolves
// its kernel from the pager's geometry before any block is resident.
func ResolveStage1Shape[E semiring.Elem](sel perfmodel.Kernel, tile, n int) (Stage1Func[E], error) {
	isF32 := semiring.Width[E]() == 4
	if sel == perfmodel.KernelAuto {
		sel = perfmodel.PickKernel(perfmodel.Shape{
			Block:   tile,
			N:       n,
			Float32: isF32,
		}, runtime.GOARCH, kernel.VectorISA())
	}
	switch sel {
	case perfmodel.KernelScalar:
		return func(c, a, b []E, ts int) kernel.Stats {
			return kernel.MulMinPlus(c, a, b, ts)
		}, nil
	case perfmodel.KernelPanel, perfmodel.KernelVector:
		if isF32 {
			return func(c, a, b []E, ts int) kernel.Stats {
				return kernel.PanelMinPlusF32(semiring.AsWidth[float32](c), semiring.AsWidth[float32](a), semiring.AsWidth[float32](b), ts)
			}, nil
		}
		return func(c, a, b []E, ts int) kernel.Stats {
			return kernel.PanelMinPlusF64(semiring.AsWidth[float64](c), semiring.AsWidth[float64](a), semiring.AsWidth[float64](b), ts)
		}, nil
	case perfmodel.KernelFourRussians:
		return nil, fmt.Errorf("npdp: the Four-Russians kernel solves lattice DPs, not min-plus block products (use zuker.MaxPairs)")
	}
	return nil, fmt.Errorf("npdp: unknown stage-1 kernel %v", sel)
}
