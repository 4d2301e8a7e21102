package harness

import (
	"fmt"

	"cellnpdp/internal/baseline"
	"cellnpdp/internal/cellsim"
	"cellnpdp/internal/kernel"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/pipeline"
	"cellnpdp/internal/simd"
	"cellnpdp/internal/stats"
	"cellnpdp/internal/tri"
)

// Table1DP characterizes the double-precision computing-block step the
// way Table I does for single precision: a 4×4 block of doubles spans two
// registers per row, and DPFP instructions stall both pipelines.
func Table1DP(cfg Config) (*stats.Table, error) {
	var counts simd.Counts
	block := make([]float64, 4*4)
	kernel.CountedStepF64(block, block, block, 4, &counts)
	isa := pipeline.DoublePrecision()
	t := stats.NewTable("Table I (double-precision counterpart) — instructions of one computing-block step",
		"Instruction", "Execution number", "Latency (cycles)", "Pipeline type", "stalls both pipes")
	for _, op := range simd.Ops {
		spec := isa.Spec[op]
		t.AddRow(op.String(),
			fmt.Sprintf("%d", counts.Get(op)),
			fmt.Sprintf("%d", spec.Latency),
			fmt.Sprintf("%d", int(spec.Pipe)),
			fmt.Sprintf("%v", spec.StallBoth))
	}
	t.AddNote("total %d instructions; program-order steady state %.0f cycles (vs %.0f idealized list-scheduled; SP needs only %.0f)",
		counts.Total(), pipeline.CBStepCyclesDP(), pipeline.CBStepCyclesDPScheduled(), cbCyclesSP)
	return t, nil
}

// Ablations quantifies the design choices DESIGN.md calls out, each
// toggled in isolation at n=2048 single precision.
func Ablations(cfg Config) (*stats.Table, error) {
	const n = 2048
	t := stats.NewTable("Ablations — each design choice toggled in isolation (n=2048, single precision)",
		"design choice", "with", "without", "effect")

	// 1. New data layout vs row-major tiling at equal tile (measured).
	src := cfg.chainF32(n)
	ndlTile := paperTile(npdp.Single)
	tt := tri.ToTiled(src, ndlTile)
	var err error
	tNDL := timeIt(func() { _, err = npdp.SolveTiledScalar(tt) })
	if err != nil {
		return nil, err
	}
	rm := src.Clone()
	tRow := timeIt(func() {
		_, err = baseline.Solve(rm, baseline.Options{Workers: 1, Tile: ndlTile})
	})
	if err != nil {
		return nil, err
	}
	if !tri.Equal[float32](rm, tri.ToRowMajor(tt)) {
		return nil, fmt.Errorf("ablation: layouts disagree")
	}
	t.AddRow("block-sequential layout (measured, scalar, 1 core)",
		stats.Seconds(tNDL), stats.Seconds(tRow), stats.Ratio(tRow/tNDL))

	// 2. Computing-block kernel vs scalar loops (measured).
	t2a := tri.ToTiled(src, ndlTile)
	tKern := timeIt(func() { _, err = npdp.SolveTiled(t2a) })
	if err != nil {
		return nil, err
	}
	t.AddRow(fmt.Sprintf("computing-block procedure on the band kernels, %s (measured, 1 core)", kernel.VectorISA()),
		stats.Seconds(tKern), stats.Seconds(tNDL), stats.Ratio(tNDL/tKern))

	// 3. Software pipelining in the SPE kernel (modeled cycles).
	t.AddRow("software pipelining (modeled cycles/CB step)",
		fmt.Sprintf("%.0f", cbCyclesSP),
		fmt.Sprintf("%.0f", pipeline.CBStepCyclesSPNaive()),
		stats.Ratio(pipeline.CBStepCyclesSPNaive()/cbCyclesSP))

	// 4. Double buffering (modeled).
	on, err := modelCell(n, npdp.Single, cellOpts(npdp.Single, 16))
	if err != nil {
		return nil, err
	}
	offOpts := cellOpts(npdp.Single, 16)
	offOpts.DoubleBuffer = false
	off, err := modelCell(n, npdp.Single, offOpts)
	if err != nil {
		return nil, err
	}
	t.AddRow("double-buffered DMA prefetch (modeled, 16 SPEs)",
		stats.Seconds(on.Seconds), stats.Seconds(off.Seconds), stats.Ratio(off.Seconds/on.Seconds))

	// 5. Scheduling blocks under heavy dispatch cost (modeled).
	heavy := cellOpts(npdp.Single, 16)
	heavyG := cellOpts(npdp.Single, 16)
	heavyG.SchedSide = 4
	mach, err := heavyMachine()
	if err != nil {
		return nil, err
	}
	a, err := npdp.ModelCell(n, 16, npdp.Single, mach, heavy)
	if err != nil {
		return nil, err
	}
	b, err := npdp.ModelCell(n, 16, npdp.Single, mach, heavyG)
	if err != nil {
		return nil, err
	}
	t.AddRow("scheduling blocks g=4 @200µs dispatch (modeled)",
		stats.Seconds(b.Seconds), stats.Seconds(a.Seconds), stats.Ratio(a.Seconds/b.Seconds))

	// 6. Simplified 2-edge dependence graph vs full edges (measured).
	t6a := tri.ToTiled(src, 32)
	tSimple := timeIt(func() {
		_, err = npdp.SolveParallel(t6a, npdp.ParallelOptions{Workers: cfg.workers()})
	})
	if err != nil {
		return nil, err
	}
	t6b := tri.ToTiled(src, 32)
	tFull := timeIt(func() {
		_, err = npdp.SolveParallel(t6b, npdp.ParallelOptions{Workers: cfg.workers(), FullDeps: true})
	})
	if err != nil {
		return nil, err
	}
	t.AddRow(fmt.Sprintf("simplified 2-dep graph (measured, %d cores)", cfg.workers()),
		stats.Seconds(tSimple), stats.Seconds(tFull), stats.Ratio(tFull/tSimple))

	// 7. Task queue vs the prior work's barrier-synchronized wavefront.
	t7 := tri.ToTiled(src, 32)
	tWave := timeIt(func() {
		_, err = npdp.SolveWavefrontBarrier(t7, cfg.workers())
	})
	if err != nil {
		return nil, err
	}
	t.AddRow(fmt.Sprintf("task queue vs barrier wavefront (measured, %d cores)", cfg.workers()),
		stats.Seconds(tSimple), stats.Seconds(tWave), stats.Ratio(tWave/tSimple))

	// 8. One t×t stage-1 product on Stage1 vs 4×4 CB steps (measured,
	// repeated on the same operands, as BenchmarkAblationPanel times it).
	const reps = 200
	pa, pb := tt.Block(0, 1), tt.Block(1, 2)
	pc := append([]float32(nil), tt.Block(0, 2)...)
	mul := npdp.Stage1[float32]()
	tPanel := timeIt(func() {
		for i := 0; i < reps; i++ {
			mul(pc, pa, pb, ndlTile)
		}
	})
	tCBStep := timeIt(func() {
		for i := 0; i < reps; i++ {
			kernel.MulMinPlus(pc, pa, pb, ndlTile)
		}
	})
	t.AddRow(fmt.Sprintf("band stage-1 kernel, %s, vs 4x4 CB steps (measured, %d products of %dx%d, 1 core)", kernel.VectorISA(), reps, ndlTile, ndlTile),
		stats.Seconds(tPanel), stats.Seconds(tCBStep), stats.Ratio(tCBStep/tPanel))

	t.AddNote("'effect' is without/with — how much the design choice buys; values < 1.0x mean the simplification costs a little and buys scheduling-state size instead")
	return t, nil
}

// heavyMachine is a QS20 with an exaggerated per-task dispatch cost, to
// make the scheduling-block ablation visible at modest sizes.
func heavyMachine() (*cellsim.Machine, error) {
	cfg := cellsim.QS20()
	cfg.DispatchOverhead = 200e-6
	return cellsim.NewMachine(cfg)
}
