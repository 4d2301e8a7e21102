package harness

import (
	"fmt"
	"math"

	"cellnpdp/internal/cellsim"
	"cellnpdp/internal/kernel"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/pipeline"
	"cellnpdp/internal/simd"
	"cellnpdp/internal/stats"
	"cellnpdp/internal/tri"
)

// Table1 regenerates Table I: the instruction mix, latencies and pipeline
// types of one single-precision computing-block step, measured by running
// the counted kernel and cross-checked against the pipeline program.
func Table1(cfg Config) (*stats.Table, error) {
	var counts simd.Counts
	block := make([]float32, 4*4)
	kernel.CountedStepF32(block, block, block, 4, &counts)
	prog := pipeline.BuildCBStepSP()
	progMix := prog.Mix()
	isa := pipeline.SinglePrecision()

	t := stats.NewTable("Table I — SIMD instructions of one computing-block step (single precision)",
		"Instruction", "Execution number", "Latency (cycles)", "Pipeline type")
	paper := map[simd.Op]int64{
		simd.OpLoad: 12, simd.OpShuffle: 16, simd.OpAdd: 16,
		simd.OpCmp: 16, simd.OpSel: 16, simd.OpStore: 4,
	}
	for _, op := range simd.Ops {
		if counts.Get(op) != paper[op] || progMix.Get(op) != paper[op] {
			return nil, fmt.Errorf("instruction mix for %v is %d/%d, paper says %d",
				op, counts.Get(op), progMix.Get(op), paper[op])
		}
		spec := isa.Spec[op]
		t.AddRow(op.String(),
			fmt.Sprintf("%d", counts.Get(op)),
			fmt.Sprintf("%d", spec.Latency),
			fmt.Sprintf("%d", int(spec.Pipe)))
	}
	t.AddNote("total %d instructions; software-pipelined steady state %.0f cycles (paper: 80 instructions, 54 cycles)",
		counts.Total(), cbCyclesSP)
	t.AddNote("in program order with no software pipelining: %.0f cycles", pipeline.CBStepCyclesSPNaive())
	return t, nil
}

// table2Paper holds the published Table II values (seconds).
var table2Paper = map[npdp.Precision]map[string][3]float64{
	npdp.Single: {
		"PPE":  {715, 21961, 187945},
		"SPE":  {3061, 24588, 198432},
		"Cell": {0.22, 1.77, 13.90},
	},
	npdp.Double: {
		"PPE":  {1015, 27821, 241759},
		"SPE":  {5096, 40752, 327276},
		"Cell": {4.41, 34.54, 389.15},
	},
}

// Table2 regenerates Table II on the modeled QS20 at the paper's problem
// sizes: the original algorithm on one PPE and one SPE, and CellNPDP on
// 16 SPEs, at both precisions.
func Table2(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table II — IBM QS20 Cell blade, modeled (seconds)",
		"Precision", "Configuration", "n=4096", "n=8192", "n=16384", "paper", "ratio range")
	qs20 := cellsim.QS20()
	for _, prec := range []npdp.Precision{npdp.Single, npdp.Double} {
		rows := []struct {
			name string
			run  func(n int) (float64, error)
		}{
			{"original, one PPE", func(n int) (float64, error) {
				return npdp.ModelOriginalPPE(n, prec, npdp.DefaultPPEModel())
			}},
			{"original, one SPE", func(n int) (float64, error) {
				r, err := npdp.ModelOriginalSPE(n, prec, qs20, npdp.DefaultScalarRelaxCycles)
				return r.Seconds, err
			}},
			{"CellNPDP, 16 SPEs", func(n int) (float64, error) {
				r, err := modelCell(n, prec, cellOpts(prec, 16))
				return r.Seconds, err
			}},
		}
		keys := []string{"PPE", "SPE", "Cell"}
		for ri, row := range rows {
			var cells [3]string
			loRatio, hiRatio := math.Inf(1), math.Inf(-1)
			for si, n := range paperSizes() {
				sec, err := row.run(n)
				if err != nil {
					return nil, err
				}
				cells[si] = stats.Seconds(sec)
				ratio := sec / table2Paper[prec][keys[ri]][si]
				loRatio = math.Min(loRatio, ratio)
				hiRatio = math.Max(hiRatio, ratio)
			}
			paperVals := table2Paper[prec][keys[ri]]
			t.AddRow(prec.String(), row.name, cells[0], cells[1], cells[2],
				fmt.Sprintf("%.4g/%.4g/%.4g", paperVals[0], paperVals[1], paperVals[2]),
				fmt.Sprintf("%.2f–%.2f", loRatio, hiRatio))
		}
	}
	t.AddNote("ratio range = modeled/paper across the three sizes; absolute seconds come from the calibrated simulator, shapes are the claim")
	return t, nil
}

// Table2Verify cross-checks the model against functional execution: at
// measured sizes, SolveCell (which really computes the DP through local
// stores and DMA) must report exactly the modeled time.
func Table2Verify(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table II cross-check — functional CellNPDP vs timing-only model",
		"n", "functional (modeled s)", "timing-only (s)", "equal", "DP table matches serial")
	for _, n := range []int{256, 512} {
		src := cfg.chainF32(n)
		ref := src.Clone()
		npdp.SolveSerial(ref)
		tile := 16
		tt := tri.ToTiled(src, tile)
		machF, err := cellsim.NewMachine(cellsim.QS20())
		if err != nil {
			return nil, err
		}
		opts := cellOpts(npdp.Single, 16)
		fun, err := npdp.SolveCell(tt, machF, opts)
		if err != nil {
			return nil, err
		}
		machM, err := cellsim.NewMachine(cellsim.QS20())
		if err != nil {
			return nil, err
		}
		mod, err := npdp.ModelCell(n, tile, npdp.Single, machM, opts)
		if err != nil {
			return nil, err
		}
		equal := fun.Seconds == mod.Seconds && fun.DMA == mod.DMA
		matches := tri.Equal[float32](ref, tri.ToRowMajor(tt))
		t.AddRow(fmt.Sprintf("%d", n), stats.Seconds(fun.Seconds), stats.Seconds(mod.Seconds),
			fmt.Sprintf("%v", equal), fmt.Sprintf("%v", matches))
		if !equal || !matches {
			return nil, fmt.Errorf("cross-check failed at n=%d", n)
		}
	}
	return t, nil
}

// table3Paper holds the published Table III values for reference notes.
var table3Paper = map[npdp.Precision][2][3]float64{
	npdp.Single: {{108.01, 1041.1, 11021}, {0.43, 3.25, 25.56}},
	npdp.Double: {{119.79, 1234.3, 13624}, {0.8159, 6.185, 48.170}},
}

// Table3 regenerates Table III's comparison on the host CPU: the original
// algorithm vs the CellNPDP-structured parallel engine, measured wall
// clock at the configured sizes.
func Table3(cfg Config) (*stats.Table, error) {
	t := stats.NewTable(fmt.Sprintf("Table III — host CPU platform, measured (%d workers)", cfg.workers()),
		"Precision", "n", "original (s)", "CellNPDP (s)", "speedup")
	for _, n := range cfg.measuredSizes() {
		src32 := cfg.chainF32(n)
		ser := src32.Clone()
		tSerial := timeIt(func() { npdp.SolveSerial(ser) })
		tt := tri.ToTiled(src32, paperTile(npdp.Single))
		var err error
		tPar := timeIt(func() {
			_, err = npdp.SolveParallel(tt, npdp.ParallelOptions{Workers: cfg.workers(), SchedSide: 1})
		})
		if err != nil {
			return nil, err
		}
		if !tri.Equal[float32](ser, tri.ToRowMajor(tt)) {
			return nil, fmt.Errorf("table3: parallel result differs from serial at n=%d", n)
		}
		t.AddRow("single", fmt.Sprintf("%d", n), stats.Seconds(tSerial), stats.Seconds(tPar), stats.Ratio(tSerial/tPar))

		src64 := cfg.chainF64(n)
		ser64 := src64.Clone()
		tSerial64 := timeIt(func() { npdp.SolveSerial(ser64) })
		tt64 := tri.ToTiled(src64, paperTile(npdp.Double))
		tPar64 := timeIt(func() {
			_, err = npdp.SolveParallel(tt64, npdp.ParallelOptions{Workers: cfg.workers(), SchedSide: 1})
		})
		if err != nil {
			return nil, err
		}
		if !tri.Equal[float64](ser64, tri.ToRowMajor(tt64)) {
			return nil, fmt.Errorf("table3: parallel f64 result differs from serial at n=%d", n)
		}
		t.AddRow("double", fmt.Sprintf("%d", n), stats.Seconds(tSerial64), stats.Seconds(tPar64), stats.Ratio(tSerial64/tPar64))
	}
	p := table3Paper
	t.AddNote("paper (4096/8192/16384): SP original %.4g/%.4g/%.4g s vs CellNPDP %.4g/%.4g/%.4g s; DP %.4g/%.4g/%.4g vs %.4g/%.4g/%.4g",
		p[npdp.Single][0][0], p[npdp.Single][0][1], p[npdp.Single][0][2],
		p[npdp.Single][1][0], p[npdp.Single][1][1], p[npdp.Single][1][2],
		p[npdp.Double][0][0], p[npdp.Double][0][1], p[npdp.Double][0][2],
		p[npdp.Double][1][0], p[npdp.Double][1][1], p[npdp.Double][1][2])
	isa := kernel.VectorISA()
	if isa == "none" {
		isa = "the Go fallback"
	}
	t.AddNote("the paper's 250x+ CPU speedups include SSE vectorization; the CellNPDP column runs its band kernels on %s (kernel.VectorISA), the original column scalar Go, so the measured gap includes the SIMD factor (see DESIGN.md §9)", isa)
	return t, nil
}
