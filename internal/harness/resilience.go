package harness

import (
	"fmt"
	"os"
	"path/filepath"

	"cellnpdp"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/stats"
	"cellnpdp/internal/tri"
)

// Resilience characterizes the fault-tolerance layer on the parallel
// engine: wall-time overhead of surviving injected transient faults via
// retry at increasing rates, plus one kill-and-resume cycle through a
// public checkpoint. Every row is verified bit-identical against the
// serial reference before it is reported.
func Resilience(cfg Config) (*stats.Table, error) {
	// Largest configured measured size, capped so the rate sweep stays
	// cheap even in full mode (fault-tolerance overhead is size-stable).
	n := 600
	if sizes := cfg.measuredSizes(); sizes[len(sizes)-1] < n {
		n = sizes[len(sizes)-1]
	}
	tile := paperTile(npdp.Single)
	ref := cfg.chainF32(n)
	npdp.SolveSerial(ref)

	solve := func(opts npdp.ParallelOptions) (float64, error) {
		src := cfg.chainF32(n)
		tt := tri.ToTiled(src, tile)
		var err error
		secs := timeIt(func() { _, err = npdp.SolveParallel(tt, opts) })
		if err != nil {
			return 0, err
		}
		tri.Copy(src, tt)
		if i, j, a, b, diff := tri.FirstDiff[float32](ref, src); diff {
			return 0, fmt.Errorf("faulted solve diverged at (%d,%d): %v vs %v", i, j, a, b)
		}
		return secs, nil
	}

	t := stats.NewTable(fmt.Sprintf("Resilience — injected transient faults survived by per-task retry (n=%d)", n),
		"Fault rate", "Retries", "Wall (ms)", "Overhead", "Verified")
	clean, err := solve(npdp.ParallelOptions{Workers: cfg.workers(), SchedSide: 1})
	if err != nil {
		return nil, err
	}
	t.AddRow("0", "-", fmt.Sprintf("%.2f", clean*1e3), "1.00x", "yes")
	for _, rate := range []float64{0.02, 0.05, 0.10} {
		secs, err := solve(npdp.ParallelOptions{
			Workers: cfg.workers(), SchedSide: 1,
			Retry:  resilience.RetryPolicy{MaxRetries: 5},
			Inject: &resilience.Injector{Rate: rate, Seed: cfg.Seed + 11},
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f%%", rate*100), "5",
			fmt.Sprintf("%.2f", secs*1e3), fmt.Sprintf("%.2fx", secs/clean), "yes")
	}

	// Kill-and-resume through the public API: unretried faults kill a
	// checkpointed solve, and a second solve resumes the survivors from
	// the checkpoint, its spill file, and must still match.
	dir, err := os.MkdirTemp("", "cellnpdp-resilience")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ck := filepath.Join(dir, "solve.npsp")
	public := func() (*cellnpdp.Table[float32], error) {
		tbl, err := cellnpdp.NewTable[float32](n)
		if err != nil {
			return nil, err
		}
		src := cfg.chainF32(n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if err := tbl.Set(i, j, src.At(i, j)); err != nil {
					return nil, err
				}
			}
		}
		return tbl, nil
	}
	killed, err := public()
	if err != nil {
		return nil, err
	}
	if _, err := cellnpdp.Solve(killed, cellnpdp.Options{
		Engine: cellnpdp.Parallel, Workers: cfg.workers(), SchedSide: 1,
		FaultRate: 0.4, FaultSeed: cfg.Seed + 11, NoFallback: true,
		CheckpointPath: ck, CheckpointEvery: 1,
	}); err == nil {
		return nil, fmt.Errorf("kill run survived rate-0.4 unretried faults")
	}
	resumed, err := public()
	if err != nil {
		return nil, err
	}
	res, err := cellnpdp.Solve(resumed, cellnpdp.Options{
		Engine: cellnpdp.Parallel, Workers: cfg.workers(), SchedSide: 1,
		CheckpointPath: ck, Resume: true, NoFallback: true,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		row, err := resumed.Row(i)
		if err != nil {
			return nil, err
		}
		for j, v := range row {
			if want := ref.At(i, i+j); v != want {
				return nil, fmt.Errorf("resumed solve diverged at (%d,%d): %v vs %v", i, i+j, v, want)
			}
		}
	}
	t.AddRow("kill+resume", "0", fmt.Sprintf("%.2f", res.WallSeconds*1e3), "-",
		fmt.Sprintf("yes (%d tasks restored)", res.ResumedTasks))
	t.AddNote("Faults are deterministic per seed; retried memory-block recomputation is idempotent, so every surviving row is bit-identical to the serial reference.")
	return t, nil
}
