package harness

import (
	"errors"
	"fmt"

	"cellnpdp/internal/npdp"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/stats"
	"cellnpdp/internal/tri"
)

// SelfHeal characterizes the block-sealing layer on the parallel engine:
// silent bit flips injected into completed memory blocks are detected by
// the CRC32C seal audit and repaired by recomputing only the poisoned
// cone. Rows cover a single isolated corruption (showing the cone is a
// strict subset of the task graph), a sustained 5% corruption rate, and
// the detect-only mode where healing is disabled and the solve must fail
// loudly instead of returning silently wrong bytes. Every healed row is
// verified bit-identical against the serial reference.
func SelfHeal(cfg Config) (*stats.Table, error) {
	// Same sizing policy as Resilience: corruption-recovery overhead is
	// size-stable, so stay at a few hundred points even in full mode.
	n := 600
	if sizes := cfg.measuredSizes(); sizes[len(sizes)-1] < n {
		n = sizes[len(sizes)-1]
	}
	tile := paperTile(npdp.Single)
	ref := cfg.chainF32(n)
	npdp.SolveSerial(ref)

	totalTasks := 0
	// solve runs one sealed parallel solve and verifies it bit-identical.
	solve := func(rate float64, seed int64, heal bool) (secs float64, hs resilience.HealStats, err error) {
		src := cfg.chainF32(n)
		tt := tri.ToTiled(src, tile)
		m := tt.Blocks()
		totalTasks = m * (m + 1) / 2
		opts := npdp.ParallelOptions{
			Workers: cfg.workers(), SchedSide: 1,
			Seal: true, Heal: heal, HealStats: &hs,
		}
		if rate > 0 {
			opts.Inject = &resilience.Injector{
				Rate: rate, Seed: seed,
				Kinds: []resilience.FaultKind{resilience.FaultCorrupt},
			}
		}
		secs = timeIt(func() { _, err = npdp.SolveParallel(tt, opts) })
		if err != nil {
			return 0, hs, err
		}
		tri.Copy(src, tt)
		if i, j, a, b, diff := tri.FirstDiff[float32](ref, src); diff {
			return 0, hs, fmt.Errorf("healed solve diverged at (%d,%d): %v vs %v", i, j, a, b)
		}
		return secs, hs, nil
	}

	t := stats.NewTable(fmt.Sprintf("Self-healing — silent corruption detected by block seals and repaired by cone recompute (n=%d)", n),
		"Scenario", "Corrupt", "Rounds", "Recomputed", "Wall (ms)", "Verified")

	clean, hs, err := solve(0, 0, true)
	if err != nil {
		return nil, err
	}
	if hs.CorruptBlocks != 0 {
		return nil, fmt.Errorf("clean sealed solve reported %d corrupt blocks", hs.CorruptBlocks)
	}
	t.AddRow("sealed, no faults", "0", "0", "-", fmt.Sprintf("%.2f", clean*1e3), "yes")

	// Single isolated corruption: search seeds deterministically for a run
	// where exactly one block corrupts and one heal round repairs it, the
	// cleanest demonstration that healing recomputes a strict subset of
	// the task graph rather than restarting the solve.
	single := false
	for seed := int64(1); seed <= 1000; seed++ {
		secs, hs, err := solve(0.01, seed, true)
		if err != nil {
			return nil, err
		}
		if hs.CorruptBlocks != 1 || hs.HealRounds != 1 || hs.CheckpointFallback {
			continue
		}
		if hs.RecomputedTasks >= totalTasks {
			return nil, fmt.Errorf("single-corruption heal recomputed %d of %d tasks — cone is not a strict subset",
				hs.RecomputedTasks, totalTasks)
		}
		t.AddRow("1 corruption, healed", "1", "1",
			fmt.Sprintf("%d/%d tasks", hs.RecomputedTasks, totalTasks),
			fmt.Sprintf("%.2f", secs*1e3), "yes")
		single = true
		break
	}
	if !single {
		return nil, errors.New("no seed in 1..1000 produced a single isolated corruption")
	}

	// Sustained 5% corruption rate: heal rounds iterate until the audit
	// comes back clean; the result must still be bit-identical. At tiny
	// test sizes the task graph is small enough that a given seed may
	// inject nothing, so search deterministically for one that does.
	rateSeed := int64(-1)
	for seed := cfg.Seed + 13; seed < cfg.Seed+13+1000; seed++ {
		secs, hs, err := solve(0.05, seed, true)
		if err != nil {
			return nil, err
		}
		if hs.CorruptBlocks == 0 {
			continue
		}
		t.AddRow("5% rate, healed", fmt.Sprint(hs.CorruptBlocks), fmt.Sprint(hs.HealRounds),
			fmt.Sprintf("%d/%d tasks", hs.RecomputedTasks, totalTasks),
			fmt.Sprintf("%.2f", secs*1e3), "yes")
		rateSeed = seed
		break
	}
	if rateSeed < 0 {
		return nil, errors.New("no seed produced corruption at rate 0.05")
	}

	// Detect-only: sealing without healing must surface the corruption as
	// an error — never a silently wrong table.
	_, _, err = solve(0.05, rateSeed, false)
	var ce *resilience.CorruptionError
	if !errors.As(err, &ce) {
		return nil, fmt.Errorf("detect-only run: want *resilience.CorruptionError, got %v", err)
	}
	t.AddRow("5% rate, heal off", fmt.Sprint(len(ce.Blocks)), "0", "-", "-", "error surfaced")

	t.AddNote("Corruption is a deterministic bit flip per (seed, task, attempt) applied after the block's seal CRC is computed; the audit therefore always detects it, and healing resets exactly the corrupted block plus its transitive consumers.")
	return t, nil
}
