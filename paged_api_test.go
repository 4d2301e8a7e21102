package cellnpdp

import (
	"path/filepath"
	"strings"
	"testing"
)

func assertTablesEqual(t *testing.T, ref, got *Table[float32], label string) {
	t.Helper()
	n := ref.Len()
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			a, _ := ref.At(i, j)
			b, _ := got.At(i, j)
			if a != b {
				t.Fatalf("%s: cell (%d,%d) differs: %v vs %v", label, i, j, a, b)
			}
		}
	}
}

func TestPagedSolveBitIdenticalToSerial(t *testing.T) {
	const n = 256
	ref := buildRandom(t, n, 77)
	if _, err := Solve(ref, Options{Engine: Serial}); err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{Tiled, Parallel} {
		got := buildRandom(t, n, 77)
		// Small memory blocks (16×16 tiles → 136 blocks at n=256) plus a
		// budget well below the full table footprint force real paging.
		est, err := EstimateSolve[float32](n, Options{Engine: eng, BlockBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(got, Options{Engine: eng, Workers: 2, BlockBytes: 1024, MemoryBudget: est.TableBytes / 4})
		if err != nil {
			t.Fatalf("%v paged: %v", eng, err)
		}
		if !res.Paged || res.PagerStats == nil {
			t.Fatalf("%v: result not marked paged: %+v", eng, res)
		}
		if res.PagerStats.SpilledBlocks == 0 {
			t.Errorf("%v: budget %d below table %d but nothing spilled", eng, est.TableBytes/4, est.TableBytes)
		}
		assertTablesEqual(t, ref, got, eng.String()+" paged")
	}
}

func TestPagedSolveHealsInjectedTornWrites(t *testing.T) {
	const n = 192
	ref := buildRandom(t, n, 9)
	if _, err := Solve(ref, Options{Engine: Serial}); err != nil {
		t.Fatal(err)
	}
	got := buildRandom(t, n, 9)
	res, err := Solve(got, Options{
		Engine: Parallel, Workers: 2,
		BlockBytes:     1024,
		MemoryBudget:   16 * 1024,
		DiskFaultRate:  0.05,
		DiskFaultSeed:  3,
		DiskFaultKinds: "torn,flip",
	})
	if err != nil {
		t.Fatalf("paged solve under torn writes: %v", err)
	}
	assertTablesEqual(t, ref, got, "paged+torn")
	if res.PagerStats.FaultedPages > 0 && res.PagerStats.PageHeals == 0 {
		t.Errorf("faults fired (%d) but nothing healed: %+v", res.PagerStats.FaultedPages, res.PagerStats)
	}
}

func TestPagedSolveResumesFromSpill(t *testing.T) {
	const n = 128
	ref := buildRandom(t, n, 4)
	if _, err := Solve(ref, Options{Engine: Serial}); err != nil {
		t.Fatal(err)
	}
	spill := filepath.Join(t.TempDir(), "solve.npsp")
	first := buildRandom(t, n, 4)
	if _, err := Solve(first, Options{Engine: Parallel, Workers: 2, BlockBytes: 1024, MemoryBudget: 16 * 1024, SpillPath: spill}); err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, ref, first, "first paged run")
	// Second run resumes from the fully-solved spill: every task is
	// recovered, nothing recomputes, and the answer still matches.
	second := buildRandom(t, n, 4)
	res, err := Solve(second, Options{Engine: Parallel, Workers: 2, BlockBytes: 1024, MemoryBudget: 16 * 1024, SpillPath: spill, ResumeSpill: true})
	if err != nil {
		t.Fatalf("resume from solved spill: %v", err)
	}
	if res.ResumedTasks == 0 {
		t.Error("no tasks recovered from a fully-solved spill file")
	}
	assertTablesEqual(t, ref, second, "resumed paged run")
}

func TestPagedSolveRejectsBadCombos(t *testing.T) {
	tbl := buildRandom(t, 32, 1)
	cases := []struct {
		opts Options
		want string
	}{
		{Options{Engine: Serial, MemoryBudget: 1 << 20}, "Tiled and Parallel"},
		{Options{Engine: Cell, MemoryBudget: 1 << 20}, "Tiled and Parallel"},
		{Options{Engine: Parallel, SpillPath: "x.npsp"}, "positive MemoryBudget"},
		{Options{Engine: Parallel, ResumeSpill: true}, "positive MemoryBudget"},
		{Options{Engine: Parallel, MemoryBudget: 1 << 20, ResumeSpill: true}, "requires SpillPath"},
		{Options{Engine: Parallel, MemoryBudget: 1 << 20, CheckpointPath: "c.ckpt"}, "incompatible"},
		{Options{Engine: Parallel, MemoryBudget: 1 << 20, ResumePath: "c.ckpt"}, "incompatible"},
		{Options{Engine: Parallel, DiskFaultRate: 0.5}, "requires MemoryBudget"},
		{Options{Engine: Parallel, MemoryBudget: 1 << 20, DiskFaultKinds: "bogus"}, "unknown disk fault"},
	}
	for _, tc := range cases {
		_, err := Solve(tbl.Clone(), tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("opts %+v: error %v, want substring %q", tc.opts, err, tc.want)
		}
	}
	// Fault injection and online audits combine with a memory budget:
	// the paged store runs the same executor and recovery ladder.
	ref := tbl.Clone()
	if _, err := Solve(ref, Options{Engine: Serial}); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Engine: Parallel, MemoryBudget: 1 << 20, FaultRate: 0.5, MaxRetries: 16},
		{Engine: Parallel, MemoryBudget: 1 << 20, AuditEvery: 4},
	} {
		got := tbl.Clone()
		if _, err := Solve(got, opts); err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		assertTablesEqual(t, ref, got, "paged with faults or audits")
	}
}

// TestPagedHealCountersTrackConeRecompute pins the paged Result's heal
// counters to the shared ladder: HealRounds and RecomputedTasks are
// positive exactly when a corrupt page forced a cone recompute (seen
// independently as extra relaxations), and stay 0 when only page-in read
// retries fired.
func TestPagedHealCountersTrackConeRecompute(t *testing.T) {
	const n = 192
	base := buildRandom(t, n, 5)
	ref := base.Clone()
	clean, err := Solve(ref, Options{Engine: Parallel, Workers: 1, BlockBytes: 1024, MemoryBudget: 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	sawCone, sawRetryOnly := false, false
	for seed := int64(1); seed <= 200 && !(sawCone && sawRetryOnly); seed++ {
		got := base.Clone()
		res, err := Solve(got, Options{
			Engine: Parallel, Workers: 1,
			BlockBytes:     1024,
			MemoryBudget:   16 * 1024,
			DiskFaultRate:  0.02,
			DiskFaultSeed:  seed,
			DiskFaultKinds: "torn,flip",
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertTablesEqual(t, ref, got, "paged under torn writes and flips")
		recomputed := res.Relaxations > clean.Relaxations
		if (res.HealRounds > 0) != recomputed || (res.RecomputedTasks > 0) != recomputed || (res.CorruptBlocks > 0) != recomputed {
			t.Fatalf("seed %d: recomputed=%v but HealRounds=%d RecomputedTasks=%d CorruptBlocks=%d (pager %+v)",
				seed, recomputed, res.HealRounds, res.RecomputedTasks, res.CorruptBlocks, *res.PagerStats)
		}
		sawCone = sawCone || recomputed
		sawRetryOnly = sawRetryOnly || (!recomputed && res.PagerStats.PageHeals > 0)
	}
	if !sawCone || !sawRetryOnly {
		t.Fatalf("seed search found cone recompute=%v, retry-only heal=%v; want both", sawCone, sawRetryOnly)
	}
}

func TestEstimateSolveReportsSpill(t *testing.T) {
	est, err := EstimateSolve[float32](512, Options{Engine: Parallel})
	if err != nil {
		t.Fatal(err)
	}
	if est.SpillFileBytes <= est.TableBytes {
		t.Errorf("spill file %d B not larger than table %d B (two regions + header)", est.SpillFileBytes, est.TableBytes)
	}
	budget := est.TableBytes / 8
	capped, err := EstimateSolve[float32](512, Options{Engine: Parallel, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if capped.FootprintBytes >= est.FootprintBytes {
		t.Errorf("budgeted footprint %d not below full footprint %d", capped.FootprintBytes, est.FootprintBytes)
	}
}
