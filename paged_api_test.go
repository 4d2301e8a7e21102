package cellnpdp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cellnpdp/internal/pager"
	"cellnpdp/internal/resilience"
)

func assertTablesEqual[E Elem](t *testing.T, ref, got *Table[E], label string) {
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

// TestPagedSolveBitIdenticalToSerial pages both out-of-core engines
// through a quarter-table budget: at n=256 float32 the table cuts into
// whole 16-cell tiles; at n=250 the last tile is ragged, at float32
// (16-cell tiles) and float64 (8-cell tiles), so the block-by-block
// spill writes and copy-out meet padding.
func TestPagedSolveBitIdenticalToSerial(t *testing.T) {
	checkPagedBitIdentical[float32](t, 256)
	checkPagedBitIdentical[float32](t, 250)
	checkPagedBitIdentical[float64](t, 250)
}

func checkPagedBitIdentical[E Elem](t *testing.T, n int) {
	t.Helper()
	build := func() *Table[E] {
		tbl, err := NewTable[E](n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		for i := 0; i+1 < n; i++ {
			if err := tbl.Set(i, i+1, E(1+rng.Float64()*99)); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}
	ref := build()
	if _, err := Solve(ref, Options{Engine: Serial}); err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{Tiled, Parallel} {
		got := build()
		label := fmt.Sprintf("%v paged n=%d %T", eng, n, E(0))
		// Small memory blocks (1 KiB) plus a budget well below the full
		// table footprint force real paging.
		est, err := EstimateSolve[E](n, Options{Engine: eng, BlockBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(got, Options{Engine: eng, Workers: 2, BlockBytes: 1024, MemoryBudget: est.TableBytes / 4})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !res.Paged || res.PagerStats == nil {
			t.Fatalf("%s: result not marked paged: %+v", label, res)
		}
		if res.PagerStats.SpilledBlocks == 0 {
			t.Errorf("%s: budget %d below table %d but nothing spilled", label, est.TableBytes/4, est.TableBytes)
		}
		assertTablesEqual(t, ref, got, label)
	}
}

// TestPrivateSpillIsScratch: a paged solve without a CheckpointPath spills
// to a private temp file that nothing can reopen, so it commits no
// index, and it leaves nothing behind in the temp dir.
func TestPrivateSpillIsScratch(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	const n = 256
	ref := buildRandom(t, n, 3)
	if _, err := Solve(ref, Options{Engine: Serial}); err != nil {
		t.Fatal(err)
	}
	got := buildRandom(t, n, 3)
	res, err := Solve(got, Options{Engine: Parallel, Workers: 2, BlockBytes: 1024, MemoryBudget: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, ref, got, "private paged")
	if st := res.PagerStats; st.SpilledBlocks == 0 || st.Commits != 0 {
		t.Errorf("private spill wrote %d blocks and committed %d times; want spills and no commit", st.SpilledBlocks, st.Commits)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("private spill left %s in the temp dir", e.Name())
	}
}

// TestPagedSolveAllocatesLessThanOneTable: the spill file is written
// from the caller's table and the result copied back into it block by
// block, so a paged solve under a quarter-table budget allocates less
// than one tiled table in all (frames, slot buffers, the task graph).
func TestPagedSolveAllocatesLessThanOneTable(t *testing.T) {
	const n = 1024
	est, err := EstimateSolve[float32](n, Options{Engine: Parallel})
	if err != nil {
		t.Fatal(err)
	}
	tbl := buildRandom(t, n, 5)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := SolveCtx(context.Background(), tbl, Options{Engine: Parallel, Workers: 2, MemoryBudget: est.TableBytes / 4})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.PagerStats.SpilledBlocks == 0 {
		t.Fatal("the quarter-table budget spilled nothing")
	}
	grew := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("paged solve allocated %d B; one tiled table is %d B", grew, est.TableBytes)
	if grew >= est.TableBytes {
		t.Errorf("paged solve allocated %d B, want less than one tiled table (%d B)", grew, est.TableBytes)
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
	if _, err := Solve(first, Options{Engine: Parallel, Workers: 2, BlockBytes: 1024, MemoryBudget: 16 * 1024, CheckpointPath: spill}); err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, ref, first, "first paged run")
	// Second run resumes from the fully-solved spill: every task is
	// recovered, nothing recomputes, and the answer still matches.
	second := buildRandom(t, n, 4)
	res, err := Solve(second, Options{Engine: Parallel, Workers: 2, BlockBytes: 1024, MemoryBudget: 16 * 1024, CheckpointPath: spill, Resume: true})
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
		{Options{Engine: Parallel, MemoryBudget: -1}, "non-negative"},
		{Options{Engine: Parallel, Resume: true}, "Resume requires CheckpointPath"},
		{Options{Engine: Parallel, MemoryBudget: 1 << 20, Resume: true}, "Resume requires CheckpointPath"},
		{Options{Engine: Parallel, DiskFaultRate: 0.5}, "requires MemoryBudget"},
		{Options{Engine: Parallel, MemoryBudget: 1 << 20, DiskFaultKinds: "bogus"}, "unknown disk fault"},
	}
	for _, tc := range cases {
		_, err := Solve(tbl.Clone(), tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("opts %+v: error %v, want substring %q", tc.opts, err, tc.want)
		}
	}
	// Fault injection, online audits and a checkpoint combine with a
	// memory budget: the paged store runs the same executor and recovery
	// ladder, and the checkpoint is the spill file, which the last case
	// resumes.
	ref := tbl.Clone()
	if _, err := Solve(ref, Options{Engine: Serial}); err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "solve.npsp")
	for _, opts := range []Options{
		{Engine: Parallel, MemoryBudget: 1 << 20, FaultRate: 0.5, MaxRetries: 16},
		{Engine: Parallel, MemoryBudget: 1 << 20, AuditEvery: 4},
		{Engine: Parallel, MemoryBudget: 1 << 20, CheckpointPath: ck},
		{Engine: Parallel, MemoryBudget: 1 << 20, CheckpointPath: ck, Resume: true},
	} {
		got := tbl.Clone()
		if _, err := Solve(got, opts); err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		assertTablesEqual(t, ref, got, "paged with faults, audits or a checkpoint")
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

// TestPagedSpillResumeNeverTrustsCorruptBlock is the public-API
// kill-and-resume cycle under silent corruption: a paged solve into a
// named spill file, with corrupt faults injected and healing on, is cut
// off by a deadline; a second solve resumes from the spill file. The
// spill index must vouch only for the bytes the tasks computed, so the
// resume matches Serial or fails typed in every seed. The deadlines
// spread over one timed uncut run, so the cuts land mid-solve however
// fast the host is.
func TestPagedSpillResumeNeverTrustsCorruptBlock(t *testing.T) {
	const n, seeds = 768, 12
	ref := buildRandom(t, n, 768)
	if _, err := Solve(ref, Options{Engine: Serial}); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Engine: Parallel, Workers: 2, BlockBytes: 4096, MemoryBudget: 64 << 10,
		Heal: true,
	}
	faulted := func(seed int64, spill string) Options {
		o := opts
		o.CheckpointPath, o.FaultKinds, o.FaultRate, o.FaultSeed = spill, "corrupt", 0.2, seed
		return o
	}
	start := time.Now()
	if _, err := Solve(buildRandom(t, n, 768), faulted(0, filepath.Join(t.TempDir(), "uncut.npsp"))); err != nil {
		t.Fatal(err)
	}
	uncut := time.Since(start)
	resumed := 0
	for seed := int64(1); seed <= seeds; seed++ {
		spill := filepath.Join(t.TempDir(), "solve.npsp")
		ctx, cancel := context.WithTimeout(context.Background(), uncut*time.Duration(seed)/(seeds+1))
		_, err := SolveCtx(ctx, buildRandom(t, n, 768), faulted(seed, spill))
		cancel()
		if err == nil {
			t.Logf("seed %d: first run finished before its deadline", seed)
		}
		second := opts
		second.CheckpointPath, second.Resume = spill, true
		got := buildRandom(t, n, 768)
		res, err := Solve(got, second)
		var pe *pager.ErrPageCorrupt
		var ce *resilience.CorruptionError
		switch {
		case err == nil:
			assertTablesEqual(t, ref, got, fmt.Sprintf("seed %d resumed", seed))
			if res.ResumedTasks > 0 {
				resumed++
			}
		case errors.As(err, &pe), errors.As(err, &ce):
			t.Logf("seed %d: typed failure: %v", seed, err)
		default:
			t.Fatalf("seed %d: resume: %v; want success or a typed corruption error", seed, err)
		}
	}
	t.Logf("%d of %d seeds resumed tasks (uncut run %v)", resumed, seeds, uncut)
}
