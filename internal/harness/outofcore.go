package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"cellnpdp/internal/cachesim"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/pager"
	"cellnpdp/internal/stats"
	"cellnpdp/internal/tri"
)

// The outofcore experiment characterizes the
// crash-consistent block pager (internal/pager): how much disk traffic
// a solve does as the resident-set budget shrinks below the table
// footprint, how far that traffic sits above the De Stefani/Gupta I/O
// lower bound (cachesim.IOLowerBound). Every run is verified bit-identical to SolveSerial.

// ooTileSide matches the failover experiment's tile: small enough that
// modest instances produce hundreds of blocks to page.
const ooTileSide = 24

// ooWorkers is the paged-solve worker count; the minimum viable frame
// budget is workers*3+2 (see the engine's pinning discipline).
const ooWorkers = 4

// ooBlocks is the block count of the out-of-core instance at size n.
func ooBlocks(n int) int {
	m := (n + ooTileSide - 1) / ooTileSide
	return m * (m + 1) / 2
}

// ooFrameBytes is one spill slot: tile² float32 cells + CRC trailer.
func ooFrameBytes() int64 { return int64(ooTileSide)*int64(ooTileSide)*4 + 4 }

// ooRun is one measured paged solve at a fixed resident budget.
type ooRun struct {
	budget int64 // resident budget in bytes
	frames int
	secs   float64
	stats  pager.Stats
	bound  int64 // De Stefani/Gupta I/O lower bound at this budget
}

// runOutOfCore solves the standard instance through the pager with the
// given frame budget and verifies the materialized table bit-identical
// to the serial reference.
func runOutOfCore(ctx context.Context, cfg Config, n, frames int, ref *tri.RowMajor[float32]) (ooRun, error) {
	dir, err := os.MkdirTemp("", "cellnpdp-ooc-")
	if err != nil {
		return ooRun{}, err
	}
	defer os.RemoveAll(dir)

	src := tri.ToTiled(cfg.chainF32(n), ooTileSide)
	p, err := pager.Create(filepath.Join(dir, "solve.npsp"), src, pager.Options{Frames: frames})
	if err != nil {
		return ooRun{}, err
	}
	defer p.Close()

	run := ooRun{budget: int64(frames) * ooFrameBytes(), frames: frames}
	run.secs = timeIt(func() {
		_, err = npdp.SolvePagedCtx(ctx, p, npdp.PagedOptions{Workers: ooWorkers})
	})
	if err != nil {
		return ooRun{}, err
	}
	run.stats = p.Stats()
	run.bound = cachesim.IOLowerBound(n, 4, run.budget)

	got := tri.NewTiled[float32](n, ooTileSide)
	if err := p.Materialize(got); err != nil {
		return ooRun{}, err
	}
	if i, j, a, b, diff := tri.FirstDiff[float32](ref, got); diff {
		return ooRun{}, fmt.Errorf("paged solve (frames=%d) diverged at (%d,%d): %v vs %v", frames, i, j, a, b)
	}
	return run, nil
}

// ooSweepFrames returns the resident-set sweep: the full block count
// (everything fits; the pager never spills) down through 1/4 and 1/8
// of it, floored at the engine's minimum working set.
func ooSweepFrames(n int) []int {
	nb := ooBlocks(n)
	min := ooWorkers*3 + 2
	sweep := []int{nb}
	for _, div := range []int{4, 8} {
		f := nb / div
		if f < min {
			f = min
		}
		if f != sweep[len(sweep)-1] {
			sweep = append(sweep, f)
		}
	}
	return sweep
}

// OutOfCore is the experiment entry point (see OutOfCoreCtx).
func OutOfCore(cfg Config) (*stats.Table, error) {
	return OutOfCoreCtx(context.Background(), cfg)
}

// OutOfCoreCtx renders the out-of-core characterization table: the
// resident-set budget swept below the table footprint, achieved disk
// traffic against the De Stefani/Gupta I/O lower bound, and
// bit-identity with the serial engine at every point.
func OutOfCoreCtx(ctx context.Context, cfg Config) (*stats.Table, error) {
	// The sweep needs enough blocks that an eighth of them still clears
	// the engine's minimum working set, so n has its own floor.
	n := 600
	ref := cfg.chainF32(n)
	npdp.SolveSerial(ref)

	t := stats.NewTable(
		fmt.Sprintf("Out-of-core paging — resident budget vs disk traffic (n=%d, tile=%d, %d blocks)",
			n, ooTileSide, ooBlocks(n)),
		"resident frames", "budget KiB", "spilled KiB", "fetched KiB", "traffic KiB", "bound KiB", "ratio", "wall ms", "verified")

	for _, frames := range ooSweepFrames(n) {
		run, err := runOutOfCore(ctx, cfg, n, frames, ref)
		if err != nil {
			return nil, err
		}
		ratio := "—"
		if run.bound > 0 {
			ratio = fmt.Sprintf("%.2f", float64(run.stats.DiskBytes())/float64(run.bound))
		}
		t.AddRow(fmt.Sprint(frames), fmt.Sprintf("%.0f", float64(run.budget)/1024),
			fmt.Sprintf("%.0f", float64(run.stats.SpilledBytes)/1024),
			fmt.Sprintf("%.0f", float64(run.stats.FetchedBytes)/1024),
			fmt.Sprintf("%.0f", float64(run.stats.DiskBytes())/1024),
			fmt.Sprintf("%.0f", float64(run.bound)/1024),
			ratio, fmt.Sprintf("%.2f", run.secs*1e3), "yes")
	}
	return t, nil
}
