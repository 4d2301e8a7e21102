package npdp

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"cellnpdp/internal/pager"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

// TestStoreMatrixMatchesSerial is the differential test over stores ×
// options: the one executor over a MemStore and over a pager holding a
// quarter of the blocks, at 1 and 4 workers, scheduling sides 1 and 2,
// under each fault model, on ragged sizes. Every case is bit-identical
// to SolveSerial; only silent corruption without Heal may instead fail,
// and then only with a typed *resilience.CorruptionError.
func TestStoreMatrixMatchesSerial(t *testing.T) {
	faults := []struct {
		name       string
		set        func(*ParallelOptions)
		torn       bool // disk faults: pager only
		mayCorrupt bool
		fired      int // cases where the fault was detected
	}{
		{name: "none", set: func(*ParallelOptions) {}},
		{name: "error10%+retry", set: func(o *ParallelOptions) {
			o.Inject = &resilience.Injector{Rate: 0.1, Seed: 3, Kinds: []resilience.FaultKind{resilience.FaultError}}
			o.Retry = resilience.RetryPolicy{MaxRetries: 5}
		}},
		{name: "corrupt5%+heal", set: func(o *ParallelOptions) {
			o.Inject = corruptInjector(0.05, 5)
			o.Heal = true
		}},
		{name: "corrupt10%", set: func(o *ParallelOptions) {
			o.Inject = corruptInjector(0.1, 7)
			o.Seal = true
		}, mayCorrupt: true},
		{name: "torn5%", set: func(*ParallelOptions) {}, torn: true},
	}
	const tile = 16
	dir := t.TempDir()
	cases := 0
	for _, n := range []int{97, 200} {
		src := workload.Chain[float32](n, int64(n))
		ref := solveRef(src)
		for _, paged := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				for _, g := range []int{1, 2} {
					for fi := range faults {
						f := &faults[fi]
						if f.torn && !paged {
							continue
						}
						name := fmt.Sprintf("n=%d/paged=%v/workers=%d/g=%d/%s", n, paged, workers, g, f.name)
						var hs resilience.HealStats
						opts := ParallelOptions{Workers: workers, SchedSide: g, HealStats: &hs}
						f.set(&opts)
						cases++
						spill := filepath.Join(dir, fmt.Sprintf("case%d.npsp", cases))
						got, err := solveMatrixCase(src, tile, paged, f.torn, spill, opts)
						var ce *resilience.CorruptionError
						switch {
						case err == nil:
							if i, j, av, bv, diff := tri.FirstDiff[float32](ref, got); diff {
								t.Fatalf("%s: diverged at (%d,%d): serial=%v got=%v", name, i, j, av, bv)
							}
						case f.mayCorrupt && errors.As(err, &ce):
						default:
							t.Fatalf("%s: %v", name, err)
						}
						if hs.CorruptBlocks > 0 {
							f.fired++
						}
					}
				}
			}
		}
	}
	for _, f := range faults[2:] {
		if f.fired == 0 {
			t.Errorf("%s: no case detected a corruption; the matrix passed vacuously", f.name)
		}
	}
}

// solveMatrixCase runs one matrix case on a fresh copy of src and
// returns the solved table: a tiled copy in memory, or a row-major one
// the paged solve streams its blocks from and back into.
func solveMatrixCase(src *tri.RowMajor[float32], tile int, paged, torn bool, spill string, opts ParallelOptions) (tri.Table[float32], error) {
	if !paged {
		tt := tri.ToTiled(src, tile)
		_, err := SolveParallel(tt, opts)
		return tt, err
	}
	m := (src.Len() + tile - 1) / tile
	po := pager.Options{Frames: m * (m + 1) / 2 / 4}
	if torn {
		po.Faults = &pager.DiskFaults{Rate: 0.05, Seed: 11, Kinds: []pager.DiskFaultKind{pager.DiskFaultTorn}}
	}
	p, err := pager.CreateFromRows(spill, src, tile, po)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	out := src.Clone()
	_, err = SolvePagedTableCtx(context.Background(), p, out, opts)
	return out, err
}
