package npdp

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"cellnpdp/internal/pager"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

func pagedSolveToRowMajor[E semiring.Elem](t *testing.T, p *pager.Pager[E], opts PagedOptions) *tri.RowMajor[E] {
	t.Helper()
	if _, err := SolvePagedCtx(context.Background(), p, opts); err != nil {
		t.Fatalf("SolvePagedCtx: %v", err)
	}
	out := tri.NewTiled[E](p.Len(), p.Tile())
	if err := p.Materialize(out); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	return tri.ToRowMajor(out)
}

func checkPagedParity[E semiring.Elem](t *testing.T, src *tri.RowMajor[E], tile, frames, workers int) {
	t.Helper()
	ref := solveRef(src)
	tt := tri.ToTiled(src, tile)
	path := filepath.Join(t.TempDir(), "solve.npsp")
	p, err := pager.Create(path, tt, pager.Options{Frames: frames})
	if err != nil {
		t.Fatalf("pager.Create: %v", err)
	}
	defer p.Close()
	got := pagedSolveToRowMajor(t, p, PagedOptions{Workers: workers})
	if i, j, av, bv, diff := tri.FirstDiff[E](ref, got); diff {
		t.Fatalf("n=%d tile=%d frames=%d workers=%d: first diff at (%d,%d): serial=%v paged=%v",
			src.Len(), tile, frames, workers, i, j, av, bv)
	}
	if st := p.Stats(); frames < tt.Blocks() && st.SpilledBlocks == 0 {
		t.Errorf("frames=%d < blocks=%d but nothing spilled", frames, tt.Blocks())
	}
}

func TestPagedMatchesSerial(t *testing.T) {
	for _, n := range []int{16, 33, 64, 100, 129} {
		for _, tile := range []int{4, 8, 16} {
			src := workload.Chain[float32](n, int64(n*31+tile))
			// Frames well below the block count: the solve must page.
			checkPagedParity(t, src, tile, 6, 1)
			checkPagedParity(t, src, tile, 6, 4)
		}
	}
}

func TestPagedMatchesSerialF64(t *testing.T) {
	src := workload.Dense[float64](96, 7)
	checkPagedParity(t, src, 8, 5, 3)
}

func TestPagedHealsTornWrites(t *testing.T) {
	// A low-rate torn-write injector: some spilled finals page back in
	// corrupt; the solve must demote the cone, recompute, and still match
	// the serial answer bit-for-bit. A torn spill that no consumer reads
	// back, such as the last block's, shows up only when the table is
	// materialized, so the solve and the copy run under one recovery
	// ladder (SolvePagedTableCtx), as SolveCtx runs them.
	src := workload.Chain[float32](96, 1234)
	ref := solveRef(src)
	tt := tri.ToTiled(src, 8)
	path := filepath.Join(t.TempDir(), "solve.npsp")
	p, err := pager.Create(path, tt, pager.Options{
		Frames: 5,
		Faults: &pager.DiskFaults{Rate: 0.05, Seed: 42, Kinds: []pager.DiskFaultKind{pager.DiskFaultTorn}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	out := src.Clone()
	if _, err := SolvePagedTableCtx(context.Background(), p, out, PagedOptions{Workers: 4, Logf: t.Logf}); err != nil {
		t.Fatalf("SolvePagedTableCtx: %v", err)
	}
	if i, j, av, bv, diff := tri.FirstDiff[float32](ref, out); diff {
		t.Fatalf("first diff at (%d,%d): serial=%v paged=%v", i, j, av, bv)
	}
	if st := p.Stats(); st.FaultedPages == 0 {
		t.Skip("fault schedule hit no page-in this run; schedule-dependent under concurrency")
	} else if st.PageHeals == 0 {
		t.Errorf("faulted pages (%d) but no heals recorded: %+v", st.FaultedPages, st)
	}
}

func TestPagedHealsBitFlips(t *testing.T) {
	// Bit flips and EIO on 5% of page-ins through a 4-frame working set.
	// A final page that faults heals through its cone; a pristine page
	// whose every read within its retry budget fails has no earlier
	// version, so the solve fails by design. Which one a seed meets depends on scheduling, so every seed
	// must match serial bit for bit or fail with a pristine
	// *pager.ErrPageCorrupt, and some seed must heal a fault and match.
	src := workload.Dense[float32](64, 99)
	ref := solveRef(src)
	healed := 0
	for seed := int64(1); seed <= 8; seed++ {
		p, err := pager.Create(filepath.Join(t.TempDir(), "solve.npsp"), tri.ToTiled(src, 8), pager.Options{
			Frames: 4,
			Faults: &pager.DiskFaults{Rate: 0.05, Seed: seed, Kinds: []pager.DiskFaultKind{pager.DiskFaultFlip, pager.DiskFaultEIO}},
		})
		if err != nil {
			t.Fatal(err)
		}
		out := src.Clone()
		_, err = SolvePagedTableCtx(context.Background(), p, out, PagedOptions{Workers: 2, Logf: t.Logf})
		faulted := p.Stats().FaultedPages
		p.Close()
		var pe *pager.ErrPageCorrupt
		switch {
		case err == nil:
			if i, j, av, bv, diff := tri.FirstDiff[float32](ref, out); diff {
				t.Fatalf("seed %d: first diff at (%d,%d): serial=%v paged=%v", seed, i, j, av, bv)
			}
			if faulted > 0 {
				healed++
			}
		case errors.As(err, &pe) && pe.Pristine:
			t.Logf("seed %d: %v", seed, err)
		default:
			t.Fatalf("seed %d: %v; want success or a pristine *pager.ErrPageCorrupt", seed, err)
		}
	}
	if healed == 0 {
		t.Error("no seed both faulted a page and matched serial")
	}
}

func TestPagedENOSPCDegradesAndStillSolves(t *testing.T) {
	// Total ENOSPC: every spill fails, the pager degrades to resident
	// growth, and the solve still completes correctly fully in memory.
	src := workload.Chain[float32](64, 5)
	ref := solveRef(src)
	tt := tri.ToTiled(src, 8)
	path := filepath.Join(t.TempDir(), "solve.npsp")
	p, err := pager.Create(path, tt, pager.Options{
		Frames: 4,
		Faults: &pager.DiskFaults{Rate: 1, Kinds: []pager.DiskFaultKind{pager.DiskFaultENOSPC}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got := pagedSolveToRowMajor(t, p, PagedOptions{Workers: 2, Logf: t.Logf})
	if i, j, av, bv, diff := tri.FirstDiff[float32](ref, got); diff {
		t.Fatalf("first diff at (%d,%d): serial=%v paged=%v", i, j, av, bv)
	}
	if st := p.Stats(); st.ENOSPCDegradations == 0 {
		t.Error("no ENOSPC degradation recorded under a rate-1 ENOSPC injector")
	}
}

func TestPagedResumeAfterSimulatedKill(t *testing.T) {
	// Partial run in wavefront order, commit, then abandon the pager
	// handle un-Closed — exactly the state SIGKILL leaves behind. A fresh
	// Open + Resume must recover the committed finals, recompute only the
	// remainder, and match the serial answer bit-for-bit.
	src := workload.Dense[float32](96, 321)
	ref := solveRef(src)
	tt := tri.ToTiled(src, 8)
	path := filepath.Join(t.TempDir(), "solve.npsp")
	p, err := pager.Create(path, tt, pager.Options{Frames: 5, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	m := tt.Blocks()
	total := m * (m + 1) / 2
	graph, err := sched.NewGraph(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := newExecutor[float32](p, graph, ParallelOptions{Workers: 1}, false)
	donePartial := 0
	for d := 0; d < m && donePartial < total/3; d++ {
		for bi := 0; bi+d < m && donePartial < total/3; bi++ {
			id, _ := graph.TaskID(bi, bi+d)
			if _, err := x.runTask(graph.Tasks[id], 0); err != nil {
				t.Fatal(err)
			}
			donePartial++
		}
	}
	if err := x.ladder.Commit(); err != nil {
		t.Fatal(err)
	}
	// No Close: the handle is abandoned mid-flight.

	p2, err := pager.Open[float32](path, pager.Options{Frames: 5})
	if err != nil {
		t.Fatalf("Open after simulated kill: %v", err)
	}
	defer p2.Close()
	recovered := 0
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			if p2.IsFinal(bi, bj) {
				recovered++
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no blocks recovered from committed index")
	}
	if recovered >= total {
		t.Fatalf("all %d blocks recovered from a %d-block partial run", recovered, donePartial)
	}
	got := pagedSolveToRowMajor(t, p2, PagedOptions{Workers: 2, Logf: t.Logf})
	if i, j, av, bv, diff := tri.FirstDiff[float32](ref, got); diff {
		t.Fatalf("resumed solve diverged at (%d,%d): serial=%v paged=%v", i, j, av, bv)
	}
}

// TestPagedResumeNeverTrustsCorruptBlock: a sealing run whose injector
// flips a bit in some blocks just after their seals are taken runs half
// the tasks in wavefront order (stopping early if a flipped block pages
// back in and fails its seal, as a crash would), commits through the
// ladder, and is abandoned. The committed index must vouch only for the
// bytes the tasks computed and for nothing computed from a block it
// cannot vouch for, so a resume with Heal and Seal matches the serial
// answer or fails typed in every seed; it never returns a table built
// on a flipped block. The ENOSPC arm runs the same seeds with spill
// writes failing for lack of space, so some final blocks never reach
// disk and stay resident and uncommitted while blocks computed from
// them do reach disk.
func TestPagedResumeNeverTrustsCorruptBlock(t *testing.T) {
	src := workload.Dense[float32](96, 321)
	ref := solveRef(src)
	tt := tri.ToTiled(src, 8)
	m := tt.Blocks()
	graph, err := sched.NewGraph(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	half := len(graph.Tasks) / 2
	for _, arm := range []struct {
		name   string
		faults func(seed int64) *pager.DiskFaults
	}{
		{"disk ok", func(int64) *pager.DiskFaults { return nil }},
		{"enospc", func(seed int64) *pager.DiskFaults {
			return &pager.DiskFaults{Rate: 0.1, Seed: seed, Kinds: []pager.DiskFaultKind{pager.DiskFaultENOSPC}}
		}},
	} {
		checkResumeNeverTrustsCorruptBlock(t, arm.name, tt, graph, ref, half, arm.faults)
	}
}

func checkResumeNeverTrustsCorruptBlock(t *testing.T, arm string, tt *tri.Tiled[float32], graph *sched.Graph, ref *tri.RowMajor[float32], half int, faults func(int64) *pager.DiskFaults) {
	t.Helper()
	m := tt.Blocks()
	resumed := 0
	for seed := int64(1); seed <= 40; seed++ {
		path := filepath.Join(t.TempDir(), "solve.npsp")
		p, err := pager.Create(path, tt, pager.Options{Frames: 5, Durable: true, Faults: faults(seed)})
		if err != nil {
			t.Fatal(err)
		}
		inj := &resilience.Injector{Rate: 0.2, Seed: seed, Kinds: []resilience.FaultKind{resilience.FaultCorrupt}}
		x := newExecutor[float32](p, graph, ParallelOptions{Workers: 1, Inject: inj}, true)
		ran := 0
	partial:
		for d := 0; d < m; d++ {
			for bi := 0; bi+d < m && ran < half; bi++ {
				id, _ := graph.TaskID(bi, bi+d)
				if _, err := x.runTask(graph.Tasks[id], 0); err != nil {
					var pe *pager.ErrPageCorrupt
					if !errors.As(err, &pe) || pe.Pristine {
						t.Fatalf("%s seed %d: partial run: %v", arm, seed, err)
					}
					break partial
				}
				ran++
			}
		}
		if err := x.ladder.Commit(); err != nil {
			t.Fatal(err)
		}
		// No Close: the handle is abandoned mid-flight.

		p2, err := pager.Open[float32](path, pager.Options{Frames: 5})
		if err != nil {
			t.Fatalf("%s seed %d: Open after simulated kill: %v", arm, seed, err)
		}
		for _, done := range Completed[float32](p2, graph) {
			if done {
				resumed++
				break
			}
		}
		_, err = SolvePagedCtx(context.Background(), p2, PagedOptions{Workers: 2, Heal: true, Seal: true})
		out := tri.NewTiled[float32](p2.Len(), p2.Tile())
		if err == nil {
			err = p2.Materialize(out)
		}
		p2.Close()
		p.Discard()
		var pe *pager.ErrPageCorrupt
		var ce *resilience.CorruptionError
		switch {
		case err == nil:
			if i, j, av, bv, diff := tri.FirstDiff[float32](ref, out); diff {
				t.Fatalf("%s seed %d: resumed solve diverged at (%d,%d): serial=%v paged=%v", arm, seed, i, j, av, bv)
			}
		case errors.As(err, &pe), errors.As(err, &ce):
			t.Logf("%s seed %d: typed failure: %v", arm, seed, err)
		default:
			t.Fatalf("%s seed %d: %v; want success or a typed corruption error", arm, seed, err)
		}
	}
	if resumed == 0 {
		t.Fatalf("%s: no seed resumed a committed block; the check is vacuous", arm)
	}
	t.Logf("%s: %d of 40 seeds resumed committed blocks", arm, resumed)
}
