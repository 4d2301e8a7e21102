package pager

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"cellnpdp/internal/tri"
)

// finalCells is the stress test's deterministic final content of a
// block: distinct from its pristine cells in every cell.
func finalCells(src *tri.Tiled[float32], bi, bj int) []float32 {
	out := append([]float32(nil), src.Block(bi, bj)...)
	for i := range out {
		out[i] += 0.5
	}
	return out
}

// TestConcurrentPagerStress drives one durable pager from six
// goroutines through a six-frame budget while reads flip bits and fail,
// spill writes tear, and the committer flushes and commits beside them.
// Each goroutine owns the blocks whose id is its index mod six: it alone
// computes and completes them, and the others read a block only once it
// is final, as the engine's dependences guarantee.
// Every Acquire must return the block's pristine cells (an owned block
// not yet final) or its final cells, or a typed *ErrPageCorrupt. The
// table then materializes with every block pristine or final once each
// corrupt final slot is demoted.
func TestConcurrentPagerStress(t *testing.T) {
	const n, tile, workers, iters, seed = 64, 8, 6, 300, 1
	src := testTable(n, tile)
	p := newTestPager(t, src, Options{
		Frames:  6,
		Durable: true,
		Faults:  &DiskFaults{Rate: 0.05, Seed: seed, Kinds: []DiskFaultKind{DiskFaultFlip, DiskFaultEIO, DiskFaultTorn}},
	})
	commit := func() error { p.Flush(); return p.Commit(everyBlock(p)) }
	m, nb := src.Blocks(), p.NBlocks()
	final := make([][]float32, nb)
	for id := range final {
		bi, bj := blockCoords(m, id)
		final[id] = finalCells(src, bi, bj)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(w)))
			for it := 0; it < iters; it++ {
				if it%4 == 0 {
					p.RequestCommit(commit)
				}
				p.Prefetch(blockCoords(m, rng.Intn(nb)))
				id := rng.Intn(nb)
				bi, bj := blockCoords(m, id)
				owner := id%workers == w
				wantFinal := p.IsFinal(bi, bj)
				if !owner && !wantFinal {
					continue
				}
				cells, err := p.Acquire(bi, bj)
				if err != nil {
					var pe *ErrPageCorrupt
					if !errors.As(err, &pe) {
						errs <- fmt.Errorf("Acquire(%d,%d): untyped error %v", bi, bj, err)
						return
					}
					continue
				}
				switch {
				case wantFinal && !equalCells(cells, final[id]):
					errs <- fmt.Errorf("final block (%d,%d) paged in with other cells", bi, bj)
				case !wantFinal && !equalCells(cells, src.Block(bi, bj)):
					errs <- fmt.Errorf("pristine block (%d,%d) paged in with other cells", bi, bj)
				case !wantFinal:
					copy(cells, final[id])
					if err := p.Complete(bi, bj); err != nil {
						errs <- err
					}
				}
				p.Release(bi, bj)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	out := tri.NewTiled[float32](n, tile)
	for heals := 0; ; heals++ {
		err := p.Materialize(out)
		if err == nil {
			break
		}
		var pe *ErrPageCorrupt
		if !errors.As(err, &pe) || pe.Pristine || heals > nb {
			t.Fatalf("Materialize: %v", err)
		}
		p.Demote(pe.Bi, pe.Bj)
	}
	for id := 0; id < nb; id++ {
		bi, bj := blockCoords(m, id)
		want := src.Block(bi, bj)
		if p.IsFinal(bi, bj) {
			want = final[id]
		}
		if !equalCells(out.Block(bi, bj), want) {
			t.Fatalf("block (%d,%d) materialized with neither its pristine nor its final cells", bi, bj)
		}
	}
	p.mu.Lock()
	committer := p.committer
	p.mu.Unlock()
	if committer != nil {
		<-committer // the commits the workers asked for are all in
	}
	st := p.Stats()
	if st.SpilledBlocks == 0 || st.FetchedBlocks == 0 || st.FaultedPages == 0 || st.Commits == 0 {
		t.Errorf("stress did not exercise spills, final fetches, faults and commits: %+v", st)
	}
}

// TestMaterializeWaitsForPrefetches prefetches every cold block, and
// keeps prefetching while the table is copied out and the pager closes:
// Materialize must wait for a block that is loading rather than copy
// the frame its read will land in, and Close must let the reads finish.
func TestMaterializeWaitsForPrefetches(t *testing.T) {
	const n, tile = 64, 8
	for round := 0; round < 20; round++ {
		src := testTable(n, tile)
		p, err := Create(filepath.Join(t.TempDir(), "t.npsp"), src, Options{Frames: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Spill a few final blocks so some prefetches read final slots.
		want := src.Clone()
		for bi := 0; bi < src.Blocks(); bi += 3 {
			cells, err := p.Acquire(bi, bi)
			if err != nil {
				t.Fatal(err)
			}
			copy(cells, finalCells(src, bi, bi))
			copy(want.Block(bi, bi), cells)
			if err := p.Complete(bi, bi); err != nil {
				t.Fatal(err)
			}
			p.Release(bi, bi)
		}
		m := src.Blocks()
		prefetchAll := func() {
			for bi := m - 1; bi >= 0; bi-- {
				for bj := m - 1; bj >= bi; bj-- {
					p.Prefetch(bi, bj)
				}
			}
		}
		prefetchAll()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					prefetchAll()
				}
			}
		}()
		out := tri.NewTiled[float32](n, tile)
		err = p.Materialize(out)
		if closeErr := p.Close(); err == nil {
			err = closeErr
		}
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !equalCells(out.Cells(), want.Cells()) {
			t.Fatalf("round %d: materialized table differs from the blocks' content", round)
		}
	}
}

// TestMaterializeWaitsForLoadingBlock holds block (0,0) in the loading
// state, as its loader does while it reads the slot: Materialize
// must wait for the load to settle, not copy the recycled frame the
// load claimed, whose cells are another block's.
func TestMaterializeWaitsForLoadingBlock(t *testing.T) {
	src := testTable(40, 8)
	p := newTestPager(t, src, Options{Frames: 4})
	flushFrames(t, p, [2]int{0, 0}) // leaves (0,0) cold and a recycled frame
	p.mu.Lock()
	fr := p.takeFrameLocked()
	fr.id, fr.state = 0, frameLoading
	p.frames[0] = fr
	p.busy++
	p.mu.Unlock()
	out := tri.NewTiled[float32](40, 8)
	done := make(chan error, 1)
	go func() { done <- p.Materialize(out) }()
	var early bool
	select {
	case <-done:
		early = true
	case <-time.After(20 * time.Millisecond):
	}
	// The load fails, as a rejected read does: the block is cold again.
	p.mu.Lock()
	delete(p.frames, 0)
	p.free = append(p.free, fr)
	p.busy--
	p.cond.Broadcast()
	p.mu.Unlock()
	if early {
		t.Fatal("Materialize returned while block (0,0) was loading")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !equalCells(out.Cells(), src.Cells()) {
		t.Fatal("materialized table differs from the source")
	}
}

// TestAcquireWaitsForSpill holds final block (0,0) in the spilling
// state while its slot is written, as an eviction does outside the
// mutex: an Acquire must wait for the write to return, so no caller can
// rewrite and re-Complete the block under a spill that still reads its
// cells. The re-Complete that follows clears the spilled mark, and the
// next eviction writes the new cells, which a page-in then returns.
func TestAcquireWaitsForSpill(t *testing.T) {
	src := testTable(40, 8)
	p := newTestPager(t, src, Options{Frames: 4})
	cells, err := p.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	copy(cells, finalCells(src, 0, 0))
	if err := p.Complete(0, 0); err != nil {
		t.Fatal(err)
	}
	p.Release(0, 0)
	p.mu.Lock()
	fr := p.frames[0]
	fr.state = frameSpilling
	p.busy++
	p.mu.Unlock()
	rerun := finalCells(src, 0, 0)
	for i := range rerun {
		rerun[i]++
	}
	done := make(chan error, 1)
	go func() {
		cells, err := p.Acquire(0, 0)
		if err != nil {
			done <- err
			return
		}
		copy(cells, rerun)
		err = p.Complete(0, 0)
		p.Release(0, 0)
		done <- err
	}()
	var early bool
	select {
	case <-done:
		early = true
	case <-time.After(20 * time.Millisecond):
	}
	// The spill writes the cells and returns, as spillLocked does.
	slot := make([]byte, p.geom.slotBytes())
	encodeSlot(fr.cells, slot)
	if _, err := p.f.WriteAt(slot, p.geom.slotOff(regionFinal, 0)); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	fr.state = frameResident
	p.spilled[0] = true
	p.busy--
	p.cond.Broadcast()
	p.mu.Unlock()
	if early {
		t.Fatal("Acquire pinned block (0,0) while its spill was being written")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	fetched := p.Stats().FetchedBlocks
	flushFrames(t, p, [2]int{0, 0})
	got, err := p.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(0, 0)
	if p.Stats().FetchedBlocks == fetched {
		t.Fatal("block (0,0) was not evicted and paged back in")
	}
	if !equalCells(got, rerun) {
		t.Fatal("re-Completed block (0,0) paged in with the cells of the spill before it")
	}
}

// TestCommitAndCloseJoinBackgroundCommit: Commit serializes behind a
// group commit the committer goroutine is running, and Close returns
// only after that goroutine has exited; the index a reopen finds then
// covers every block, which the last commit flushed.
func TestCommitAndCloseJoinBackgroundCommit(t *testing.T) {
	src := testTable(40, 8)
	path := filepath.Join(t.TempDir(), "t.npsp")
	p, err := Create(path, src, Options{Frames: 4, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	m := src.Blocks()
	completeAll(t, p, src)
	commit := func() error { p.Flush(); return p.Commit(everyBlock(p)) }
	// request asks the committer for a commit and returns its exit
	// channel and the commits published before the request.
	request := func() (chan struct{}, int64) {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.requestCommitLocked(commit)
		return p.committer, p.stats.Commits
	}
	// Commit runs its own commit after the committer's, never beside it.
	done, before := request()
	if err := p.Commit(everyBlock(p)); err != nil {
		t.Fatal(err)
	}
	<-done
	if got := p.Stats().Commits - before; got < 2 {
		t.Errorf("%d commits after requesting one and calling Commit, want both", got)
	}
	done, _ = request()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Fatal("Close returned while the committer goroutine still ran")
	}
	p2, err := Open[float32](path, Options{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for id := 0; id < p2.NBlocks(); id++ {
		bi, bj := blockCoords(m, id)
		if !p2.IsFinal(bi, bj) {
			t.Fatalf("block (%d,%d) flushed before Close is missing from the reopened index", bi, bj)
		}
		cells, err := p2.Acquire(bi, bj)
		if err != nil {
			t.Fatal(err)
		}
		if !equalCells(cells, finalCells(src, bi, bj)) {
			t.Fatalf("reopened block (%d,%d) has other cells", bi, bj)
		}
		p2.Release(bi, bj)
	}
}

// completeAll completes every block of p with finalCells through its
// frame budget, as a paged solve does, so blocks spill.
func completeAll(t *testing.T, p *Pager[float32], src *tri.Tiled[float32]) {
	t.Helper()
	m := src.Blocks()
	for id := 0; id < p.NBlocks(); id++ {
		bi, bj := blockCoords(m, id)
		cells, err := p.Acquire(bi, bj)
		if err != nil {
			t.Fatal(err)
		}
		copy(cells, finalCells(src, bi, bj))
		if err := p.Complete(bi, bj); err != nil {
			t.Fatal(err)
		}
		p.Release(bi, bj)
	}
}

// requireGone fails unless the spill file and its index are deleted.
func requireGone(t *testing.T, path string) {
	t.Helper()
	for _, f := range []string{path, path + ".idx"} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s still there after Discard (stat: %v)", f, err)
		}
	}
}

// TestDiscardSkipsFinalFlush: after a solve's worth of completions and
// a commit, Discard spills and commits nothing more — the resident final
// blocks a commit would flush stay unwritten — deletes the spill file
// and its index, and leaves a later Close nothing to do.
func TestDiscardSkipsFinalFlush(t *testing.T) {
	src := testTable(40, 8)
	path := filepath.Join(t.TempDir(), "t.npsp")
	p, err := Create(path, src, Options{Frames: 4, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	completeAll(t, p, src)
	if err := p.Commit(everyBlock(p)); err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	if before.SpilledBlocks == 0 || before.Commits == 0 || p.Resident() == 0 {
		t.Fatalf("setup spilled %d blocks, committed %d times, left %d resident; want all three > 0",
			before.SpilledBlocks, before.Commits, p.Resident())
	}
	if err := p.Discard(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close after Discard: %v", err)
	}
	after := p.Stats()
	if after.SpilledBlocks != before.SpilledBlocks || after.Commits != before.Commits {
		t.Errorf("Discard spilled %d blocks and committed %d times, want neither",
			after.SpilledBlocks-before.SpilledBlocks, after.Commits-before.Commits)
	}
	requireGone(t, path)
}

// TestDiscardJoinsBackgroundCommit: Discard waits for a group commit
// the committer goroutine is running before it deletes the files, so
// the commit's index rename cannot bring the index back afterwards.
func TestDiscardJoinsBackgroundCommit(t *testing.T) {
	for round := 0; round < 10; round++ {
		src := testTable(40, 8)
		path := filepath.Join(t.TempDir(), "t.npsp")
		p, err := Create(path, src, Options{Frames: 4, Durable: true})
		if err != nil {
			t.Fatal(err)
		}
		completeAll(t, p, src)
		p.mu.Lock()
		p.requestCommitLocked(func() error { p.Flush(); return p.Commit(everyBlock(p)) })
		done := p.committer
		p.mu.Unlock()
		if err := p.Discard(); err != nil {
			t.Fatal(err)
		}
		if done != nil {
			select {
			case <-done:
			default:
				t.Fatal("Discard returned while the committer goroutine still ran")
			}
		}
		requireGone(t, path)
	}
}

// fakeFile serves reads that leave the buffer as it is, yielding first
// so concurrent readAt calls interleave between claiming their operation
// and flipping a bit.
type fakeFile struct{}

func (fakeFile) ReadAt(b []byte, off int64) (int, error) {
	runtime.Gosched()
	return len(b), nil
}

// faultRecord is what one injected read did: its kind and, for a flip,
// the bit it flipped (-1 otherwise).
type faultRecord struct {
	kind DiskFaultKind
	bit  int
}

func readFault(t *testing.T, f *DiskFaults, buf []byte) faultRecord {
	clear(buf) // an EIO read returns before touching it
	k, err := f.readAt(fakeFile{}, buf, 0)
	if (k == DiskFaultEIO) != (err != nil) {
		t.Errorf("kind %v with error %v", k, err)
	}
	rec := faultRecord{kind: k, bit: -1}
	for i, b := range buf {
		for bit := 0; bit < 8; bit++ {
			if b&(1<<bit) != 0 {
				rec.bit = i*8 + bit
			}
		}
	}
	return rec
}

// TestDiskFaultsPureUnderConcurrentReads: whether the i-th read faults,
// how, and which bit a flip hits depend only on (Seed, i), so reads
// issued from eight goroutines draw exactly the serial schedule's
// faults, flipped bits included.
func TestDiskFaultsPureUnderConcurrentReads(t *testing.T) {
	const ops, workers = 400, 8
	kinds := []DiskFaultKind{DiskFaultFlip, DiskFaultEIO}
	serial := &DiskFaults{Rate: 0.5, Seed: 3, Kinds: kinds}
	want := make([]faultRecord, ops)
	for i := range want {
		want[i] = readFault(t, serial, make([]byte, 64))
	}
	concurrent := &DiskFaults{Rate: 0.5, Seed: 3, Kinds: kinds}
	got := make([]faultRecord, 0, ops)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < ops/workers; i++ {
				rec := readFault(t, concurrent, buf)
				mu.Lock()
				got = append(got, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Which goroutine drew which op is up to the scheduler; the drawn
	// multiset is not.
	less := func(s []faultRecord) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].kind != s[j].kind {
				return s[i].kind < s[j].kind
			}
			return s[i].bit < s[j].bit
		}
	}
	sort.Slice(want, less(want))
	sort.Slice(got, less(got))
	flips := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("concurrent reads drew %v at sorted position %d, the serial schedule %v", got[i], i, want[i])
		}
		if want[i].kind == DiskFaultFlip {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("the schedule drew no flips; the check is vacuous")
	}
}
