// Package pager is the crash-consistent out-of-core layer: it spills
// cold NDL memory blocks to a CRC-sealed, dual-version spill file so a
// solve streams through a bounded resident set instead of holding the
// whole table — the paper's SPE local-store discipline (a small fast
// memory fed by whole-block transfers, Section IV-A) projected onto the
// RAM/disk boundary. The NDL layout is what makes this work: every
// memory block is contiguous, immutable once its task completes, and
// moves in one large transfer.
//
// Robustness contract: every slot carries the block's CRC32C
// (resilience.BlockCRC — the same digest the in-memory seal layer and
// the cluster wire frames use), and every page-in re-verifies the
// digest over the slot's bytes before decoding them. Torn writes, bit
// rot, and EIO therefore surface as typed *ErrPageCorrupt for the
// engine's poisoned-cone heal; ENOSPC degrades to a growing in-memory
// working set.
//
// Whether a spill file is also resume state is decided once, when the
// pager is made (Options.Durable). A durable file is a solve's
// checkpoint: its index, which decides which final slots a restart may
// trust, is committed with the atomic temp+rename discipline (data
// fsync ordered first), so a SIGKILL mid-spill leaves a committed index
// a restart resumes from bit-identically. The engine decides what a
// commit records (Commit); the pager writes and publishes it. A scratch
// file — a solve's private spill, which nothing ever reopens — is never
// synced and has no index.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"

	"cellnpdp/internal/resilience"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tableio"
	"cellnpdp/internal/tri"
)

// Stats counts the pager's work during one solve. Byte counts cover
// slot payloads plus their CRC trailers — the actual disk traffic the
// cachesim I/O lower bound is compared against.
type Stats struct {
	// SpilledBlocks/SpilledBytes count final-block writes to the spill
	// file (evictions of completed blocks).
	SpilledBlocks, SpilledBytes int64
	// FetchedBlocks/FetchedBytes count final-block page-ins.
	FetchedBlocks, FetchedBytes int64
	// PristineReads/PristineBytes count pristine-version page-ins (cold
	// first touches and post-heal refetches).
	PristineReads, PristineBytes int64
	// Evictions counts frames reclaimed (spilled or dropped clean).
	Evictions int64
	// FaultedPages counts failed page-in attempts: injected or real read
	// errors plus digest mismatches (torn writes, bit rot).
	FaultedPages int64
	// PageHeals counts recoveries from those faults: read retries that
	// verified, plus corrupt final blocks demoted back to pristine for
	// cone recompute.
	PageHeals int64
	// ENOSPCDegradations counts spill writes abandoned for lack of disk
	// space; after the first the pager stops spilling and degrades to a
	// growing in-memory working set.
	ENOSPCDegradations int64
	// SpillErrors counts non-ENOSPC spill-write failures (EIO); the
	// block stays resident and the eviction is retried later.
	SpillErrors int64
	// Commits counts index publications (temp+rename renames).
	Commits int64
	// ResidentPeak is the maximum resident frame count observed;
	// OverBudget counts frames allocated past the configured budget
	// because every in-budget frame was pinned or unspillable.
	ResidentPeak, OverBudget int64
}

// DiskBytes is the total spill traffic in both directions — the
// achieved figure reported against the cachesim I/O lower bound.
func (s Stats) DiskBytes() int64 {
	return s.SpilledBytes + s.FetchedBytes + s.PristineBytes
}

// Options configures a Pager.
type Options struct {
	// Frames is the resident-set budget in frames (one frame = one
	// tile×tile block). The budget is soft: when every in-budget frame
	// is pinned or unspillable the pager allocates past it (counted in
	// Stats.OverBudget) rather than deadlock. Values below the floor of
	// 4 are clamped.
	Frames int
	// HardFrames, when positive, is the absolute resident ceiling: if
	// degradation (pins, ENOSPC no-spill mode) would grow the resident
	// set past it, the pager fails with *ErrSpillSpace instead. 0 means
	// unlimited (degrade all the way to fully in-memory).
	HardFrames int
	// Durable makes the spill file resume state: Create syncs the file
	// and commits an empty index beside it, and Close leaves both on
	// disk. false, the zero value, makes it scratch: no sync and no
	// index unless the caller commits one itself.
	Durable bool
	// Faults, when non-nil, is the deterministic disk-fault injector.
	Faults *DiskFaults
	// Logf, when non-nil, receives operational messages (degradations,
	// retried faults). Nil is silent; counters still record everything.
	Logf func(format string, args ...any)
}

// Pager pages one triangular table's memory blocks between a bounded
// in-RAM frame set and the dual-version spill file. All methods are
// safe for concurrent use.
//
// Block life cycle: a block faults in from its pristine slot, is pinned
// (Acquire) while a task reads or computes it, and becomes final
// (Complete) when its computing task finishes — final blocks are
// immutable, which is what makes spill-once-on-eviction sound. Eviction
// takes the least-recently-acquired unpinned frame: clean blocks drop
// (pristine is already on disk), final blocks spill to their final slot
// first. Pinning is the dependence-cone guard: the engine pins a task's
// stage-1 operands before dispatch, so the wavefront's working set can
// never be evicted under it.
//
// Concurrency: the mutex guards bookkeeping only — the frame map, the
// LRU list, the per-block marks and the counters. Every pread, CRC and
// codec pass over a slot, pwrite and fsync runs outside it. A frame is
// loading (its one loader is reading the block; other callers wait on
// cond), resident, or spilling (its final block is being written; the
// cells stay readable, but no caller pins the frame and no eviction
// takes it until the write returns).
type Pager[E semiring.Elem] struct {
	mu   sync.Mutex
	cond sync.Cond // broadcast when a load or spill settles or a commit ends

	f       *os.File
	path    string
	idxPath string
	geom    spillGeom
	m       int // blocks per side
	opts    Options

	frames   map[int]*frameOf[E] // every loading, resident and spilling frame
	lru      frameList[E]        // resident and spilling frames, least recently acquired first
	free     []*frameOf[E]       // frames reclaimed by eviction or Demote
	slots    [][]byte            // spare slot buffers for the reads and spills outside the mutex
	resident int                 // resident plus spilling frames: the budgeted set
	busy     int                 // loading frames plus spills and reads in flight outside the mutex
	final    []bool
	spilled  []bool
	crc      []uint32
	corrupt  map[int]bool
	noSpill  bool // sticky ENOSPC degradation: stop spilling, grow resident
	closed   bool
	stats    Stats
	prefetch chan struct{} // limits in-flight async prefetches (double buffer)

	// Group commits: one commit runs at a time (committing); a request
	// asks the committer goroutine to run commitFn (commitWanted), and
	// committer is closed when that goroutine exits (nil while none
	// runs).
	committing   bool
	commitWanted bool
	commitFn     func() error
	committer    chan struct{}

	// lastSpillErr is the most recent spill failure, carried into an
	// *ErrSpillSpace if degradation later hits the hard ceiling.
	lastSpillErr error
}

const (
	minFrames     = 4
	prefetchSlots = 2 // the cellsim double-buffer depth
	// Re-reads before a page is declared corrupt. A corrupt final page
	// heals through the engine's ladder, so one retry suffices. A
	// pristine page has no version below it, and Create wrote it outside
	// the fault injector, so a failing read is far likelier a transient
	// fault than a lost input: it gets a larger budget.
	finalReadRetries    = 1
	pristineReadRetries = 4
	regionPristine      = 0
	regionFinal         = 1
)

// Create builds a fresh spill file at path from the tiled source table
// and returns a pager over it: the header and every block's pristine
// slot are written through a pid-tagged temp and atomically renamed
// into place, so a crash mid-create leaves only a sweepable temp, never
// a half-valid spill file. A durable pager (Options.Durable) syncs the
// file before the rename and then commits an empty index beside it at
// `<path>.idx`; a scratch pager does neither, and removes a stale index
// there, so no index ever describes its file. Stale temps of crashed
// predecessors are swept first. The source table is not retained —
// callers drop it so the solve's footprint is the frame budget, not the
// table.
func Create[E semiring.Elem](path string, src *tri.Tiled[E], opts Options) (*Pager[E], error) {
	return create(path, src.Len(), src.Tile(), opts, func(bi, bj int, _ []E) []E { return src.Block(bi, bj) })
}

// CreateFromRows is Create from a row-major source table cut into
// tile×tile memory blocks. It builds no tiled copy of the table: each
// block is gathered into one block buffer (tri.GatherBlock) and written
// from there.
func CreateFromRows[E semiring.Elem](path string, src *tri.RowMajor[E], tile int, opts Options) (*Pager[E], error) {
	return create(path, src.Len(), tile, opts, func(bi, bj int, buf []E) []E {
		tri.GatherBlock(buf, src, tile, bi, bj)
		return buf
	})
}

// create is Create over any source: block returns the cells of block
// (bi, bj), using buf, a one-block buffer, if it needs room for them.
func create[E semiring.Elem](path string, n, tile int, opts Options, block func(bi, bj int, buf []E) []E) (*Pager[E], error) {
	var e E
	g := spillGeom{N: n, Tile: tile, Elem: tableio.ElemWidth(e)}
	if tile > 0 {
		m := (n + tile - 1) / tile
		g.NBlocks = m * (m + 1) / 2
	}
	if err := g.check(); err != nil {
		return nil, err
	}
	idxPath := path + ".idx"
	for _, target := range []string{path, idxPath} {
		if _, err := resilience.RemoveStaleTemps(target); err != nil {
			return nil, err
		}
	}
	if !opts.Durable {
		if err := os.Remove(idxPath); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("pager: removing stale spill index: %w", err)
		}
	}
	tmp, err := resilience.CreateOwnedTemp(path)
	if err != nil {
		return nil, fmt.Errorf("pager: creating spill temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := writePristineRegion(tmp, g, block); err != nil {
		tmp.Close()
		return nil, err
	}
	if opts.Durable {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return nil, fmt.Errorf("pager: syncing spill file: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return nil, fmt.Errorf("pager: closing spill file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return nil, fmt.Errorf("pager: publishing spill file: %w", err)
	}
	if opts.Durable {
		if err := commitIndex(idxPath, g, nil); err != nil {
			return nil, err
		}
	}
	return newPager[E](path, idxPath, g, nil, opts)
}

// writePristineRegion lays out the full (sparse) file and writes every
// block's pristine slot with its CRC trailer. Create-time writes bypass
// the fault injector: the injector models the solve's spill traffic,
// and a faulted create would just fail the rename-protected setup.
func writePristineRegion[E semiring.Elem](f *os.File, g spillGeom, block func(bi, bj int, buf []E) []E) error {
	if err := f.Truncate(g.fileSize()); err != nil {
		return fmt.Errorf("pager: sizing spill file: %w", err)
	}
	if _, err := f.WriteAt(encodeSpillHeader(g), 0); err != nil {
		return fmt.Errorf("pager: writing spill header: %w", err)
	}
	m := (g.N + g.Tile - 1) / g.Tile
	buf := make([]E, g.Tile*g.Tile)
	slot := make([]byte, g.slotBytes())
	id := 0
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			encodeSlot(block(bi, bj, buf), slot)
			if _, err := f.WriteAt(slot, g.slotOff(regionPristine, id)); err != nil {
				return fmt.Errorf("pager: writing pristine block (%d,%d): %w", bi, bj, err)
			}
			id++
		}
	}
	return nil
}

// Open resumes a pager over an existing spill file: the data header is
// validated (magic, version, element width, geometry plausibility,
// header CRC, file size), stale temps are swept, and the committed
// index — if one exists — decides which final slots are trusted. Blocks
// the index does not cover resume from pristine and are recomputed;
// their final slots may hold torn bytes from the crashed run, which is
// fine because nothing ever reads an uncommitted final slot.
func Open[E semiring.Elem](path string, opts Options) (*Pager[E], error) {
	idxPath := path + ".idx"
	for _, target := range []string{path, idxPath} {
		if _, err := resilience.RemoveStaleTemps(target); err != nil {
			return nil, err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pager: opening spill file: %w", err)
	}
	g, err := decodeSpillHeader(f)
	if closeErr := f.Close(); err == nil && closeErr != nil {
		err = fmt.Errorf("pager: closing spill file: %w", closeErr)
	}
	if err != nil {
		return nil, err
	}
	var e E
	if got, want := g.Elem, tableio.ElemWidth(e); got != want {
		return nil, fmt.Errorf("pager: spill file holds %d-byte elements, requested type has %d", got, want)
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("pager: sizing spill file: %w", err)
	}
	if st.Size() != g.fileSize() {
		return nil, fmt.Errorf("pager: spill file is %d bytes, geometry requires %d", st.Size(), g.fileSize())
	}
	ig, records, haveIdx, err := loadIndex(idxPath)
	if err != nil {
		return nil, err
	}
	if haveIdx && ig != g {
		return nil, fmt.Errorf("pager: index geometry n=%d tile=%d does not match spill file n=%d tile=%d",
			ig.N, ig.Tile, g.N, g.Tile)
	}
	return newPager[E](path, idxPath, g, records, opts)
}

// OpenSolve makes the pager of a solve of n points in tile-side blocks.
// With a path the pager is the solve's checkpoint, so it is durable:
// create makes it there (Create or CreateFromRows over the solve's
// input), or, under resume, Open reopens it, and a missing file or one
// of another n, tile or element width is an error returned before
// anything is written. Without a path it is scratch, in a private temp
// dir. done ends the pager: it closes a checkpoint, which stays on
// disk, and discards a scratch pager with its dir.
func OpenSolve[E semiring.Elem](path string, resume bool, n, tile int, opts Options, create func(path string, opts Options) (*Pager[E], error)) (p *Pager[E], done func(), err error) {
	opts.Durable = path != ""
	if path == "" {
		dir, err := os.MkdirTemp("", "cellnpdp-spill-")
		if err != nil {
			return nil, nil, fmt.Errorf("pager: spill temp dir: %w", err)
		}
		if p, err = create(filepath.Join(dir, "solve.npsp"), opts); err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return p, func() { p.Discard(); os.RemoveAll(dir) }, nil
	}
	if !resume {
		if p, err = create(path, opts); err != nil {
			return nil, nil, err
		}
		return p, func() { p.Close() }, nil
	}
	if p, err = Open[E](path, opts); err != nil {
		return nil, nil, err
	}
	if p.Len() != n || p.Tile() != tile {
		p.Close()
		return nil, nil, fmt.Errorf("pager: checkpoint %s is an n=%d tile=%d solve, this one is n=%d tile=%d", path, p.Len(), p.Tile(), n, tile)
	}
	return p, func() { p.Close() }, nil
}

// newPager opens the data file read-write and builds the runtime state.
func newPager[E semiring.Elem](path, idxPath string, g spillGeom, records []indexRecord, opts Options) (*Pager[E], error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("pager: opening spill file: %w", err)
	}
	if opts.Frames < minFrames {
		opts.Frames = minFrames
	}
	p := &Pager[E]{
		f:        f,
		path:     path,
		idxPath:  idxPath,
		geom:     g,
		m:        (g.N + g.Tile - 1) / g.Tile,
		opts:     opts,
		frames:   make(map[int]*frameOf[E]),
		final:    make([]bool, g.NBlocks),
		spilled:  make([]bool, g.NBlocks),
		crc:      make([]uint32, g.NBlocks),
		corrupt:  make(map[int]bool),
		prefetch: make(chan struct{}, prefetchSlots),
	}
	p.cond.L = &p.mu
	for _, rec := range records {
		p.final[rec.ID] = true
		p.spilled[rec.ID] = true
		p.crc[rec.ID] = rec.CRC
	}
	return p, nil
}

// Len returns the logical problem size; Tile the block side in cells;
// Blocks the tiles per side; NBlocks the dense block count.
func (p *Pager[E]) Len() int     { return p.geom.N }
func (p *Pager[E]) Tile() int    { return p.geom.Tile }
func (p *Pager[E]) Blocks() int  { return p.m }
func (p *Pager[E]) NBlocks() int { return p.geom.NBlocks }

// Path returns the spill data file path.
func (p *Pager[E]) Path() string { return p.path }

// blockID maps tile coordinates to the dense upper-triangle index —
// the same row-major-over-the-triangle order tri.Tiled.BlockID uses.
func (p *Pager[E]) blockID(bi, bj int) int {
	if bi < 0 || bj < bi || bj >= p.m {
		panic(fmt.Sprintf("pager: block (%d,%d) outside upper triangle of %d tiles", bi, bj, p.m))
	}
	return bi*p.m - bi*(bi-1)/2 + (bj - bi)
}

// Acquire faults block (bi, bj) into a resident frame, pins it, and
// returns its cells. The caller must Release exactly once per Acquire,
// and the returned cells are valid only until that Release: an unpinned
// frame can be evicted and recycled for another block's page-in.
// A final block that fails its digest check (after one retry) is
// reported as *ErrPageCorrupt for the engine's cone heal; a pristine
// block that fails every retry has no earlier version and is
// unrecoverable. A block another caller is loading is waited for, not
// read twice, and so is a block whose spill is being written.
func (p *Pager[E]) Acquire(bi, bj int) ([]E, error) {
	id := p.blockID(bi, bj)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, fmt.Errorf("pager: acquire on closed pager")
		}
		fr, ok := p.frames[id]
		if !ok {
			break
		}
		if fr.state == frameResident {
			fr.pins++
			p.lru.moveToBack(fr)
			return fr.cells, nil
		}
		p.cond.Wait()
	}
	fr, err := p.pageInLocked(id, bi, bj)
	if err != nil {
		return nil, err
	}
	fr.pins++
	return fr.cells, nil
}

// Release unpins block (bi, bj), making its frame evictable again once
// the pin count reaches zero.
func (p *Pager[E]) Release(bi, bj int) {
	id := p.blockID(bi, bj)
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr, ok := p.frames[id]; ok && fr.pins > 0 {
		fr.pins--
	}
}

// Complete marks block (bi, bj) final: its computing task finished, the
// content is immutable from here on, and its CRC32C becomes the block's
// seal — the digest every later spill, page-in, and index record is
// checked against. The block must be resident and pinned (the engine
// calls Complete before releasing the block it just computed).
func (p *Pager[E]) Complete(bi, bj int) error {
	return p.complete(bi, bj, 0, false)
}

// CompleteSealed is Complete with the seal given rather than digested:
// crc is the CRC32C of the bytes the task computed, which a sealing
// engine took before anything else could touch the block. A block whose
// cells no longer match it then fails its page-in as *ErrPageCorrupt,
// and a committed index never vouches for bytes the task did not
// produce.
func (p *Pager[E]) CompleteSealed(bi, bj int, crc uint32) error {
	return p.complete(bi, bj, crc, true)
}

func (p *Pager[E]) complete(bi, bj int, crc uint32, sealed bool) error {
	id := p.blockID(bi, bj)
	p.mu.Lock()
	defer p.mu.Unlock()
	fr, ok := p.frames[id]
	if !ok || fr.pins == 0 {
		return fmt.Errorf("pager: Complete(%d,%d) on a block that is not resident and pinned", bi, bj)
	}
	if !sealed {
		crc = resilience.BlockCRC(fr.cells)
	}
	p.final[id] = true
	p.spilled[id] = false
	p.crc[id] = crc
	return nil
}

// IsFinal reports whether block (bi, bj) holds its final content —
// either computed this run or recovered from the committed index.
func (p *Pager[E]) IsFinal(bi, bj int) bool {
	id := p.blockID(bi, bj)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.final[id]
}

// Demote reverts block (bi, bj) to its pristine version: the frame is
// dropped and the final mark cleared, so the next Acquire re-reads the
// pristine slot. This is the heal primitive — the engine demotes a
// corrupt block's whole dependence cone (sched.Graph.Cone) and re-runs
// those tasks, exactly the in-memory poisoned-cone discipline. Demoting
// the block that faulted counts as a page heal. A load or spill of the
// block in flight settles first.
func (p *Pager[E]) Demote(bi, bj int) {
	id := p.blockID(bi, bj)
	p.mu.Lock()
	defer p.mu.Unlock()
	fr, ok := p.frames[id]
	for ok && fr.state != frameResident {
		p.cond.Wait()
		fr, ok = p.frames[id]
	}
	if ok {
		p.dropLocked(fr)
	}
	p.final[id] = false
	p.spilled[id] = false
	p.crc[id] = 0
	if p.corrupt[id] {
		delete(p.corrupt, id)
		p.stats.PageHeals++
	}
}

// Prefetch starts an asynchronous page-in of block (bi, bj) without
// pinning it — the disk half of the cellsim double-buffer discipline
// (compute block k while block k+1 streams in). At most two prefetches
// are in flight; extras and already-resident or loading blocks are
// no-ops. The read runs beside the workers, outside the mutex. A
// prefetch that faults is silently dropped: the eventual Acquire
// re-reads synchronously and surfaces the typed error.
func (p *Pager[E]) Prefetch(bi, bj int) {
	select {
	case p.prefetch <- struct{}{}:
	default:
		return // both buffers busy; the Acquire will fault it in
	}
	go func() {
		defer func() { <-p.prefetch }()
		id := p.blockID(bi, bj)
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.closed {
			return
		}
		if _, ok := p.frames[id]; ok {
			return
		}
		// A corrupt page is dropped quietly: the eventual Acquire re-reads
		// it and reports it typed. A hard-limit failure recurs there too.
		var pe *ErrPageCorrupt
		if _, err := p.pageInLocked(id, bi, bj); err != nil && !errors.As(err, &pe) && p.opts.Logf != nil {
			p.opts.Logf("pager: prefetch of block (%d,%d) dropped: %v", bi, bj, err)
		}
	}()
}

// pageInLocked is one page-in, by the block's one loader. It claims
// block id with a loading frame, then reads the block's slot into a
// spare slot buffer outside the mutex and verifies it; only verified
// bytes are decoded into the frame, so a rejected read changes no
// resident or recycled frame. The frame joins the resident set once
// eviction has made room for it. The unpinned frame is returned. Caller
// holds p.mu, which is released for the read and for any spill the
// eviction needs.
func (p *Pager[E]) pageInLocked(id, bi, bj int) (*frameOf[E], error) {
	fr := p.takeFrameLocked()
	fr.id, fr.state, fr.pins = id, frameLoading, 0
	p.frames[id] = fr
	p.busy++
	src := p.sourceLocked(id)
	slot := p.takeSlotLocked()
	p.mu.Unlock()
	failed, err := p.readSlot(fr.cells, slot, src, bi, bj)
	p.mu.Lock()
	p.slots = append(p.slots, slot)
	p.countReadLocked(src, failed, err == nil)
	if err == nil {
		err = p.makeRoomLocked()
	} else {
		p.corrupt[id] = true
	}
	p.busy--
	p.cond.Broadcast()
	if err != nil {
		delete(p.frames, id)
		p.free = append(p.free, fr)
		return nil, err
	}
	if p.resident >= p.opts.Frames {
		p.stats.OverBudget++
	}
	fr.state = frameResident
	p.lru.pushBack(fr)
	p.resident++
	p.stats.ResidentPeak = max(p.stats.ResidentPeak, int64(p.resident))
	return fr, nil
}

// takeFrameLocked pops the frame the last eviction reclaimed, or
// allocates one while the resident set is still filling. Caller holds
// p.mu.
func (p *Pager[E]) takeFrameLocked() *frameOf[E] {
	n := len(p.free)
	if n == 0 {
		return &frameOf[E]{cells: make([]E, p.geom.Tile*p.geom.Tile)}
	}
	fr := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return fr
}

// takeSlotLocked pops a spare slot buffer, or allocates one while fewer
// exist than reads and spills in flight. Caller holds p.mu.
func (p *Pager[E]) takeSlotLocked() []byte {
	n := len(p.slots)
	if n == 0 {
		return make([]byte, p.geom.slotBytes())
	}
	slot := p.slots[n-1]
	p.slots[n-1] = nil
	p.slots = p.slots[:n-1]
	return slot
}

// makeRoomLocked evicts least-recently-acquired frames until the
// resident count is under budget. When nothing is evictable (all
// pinned or spilling, or final blocks that cannot spill in no-spill
// mode) the resident set grows past the budget — the graceful-
// degradation tier — unless the hard ceiling says otherwise. Caller
// holds p.mu.
func (p *Pager[E]) makeRoomLocked() error {
	for p.resident >= p.opts.Frames {
		fr := p.victimLocked()
		if fr == nil {
			break // nothing evictable: degrade by growing the resident set
		}
		if !p.evictLocked(fr) {
			break // spill failed; the block must stay resident
		}
	}
	if p.opts.HardFrames > 0 && p.resident >= p.opts.HardFrames {
		return &ErrSpillSpace{Resident: p.resident, Limit: p.opts.HardFrames, Err: p.lastSpillErr}
	}
	return nil
}

// victimLocked walks the LRU list from its cold end to the first frame
// eviction may take, skipping pinned and spilling frames and, under
// ENOSPC degradation, final blocks that cannot spill. Caller holds p.mu.
func (p *Pager[E]) victimLocked() *frameOf[E] {
	for fr := p.lru.head; fr != nil; fr = fr.next {
		if fr.pins > 0 || fr.state != frameResident {
			continue
		}
		if p.noSpill && p.final[fr.id] && !p.spilled[fr.id] {
			continue // unspillable under ENOSPC degradation
		}
		return fr
	}
	return nil
}

// evictLocked reclaims one frame, spilling a final block's content to
// its final slot first. Returns false when the block could not be
// evicted (its spill failed) — the caller then stops evicting and lets
// the resident set grow. No caller pins a spilling frame, so a frame
// whose spill returned is still unpinned. Caller holds p.mu.
func (p *Pager[E]) evictLocked(fr *frameOf[E]) bool {
	if p.final[fr.id] && !p.spilled[fr.id] && !p.spillLocked(fr) {
		return false
	}
	p.dropLocked(fr)
	p.stats.Evictions++
	return true
}

// dropLocked takes a resident frame out of the resident set and
// recycles it, unless a caller still pins it. Caller holds p.mu.
func (p *Pager[E]) dropLocked(fr *frameOf[E]) {
	p.lru.remove(fr)
	delete(p.frames, fr.id)
	p.resident--
	if fr.pins == 0 {
		p.free = append(p.free, fr)
	}
}

// spillLocked writes final block fr's slot (payload + CRC trailer) and
// marks it spilled. The encoding and the write run outside the mutex
// with the frame marked spilling, which keeps its cells unchanged: an
// unpinned final block has no writer, and no caller pins it until the
// write returns. ENOSPC flips the sticky no-spill degradation; EIO
// leaves the block resident for a later retry. Caller holds p.mu.
func (p *Pager[E]) spillLocked(fr *frameOf[E]) bool {
	id := fr.id
	fr.state = frameSpilling
	p.busy++
	slot := p.takeSlotLocked()
	p.mu.Unlock()
	encodeSlot(fr.cells, slot)
	off := p.geom.slotOff(regionFinal, id)
	var err error
	if p.opts.Faults != nil {
		_, err = p.opts.Faults.writeAt(p.f, slot, off)
	} else {
		_, err = p.f.WriteAt(slot, off)
	}
	p.mu.Lock()
	fr.state = frameResident
	p.slots = append(p.slots, slot)
	p.busy--
	p.cond.Broadcast()
	if err != nil {
		p.lastSpillErr = err
		if isNoSpace(err) {
			p.noSpill = true
			p.stats.ENOSPCDegradations++
			if p.opts.Logf != nil {
				p.opts.Logf("pager: spill of block %d failed (%v); degrading to in-memory working set", id, err)
			}
		} else {
			p.stats.SpillErrors++
			if p.opts.Logf != nil {
				p.opts.Logf("pager: spill of block %d failed (%v); keeping it resident", id, err)
			}
		}
		return false
	}
	p.spilled[id] = true
	p.stats.SpilledBlocks++
	p.stats.SpilledBytes += p.geom.slotBytes()
	return true
}

// Flush writes every resident final block that is not on disk yet to
// its final slot and keeps it resident, so a commit can record it. It
// runs beside the solve: each write happens outside the mutex, as an
// eviction's does. A block that cannot be written (a failed write, or
// the ENOSPC degradation) stays off disk.
func (p *Pager[E]) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	var flush []*frameOf[E]
	for fr := p.lru.head; fr != nil; fr = fr.next {
		flush = append(flush, fr)
	}
	for _, fr := range flush {
		if p.noSpill || p.closed {
			return
		}
		// An earlier write released the mutex: the frame may have been
		// evicted and reused since.
		if p.frames[fr.id] == fr && fr.state == frameResident && p.final[fr.id] && !p.spilled[fr.id] {
			p.spillLocked(fr)
		}
	}
}

// OnDisk reports whether block (bi, bj) is final and its final slot is
// written, which a commit needs to record it.
func (p *Pager[E]) OnDisk(bi, bj int) bool {
	id := p.blockID(bi, bj)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.final[id] && p.spilled[id]
}

// AcquireResident is Acquire without the page-in: it pins block (bi, bj)
// and returns its cells only when the block is resident, and otherwise
// reports false. A true return is matched by one Release.
func (p *Pager[E]) AcquireResident(bi, bj int) ([]E, bool) {
	id := p.blockID(bi, bj)
	p.mu.Lock()
	defer p.mu.Unlock()
	fr, ok := p.frames[id]
	if !ok || fr.state != frameResident || p.closed {
		return nil, false
	}
	fr.pins++
	return fr.cells, true
}

// slotSource is where a page-in of one block reads: the final slot when
// one is trusted, the pristine slot otherwise, with the region's retry
// budget (finalReadRetries, pristineReadRetries).
type slotSource struct {
	region  int
	off     int64
	sealed  bool   // a final slot: the payload must also digest to seal
	seal    uint32 // the CRC32C Complete recorded
	retries int
}

// sourceLocked decides block id's authoritative version. Caller holds
// p.mu.
func (p *Pager[E]) sourceLocked(id int) slotSource {
	if p.final[id] && p.spilled[id] {
		return slotSource{region: regionFinal, off: p.geom.slotOff(regionFinal, id), sealed: true, seal: p.crc[id], retries: finalReadRetries}
	}
	return slotSource{region: regionPristine, off: p.geom.slotOff(regionPristine, id), retries: pristineReadRetries}
}

// readSlot reads src's slot into the slot buffer and verifies it before
// anything uses it: the CRC32C over the payload bytes is checked
// against the slot's trailer and, for a final block, against its seal.
// A fault is retried within src's budget. Only verified bytes are
// decoded, into cells. It returns the number of failed attempts; no
// lock is held.
func (p *Pager[E]) readSlot(cells []E, slot []byte, src slotSource, bi, bj int) (int, error) {
	payload := slot[:len(slot)-4]
	var bad *ErrPageCorrupt
	for attempt := 0; attempt <= src.retries; attempt++ {
		var err error
		if p.opts.Faults != nil {
			_, err = p.opts.Faults.readAt(p.f, slot, src.off)
		} else {
			_, err = p.f.ReadAt(slot, src.off)
		}
		if err != nil {
			bad = &ErrPageCorrupt{Bi: bi, Bj: bj, Pristine: !src.sealed, Err: err}
		} else if got, trailer := resilience.RawCRC(payload), trailerCRC(slot); got != trailer || (src.sealed && got != src.seal) {
			bad = &ErrPageCorrupt{Bi: bi, Bj: bj, Pristine: !src.sealed, Want: src.seal, Got: got}
			if !src.sealed {
				bad.Want = trailer // the pristine trailer is self-describing
			}
		} else {
			tableio.DecodeCells(cells, payload)
			return attempt, nil
		}
	}
	return src.retries + 1, bad
}

// countReadLocked records one page-in's outcome: its failed attempts, a
// heal when a retry recovered the page, and a verified read's bytes
// against its region. Caller holds p.mu.
func (p *Pager[E]) countReadLocked(src slotSource, failed int, ok bool) {
	p.stats.FaultedPages += int64(failed)
	if !ok {
		return
	}
	if failed > 0 {
		p.stats.PageHeals++ // a retry recovered the page
	}
	nbytes := p.geom.slotBytes()
	if src.region == regionFinal {
		p.stats.FetchedBlocks++
		p.stats.FetchedBytes += nbytes
	} else {
		p.stats.PristineReads++
		p.stats.PristineBytes += nbytes
	}
}

// Commit publishes an index that records those of blocks which are
// final with their final slot written — the durability point a restart
// resumes from — after joining any commit already in flight. Which
// blocks a restart may trust is the caller's decision (the engine's
// ladder leaves out what it cannot verify); the pager only refuses to
// record a block that is not on disk. The data file is fsynced before
// the index is written, fsynced and renamed, so a committed record
// never trusts unsynced bytes. It publishes on a scratch pager too.
func (p *Pager[E]) Commit(blocks [][2]int) error {
	ids := make([]int, len(blocks))
	for i, b := range blocks {
		ids[i] = p.blockID(b[0], b[1])
	}
	slices.Sort(ids)
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.committing {
		p.cond.Wait()
	}
	p.committing = true
	var records []indexRecord
	for i, id := range ids {
		if p.final[id] && p.spilled[id] && (i == 0 || id != ids[i-1]) {
			records = append(records, indexRecord{ID: id, CRC: p.crc[id]})
		}
	}
	p.mu.Unlock()
	err := p.f.Sync()
	if err != nil {
		err = fmt.Errorf("pager: syncing spill file: %w", err)
	} else {
		err = commitIndex(p.idxPath, p.geom, records)
	}
	p.mu.Lock()
	p.committing = false
	p.cond.Broadcast()
	if err != nil {
		return err
	}
	p.stats.Commits++
	return nil
}

// RequestCommit asks the pager's committer goroutine to run commit, a
// caller's whole commit (what to flush and record, then Commit),
// without waiting for it. The goroutine runs requests while they
// arrive, then exits; requests that arrive during a run share the
// next. After Close or Discard starts, requests are dropped; both wait
// for the goroutine to exit.
func (p *Pager[E]) RequestCommit(commit func() error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requestCommitLocked(commit)
}

// requestCommitLocked is RequestCommit; caller holds p.mu.
func (p *Pager[E]) requestCommitLocked(commit func() error) {
	if p.closed {
		return
	}
	p.commitWanted, p.commitFn = true, commit
	if p.committer == nil {
		p.committer = make(chan struct{})
		go p.runCommits(p.committer)
	}
}

// runCommits is the committer goroutine; it closes done on exit, which
// Close waits for. It clears committer and closes done in one critical
// section, so a Close or Discard that finds no committer knows none is
// left to wait for.
func (p *Pager[E]) runCommits(done chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.commitWanted && !p.closed {
		p.commitWanted = false
		commit := p.commitFn
		p.mu.Unlock()
		err := commit()
		p.mu.Lock()
		if err != nil && p.opts.Logf != nil {
			// A failed periodic commit is not fatal mid-solve: the
			// previous committed index stays valid, only resume coverage
			// shrinks.
			p.opts.Logf("pager: periodic index commit failed: %v", err)
		}
	}
	p.committer = nil
	close(done)
}

// Materialize copies every block's current content — resident frames
// first, otherwise the authoritative disk version, once verified — into
// dst, which must have the pager's geometry. It is how a finished
// solve's table leaves the pager. A block a stray prefetch is still
// loading is waited for.
func (p *Pager[E]) Materialize(dst *tri.Tiled[E]) error {
	if dst.Len() != p.geom.N || dst.Tile() != p.geom.Tile {
		return fmt.Errorf("pager: cannot materialize (n=%d tile=%d) into table (n=%d tile=%d)",
			p.geom.N, p.geom.Tile, dst.Len(), dst.Tile())
	}
	return p.copyOut(dst.Block, nil)
}

// MaterializeRows is Materialize into a row-major table of the pager's
// problem size: each block's stored cells go straight to their rows
// (tri.ScatterBlock), and no tiled table is built. A block read from
// disk is decoded into one block buffer and scattered only once it has
// verified, so a failed copy leaves every cell either as it was or at
// its block's content.
func (p *Pager[E]) MaterializeRows(dst *tri.RowMajor[E]) error {
	if dst.Len() != p.geom.N {
		return fmt.Errorf("pager: cannot materialize n=%d into table n=%d", p.geom.N, dst.Len())
	}
	tile := p.geom.Tile
	buf := make([]E, tile*tile)
	return p.copyOut(func(int, int) []E { return buf }, func(bi, bj int, cells []E) {
		tri.ScatterBlock(dst, cells, tile, bi, bj)
	})
}

// copyOut hands every block's current content out, in block order. A
// block read from disk is decoded into into(bi, bj) once it verifies; a
// resident frame is copied there. With put non-nil, put instead
// receives the cells — the frame's own, or into's once decoded. It
// stops at the first block that fails to page in.
func (p *Pager[E]) copyOut(into func(bi, bj int) []E, put func(bi, bj int, cells []E)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	slot := p.takeSlotLocked()
	defer func() { p.slots = append(p.slots, slot) }()
	for bi := 0; bi < p.m; bi++ {
		for bj := bi; bj < p.m; bj++ {
			id := p.blockID(bi, bj)
			fr, ok := p.frames[id]
			for ok && fr.state == frameLoading {
				p.cond.Wait()
				fr, ok = p.frames[id]
			}
			if ok {
				if put != nil {
					put(bi, bj, fr.cells)
				} else {
					copy(into(bi, bj), fr.cells)
				}
				continue
			}
			src := p.sourceLocked(id)
			cells := into(bi, bj)
			p.busy++
			p.mu.Unlock()
			failed, err := p.readSlot(cells, slot, src, bi, bj)
			p.mu.Lock()
			p.busy--
			p.cond.Broadcast()
			p.countReadLocked(src, failed, err == nil)
			if err != nil {
				p.corrupt[id] = true
				return err
			}
			if put != nil {
				put(bi, bj, cells)
			}
		}
	}
	return nil
}

// Resident returns the current resident frame count.
func (p *Pager[E]) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident
}

// Stats returns a snapshot of the counters.
func (p *Pager[E]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close lets the page-ins, spills and commits in flight finish and
// closes the spill file. It writes nothing: the file and, on a durable
// pager, its last committed index stay on disk as the resume state. A
// scratch pager's file stays too, for the caller to delete (or call
// Discard instead).
func (p *Pager[E]) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.quiesceLocked() {
		return nil
	}
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("pager: closing spill file: %w", err)
	}
	return nil
}

// Discard ends a pager whose files hold no resume state: like Close it
// lets the page-ins, spills and commits in flight finish, then closes
// the spill file and deletes it and its index. A later Close or Discard
// is a no-op.
func (p *Pager[E]) Discard() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.quiesceLocked() {
		return nil
	}
	var err error
	if closeErr := p.f.Close(); closeErr != nil {
		err = fmt.Errorf("pager: closing spill file: %w", closeErr)
	}
	for _, path := range []string{p.path, p.idxPath} {
		if rmErr := os.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) && err == nil {
			err = rmErr
		}
	}
	return err
}

// Durable reports whether the spill file is resume state
// (Options.Durable).
func (p *Pager[E]) Durable() bool { return p.opts.Durable }

// quiesceLocked marks the pager closed, then waits for the page-ins,
// spills and commit in flight and for the committer goroutine to exit.
// It reports false if the pager was already closed. Caller holds p.mu.
func (p *Pager[E]) quiesceLocked() bool {
	if p.closed {
		return false
	}
	p.closed = true
	for p.busy > 0 || p.committing {
		p.cond.Wait()
	}
	if done := p.committer; done != nil {
		p.mu.Unlock()
		<-done
		p.mu.Lock()
	}
	return true
}

// encodeSlot serializes cells into a slot buffer: the payload in the
// element encoding, then the CRC32C of those bytes as the trailer.
func encodeSlot[E semiring.Elem](cells []E, slot []byte) {
	payload := slot[:len(slot)-4]
	tableio.EncodeCells(payload, cells)
	putTrailer(slot[len(payload):], resilience.RawCRC(payload))
}

// trailerCRC reads a slot's 4-byte CRC32C trailer; putTrailer writes it.
func trailerCRC(slot []byte) uint32 {
	return binary.LittleEndian.Uint32(slot[len(slot)-4:])
}

func putTrailer(trailer []byte, crc uint32) {
	binary.LittleEndian.PutUint32(trailer, crc)
}

// isNoSpace reports whether a spill failure is a disk-space exhaustion
// (ENOSPC or EDQUOT) — the fault that flips the sticky in-memory
// degradation, as opposed to an EIO worth retrying later.
func isNoSpace(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}
