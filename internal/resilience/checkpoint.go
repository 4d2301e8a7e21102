package resilience

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tableio"
	"cellnpdp/internal/tri"
)

// Checkpoint file layout (all little-endian):
//
//	magic    [4]byte "NPCK"
//	version  uint16  (currently 1)
//	elem     uint16  element width in bytes (4 or 8, matching tableio)
//	n        uint64  logical problem size
//	tile     uint32  memory-block side in cells
//	sched    uint32  scheduling-block side in memory blocks (g)
//	tasks    uint32  scheduler task count
//	nblocks  uint32  number of saved memory blocks
//	bitmap   ceil(tasks/8) bytes — completed-task bitmap, LSB-first
//	blocks   nblocks × { bi uint32, bj uint32, tile² elements }
//	crc      uint32  CRC-32 (IEEE) of every preceding byte
//
// The format is self-describing (saved blocks carry their coordinates)
// so the reader needs no knowledge of the dependence graph, and the
// trailing checksum means a truncated or bit-flipped snapshot is
// rejected instead of silently resuming wrong state.

// CheckpointMagic identifies the snapshot format.
const CheckpointMagic = "NPCK"

// CheckpointVersion is the current snapshot format version.
const CheckpointVersion uint16 = 1

// maxCheckpointN bounds the problem size a reader will believe, matching
// tableio's plausibility limit. maxCheckpointTile and maxCheckpointBlocks
// bound the tile side and blocks per side so a hostile header cannot make
// the reader allocate unbounded memory before the checksum rejects it.
const (
	maxCheckpointN      = 1 << 24
	maxCheckpointTile   = 1 << 12
	maxCheckpointBlocks = 1 << 12
)

// Meta identifies the solve a checkpoint belongs to. A snapshot only
// resumes a run with identical geometry.
type Meta struct {
	N         int // logical problem size
	Tile      int // memory-block side in cells
	SchedSide int // scheduling-block side in memory blocks
	Tasks     int // scheduler task count
	ElemBytes int // element width (4 or 8)
}

// checkMeta validates internal consistency: sizes plausible, and the
// task count matching the block/scheduling geometry.
func (m Meta) checkMeta() error {
	if m.N <= 0 || m.N > maxCheckpointN {
		return fmt.Errorf("resilience: implausible problem size %d", m.N)
	}
	// The tile may exceed n (one padded block) but must stay plausible;
	// the cap also bounds the per-block allocation a reader performs
	// before it can detect truncation.
	if m.Tile <= 0 || m.Tile > maxCheckpointTile {
		return fmt.Errorf("resilience: implausible tile side %d", m.Tile)
	}
	if m.SchedSide <= 0 {
		return fmt.Errorf("resilience: implausible scheduling side %d", m.SchedSide)
	}
	if m.ElemBytes != 4 && m.ElemBytes != 8 {
		return fmt.Errorf("resilience: element width %d not 4 or 8", m.ElemBytes)
	}
	mblocks := (m.N + m.Tile - 1) / m.Tile
	if mblocks > maxCheckpointBlocks {
		return fmt.Errorf("resilience: implausible block count %d per side", mblocks)
	}
	ms := (mblocks + m.SchedSide - 1) / m.SchedSide
	if want := ms * (ms + 1) / 2; m.Tasks != want {
		return fmt.Errorf("resilience: %d tasks inconsistent with %d scheduling blocks per side (want %d)", m.Tasks, ms, want)
	}
	return nil
}

// blocksPerSide returns the memory-block count per side.
func (m Meta) blocksPerSide() int { return (m.N + m.Tile - 1) / m.Tile }

// Checkpoint is a decoded snapshot: the completion bitmap plus the saved
// memory blocks of every completed task.
type Checkpoint[E semiring.Elem] struct {
	Meta Meta
	// Done is the completed-task bitmap, indexed by scheduler task ID.
	Done []bool
	// blocks maps (bi, bj) to the saved cells of that memory block.
	blocks map[[2]int][]E
}

// DoneCount returns the number of completed tasks recorded.
func (c *Checkpoint[E]) DoneCount() int {
	n := 0
	for _, d := range c.Done {
		if d {
			n++
		}
	}
	return n
}

// HasBlock reports whether the snapshot carries memory block (bi, bj).
func (c *Checkpoint[E]) HasBlock(bi, bj int) bool {
	_, ok := c.blocks[[2]int{bi, bj}]
	return ok
}

// Block returns the saved cells of memory block (bi, bj), if the
// snapshot carries it. The slice is the checkpoint's own storage — the
// caller copies, never mutates.
func (c *Checkpoint[E]) Block(bi, bj int) ([]E, bool) {
	cells, ok := c.blocks[[2]int{bi, bj}]
	return cells, ok
}

// Matches verifies the snapshot belongs to a solve with this geometry.
func (c *Checkpoint[E]) Matches(n, tile, schedSide int) error {
	var e E
	if got, want := c.Meta.ElemBytes, tableio.ElemWidth(e); got != want {
		return fmt.Errorf("resilience: checkpoint holds %d-byte elements, solve uses %d", got, want)
	}
	if c.Meta.N != n || c.Meta.Tile != tile || c.Meta.SchedSide != schedSide {
		return fmt.Errorf("resilience: checkpoint geometry n=%d tile=%d sched=%d does not match solve n=%d tile=%d sched=%d",
			c.Meta.N, c.Meta.Tile, c.Meta.SchedSide, n, tile, schedSide)
	}
	return nil
}

// Apply copies every saved memory block into t, which must have the
// snapshot's geometry. Uncompleted blocks are untouched.
func (c *Checkpoint[E]) Apply(t *tri.Tiled[E]) error {
	if t.Len() != c.Meta.N || t.Tile() != c.Meta.Tile {
		return fmt.Errorf("resilience: cannot apply checkpoint (n=%d tile=%d) to table (n=%d tile=%d)",
			c.Meta.N, c.Meta.Tile, t.Len(), t.Tile())
	}
	for key, cells := range c.blocks {
		copy(t.Block(key[0], key[1]), cells)
	}
	return nil
}

// WriteCheckpoint serializes a snapshot: the completion bitmap `done`
// (indexed by task ID) and the listed memory blocks read from t. The
// caller guarantees the listed blocks are final (their tasks completed);
// the codec does not interpret the dependence graph.
func WriteCheckpoint[E semiring.Elem](w io.Writer, meta Meta, done []bool, t *tri.Tiled[E], blocks [][2]int) error {
	if err := meta.checkMeta(); err != nil {
		return err
	}
	if len(done) != meta.Tasks {
		return fmt.Errorf("resilience: bitmap has %d entries for %d tasks", len(done), meta.Tasks)
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	var magic [4]byte
	copy(magic[:], CheckpointMagic)
	for _, v := range []any{magic, CheckpointVersion, uint16(meta.ElemBytes), uint64(meta.N),
		uint32(meta.Tile), uint32(meta.SchedSide), uint32(meta.Tasks), uint32(len(blocks))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("resilience: writing header: %w", err)
		}
	}
	bitmap := make([]byte, (meta.Tasks+7)/8)
	for id, d := range done {
		if d {
			bitmap[id/8] |= 1 << (id % 8)
		}
	}
	if _, err := bw.Write(bitmap); err != nil {
		return fmt.Errorf("resilience: writing bitmap: %w", err)
	}
	var e E
	raw := make([]byte, tableio.ElemWidth(e)*t.Tile()*t.Tile())
	for _, b := range blocks {
		if err := binary.Write(bw, binary.LittleEndian, [2]uint32{uint32(b[0]), uint32(b[1])}); err != nil {
			return fmt.Errorf("resilience: writing block header: %w", err)
		}
		tableio.EncodeCells(raw, t.Block(b[0], b[1]))
		if _, err := bw.Write(raw); err != nil {
			return fmt.Errorf("resilience: writing block (%d,%d): %w", b[0], b[1], err)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The checksum itself goes only to w (it cannot cover itself).
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("resilience: writing checksum: %w", err)
	}
	return nil
}

// ReadCheckpoint decodes and fully validates a snapshot: magic, version,
// element width, geometry consistency, block coordinates, and the
// trailing CRC. Corrupt or truncated input returns an error — never a
// panic, never a silently wrong checkpoint.
func ReadCheckpoint[E semiring.Elem](r io.Reader) (*Checkpoint[E], error) {
	crc := crc32.NewIEEE()
	br := bufio.NewReader(r)
	tr := io.TeeReader(br, crc)

	var hdr struct {
		Magic   [4]byte
		Version uint16
		Elem    uint16
		N       uint64
		Tile    uint32
		Sched   uint32
		Tasks   uint32
		NBlocks uint32
	}
	if err := binary.Read(tr, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("resilience: reading checkpoint header: %w", err)
	}
	if string(hdr.Magic[:]) != CheckpointMagic {
		return nil, fmt.Errorf("resilience: bad checkpoint magic %q", hdr.Magic)
	}
	if hdr.Version != CheckpointVersion {
		return nil, fmt.Errorf("resilience: unsupported checkpoint version %d", hdr.Version)
	}
	meta := Meta{
		N:         int(hdr.N),
		Tile:      int(hdr.Tile),
		SchedSide: int(hdr.Sched),
		Tasks:     int(hdr.Tasks),
		ElemBytes: int(hdr.Elem),
	}
	if hdr.N > maxCheckpointN {
		return nil, fmt.Errorf("resilience: implausible problem size %d", hdr.N)
	}
	if err := meta.checkMeta(); err != nil {
		return nil, err
	}
	var e E
	if got, want := meta.ElemBytes, tableio.ElemWidth(e); got != want {
		return nil, fmt.Errorf("resilience: checkpoint holds %d-byte elements, requested type has %d", got, want)
	}
	mblocks := meta.blocksPerSide()
	if int(hdr.NBlocks) > mblocks*(mblocks+1)/2 {
		return nil, fmt.Errorf("resilience: %d saved blocks exceed the %d-block triangle", hdr.NBlocks, mblocks*(mblocks+1)/2)
	}

	bitmap := make([]byte, (meta.Tasks+7)/8)
	if _, err := io.ReadFull(tr, bitmap); err != nil {
		return nil, fmt.Errorf("resilience: reading bitmap: %w", err)
	}
	ck := &Checkpoint[E]{
		Meta:   meta,
		Done:   make([]bool, meta.Tasks),
		blocks: make(map[[2]int][]E, hdr.NBlocks),
	}
	for id := range ck.Done {
		ck.Done[id] = bitmap[id/8]&(1<<(id%8)) != 0
	}

	cells := meta.Tile * meta.Tile
	var raw []byte // one block's bytes, allocated at the first block
	for b := 0; b < int(hdr.NBlocks); b++ {
		var coord [2]uint32
		if err := binary.Read(tr, binary.LittleEndian, &coord); err != nil {
			return nil, fmt.Errorf("resilience: reading block %d header: %w", b, err)
		}
		bi, bj := int(coord[0]), int(coord[1])
		if bi < 0 || bj < bi || bj >= mblocks {
			return nil, fmt.Errorf("resilience: block (%d,%d) outside the upper triangle of %d tiles", bi, bj, mblocks)
		}
		key := [2]int{bi, bj}
		if _, dup := ck.blocks[key]; dup {
			return nil, fmt.Errorf("resilience: duplicate saved block (%d,%d)", bi, bj)
		}
		if raw == nil {
			raw = make([]byte, meta.ElemBytes*cells)
		}
		if _, err := io.ReadFull(tr, raw); err != nil {
			return nil, fmt.Errorf("resilience: reading block (%d,%d): %w", bi, bj, err)
		}
		data := make([]E, cells)
		tableio.DecodeCells(data, raw)
		ck.blocks[key] = data
	}
	sum := crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("resilience: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != sum {
		return nil, fmt.Errorf("resilience: checksum mismatch: file %08x, computed %08x", got, sum)
	}
	return ck, nil
}

// SaveCheckpointFile atomically writes a snapshot to path: it serializes
// into a temporary file in the same directory and renames it over the
// target, so a crash mid-write never leaves a torn checkpoint where a
// resume would find it. The temp name carries the writer's pid
// (`<base>.tmp-p<pid>-*`) so RemoveStaleTemps in another process sharing
// the checkpoint dir — a cluster coordinator and a resuming single-process
// run, say — can tell an in-flight peer temp from an orphan.
func SaveCheckpointFile[E semiring.Elem](path string, meta Meta, done []bool, t *tri.Tiled[E], blocks [][2]int) error {
	tmp, err := CreateOwnedTemp(path)
	if err != nil {
		return fmt.Errorf("resilience: creating checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := WriteCheckpoint(tmp, meta, done, t, blocks); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("resilience: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resilience: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("resilience: publishing checkpoint: %w", err)
	}
	return nil
}

// ErrNoCheckpoint reports that a resume path names no checkpoint file.
// Callers match it with errors.Is to distinguish "nothing to resume"
// from a corrupt or unreadable snapshot.
var ErrNoCheckpoint = errors.New("resilience: no checkpoint file")

// LoadCheckpointFile reads and validates a snapshot from path. A missing
// file returns ErrNoCheckpoint (wrapped with the path).
func LoadCheckpointFile[E semiring.Elem](path string) (*Checkpoint[E], error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, path)
		}
		return nil, fmt.Errorf("resilience: opening checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint[E](f)
}

// tempPrefix is the owner-tagged infix CreateOwnedTemp appends to the
// target's base name: `.tmp-p<pid>-` followed by os.CreateTemp's random
// suffix. The pid is the ownership claim RemoveStaleTemps consults.
func tempPrefix(pid int) string { return fmt.Sprintf(".tmp-p%d-", pid) }

// CreateOwnedTemp creates a pid-tagged temporary file next to path, named
// `<base>.tmp-p<pid>-<random>` — the naming contract every atomic
// temp+rename writer in the repo shares (checkpoint snapshots, the
// pager's spill data file and spill index), so one RemoveStaleTemps sweep
// over the target path reclaims any of their crash orphans while leaving
// a live peer's in-flight write alone. The caller writes, syncs, and
// renames the file over path (or removes it on failure).
func CreateOwnedTemp(path string) (*os.File, error) {
	return os.CreateTemp(filepath.Dir(path), filepath.Base(path)+tempPrefix(os.Getpid())+"*")
}

// tempOwner extracts the owner pid from a checkpoint temp file name given
// the `<base>.tmp` stem, or ok=false for legacy un-tagged temps
// (`<base>.tmp<random>` from older writers) which carry no claim.
func tempOwner(name, stem string) (pid int, ok bool) {
	rest, found := strings.CutPrefix(name, stem+"-p")
	if !found {
		return 0, false
	}
	digits, _, found := strings.Cut(rest, "-")
	if !found || digits == "" {
		return 0, false
	}
	pid, err := strconv.Atoi(digits)
	if err != nil || pid <= 0 {
		return 0, false
	}
	return pid, true
}

// pidAlive reports whether a process with the given pid exists right now.
// Signal 0 performs the existence check without delivering anything; EPERM
// means the pid exists but belongs to another user, which still counts as
// alive — when in doubt a sweep must not delete a peer's in-flight temp.
func pidAlive(pid int) bool {
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false // process is certainly gone (non-Unix semantics)
	}
	err = proc.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}

// RemoveStaleTemps deletes leftover temporary files of the target at
// path — the `<base>.tmp*` files CreateOwnedTemp-based writers (the
// checkpoint snapshotter, the pager's spill data file and spill index)
// produce before their atomic rename. A crash — or a SIGKILL mid-spill —
// between creating the temp and renaming it orphans one; resume and
// pager open call this so crashed runs do not accumulate file-size-worth
// of dead bytes next to the live target. It returns how many files were
// removed.
//
// The sweep is safe under multiple processes sharing a directory: temps
// are owner-tagged with the writer's pid, and a temp whose owner is a
// live process other than the caller is a peer's in-flight write and is
// left alone. Own temps, temps of dead pids, and legacy un-tagged temps
// are removed. Only `.tmp` siblings of this target are ever touched, so
// unrelated files (and the target itself) are never at risk.
func RemoveStaleTemps(path string) (int, error) {
	stem := filepath.Base(path) + ".tmp"
	matches, err := filepath.Glob(filepath.Join(filepath.Dir(path), stem+"*"))
	if err != nil {
		return 0, fmt.Errorf("resilience: scanning for stale checkpoint temps: %w", err)
	}
	self := os.Getpid()
	removed := 0
	for _, m := range matches {
		if pid, ok := tempOwner(filepath.Base(m), stem); ok && pid != self && pidAlive(pid) {
			continue // a live peer's in-flight write
		}
		if err := os.Remove(m); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // a concurrent writer's rename already consumed it
			}
			return removed, fmt.Errorf("resilience: removing stale checkpoint temp: %w", err)
		}
		removed++
	}
	return removed, nil
}
