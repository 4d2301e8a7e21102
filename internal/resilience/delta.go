package resilience

import (
	"encoding/binary"
	"fmt"

	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tableio"
)

// Checkpoint deltas are the replication unit of coordinator failover:
// instead of shipping whole NPCK snapshots, a primary streams one
// self-checking record per completion-log entry — "task T at generation
// G completed; here are its sealed blocks" — and a standby folds each
// into an in-memory Checkpoint. The record format mirrors the cluster
// task message (same per-block CRC32C seals over the canonical cell
// encoding, so one digest is both the transport check and the block
// seal) with a delta header and a whole-record trailer on top.
//
// Delta record layout (all little-endian):
//
//	magic    [4]byte "NPKD"
//	version  uint16  (currently 1)
//	kind     uint8   DeltaTaskDone | DeltaTaskReset | DeltaSyncBegin
//	epoch    uint32  leader epoch the record was produced under
//	task     uint32  scheduler task ID
//	gen      uint32  dispatch generation at completion
//	nblocks  uint32
//	blocks   nblocks × { bi uint32, bj uint32, crc uint32,
//	                     nbytes uint32, cells }
//	crc      uint32  CRC32C of every preceding byte
//
// DeltaTaskDone carries the task's own blocks at their installed final
// bytes. DeltaTaskReset (a heal or pristine restart un-did the task)
// carries block coordinates only — nbytes 0, crc 0 (the CRC32C of zero
// bytes) — telling the replica to forget them. DeltaSyncBegin resets
// the replica's state entirely; a (re)connecting stream opens with it
// followed by a DeltaTaskDone per completed task, so replication is
// idempotent across stream loss.

// DeltaMagic identifies a checkpoint delta record.
const DeltaMagic = "NPKD"

// DeltaVersion is the current delta format version.
const DeltaVersion uint16 = 1

// DeltaKind says what a delta does to the replica's checkpoint.
type DeltaKind uint8

const (
	// DeltaTaskDone marks a task complete and installs its final blocks.
	DeltaTaskDone DeltaKind = iota + 1
	// DeltaTaskReset un-marks a task and drops its blocks (heal/restart).
	DeltaTaskReset
	// DeltaSyncBegin clears all replicated state; a full resync follows.
	DeltaSyncBegin
)

// deltaHeaderLen is the fixed byte count before the block list.
const deltaHeaderLen = 4 + 2 + 1 + 4 + 4 + 4 + 4

// DeltaBlock is one memory block in a delta record: coordinates, the
// CRC32C seal of Raw, and the cells in canonical element encoding (Raw
// empty for reset records).
type DeltaBlock struct {
	Bi, Bj int
	CRC    uint32
	Raw    []byte
}

// Delta is one replicated completion-log record.
type Delta struct {
	Kind   DeltaKind
	Epoch  uint32
	TaskID int
	Gen    uint32
	Blocks []DeltaBlock
}

// Encode serializes the record with its trailing CRC32C.
func (d Delta) Encode() []byte {
	size := deltaHeaderLen + 4
	for _, b := range d.Blocks {
		size += 16 + len(b.Raw)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, DeltaMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, DeltaVersion)
	buf = append(buf, byte(d.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, d.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.TaskID))
	buf = binary.LittleEndian.AppendUint32(buf, d.Gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Blocks)))
	for _, b := range d.Blocks {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Bi))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Bj))
		buf = binary.LittleEndian.AppendUint32(buf, b.CRC)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Raw)))
		buf = append(buf, b.Raw...)
	}
	return binary.LittleEndian.AppendUint32(buf, RawCRC(buf))
}

// DecodeDelta parses and fully validates one record: magic, version,
// kind, the untrusted block count bounded by payload capacity before
// allocation, every per-block seal re-digested, and the trailing CRC.
func DecodeDelta(p []byte) (Delta, error) {
	if len(p) < deltaHeaderLen+4 {
		return Delta{}, fmt.Errorf("resilience: delta record truncated")
	}
	body, tail := p[:len(p)-4], p[len(p)-4:]
	if got, want := RawCRC(body), binary.LittleEndian.Uint32(tail); got != want {
		return Delta{}, fmt.Errorf("resilience: delta checksum mismatch: got %08x, want %08x", got, want)
	}
	if string(body[:4]) != DeltaMagic {
		return Delta{}, fmt.Errorf("resilience: bad delta magic %q", body[:4])
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != DeltaVersion {
		return Delta{}, fmt.Errorf("resilience: unsupported delta version %d", v)
	}
	d := Delta{
		Kind:   DeltaKind(body[6]),
		Epoch:  binary.LittleEndian.Uint32(body[7:]),
		TaskID: int(binary.LittleEndian.Uint32(body[11:])),
		Gen:    binary.LittleEndian.Uint32(body[15:]),
	}
	switch d.Kind {
	case DeltaTaskDone, DeltaTaskReset, DeltaSyncBegin:
	default:
		return Delta{}, fmt.Errorf("resilience: unknown delta kind %d", d.Kind)
	}
	nblocks := int(binary.LittleEndian.Uint32(body[19:]))
	if nblocks > (len(body)-deltaHeaderLen)/16 {
		return Delta{}, fmt.Errorf("resilience: delta claims %d blocks, payload holds at most %d",
			nblocks, (len(body)-deltaHeaderLen)/16)
	}
	off := deltaHeaderLen
	d.Blocks = make([]DeltaBlock, 0, nblocks)
	for b := 0; b < nblocks; b++ {
		if len(body)-off < 16 {
			return Delta{}, fmt.Errorf("resilience: delta block header %d truncated", b)
		}
		db := DeltaBlock{
			Bi:  int(binary.LittleEndian.Uint32(body[off:])),
			Bj:  int(binary.LittleEndian.Uint32(body[off+4:])),
			CRC: binary.LittleEndian.Uint32(body[off+8:]),
		}
		nbytes := int(binary.LittleEndian.Uint32(body[off+12:]))
		off += 16
		if len(body)-off < nbytes {
			return Delta{}, fmt.Errorf("resilience: delta block %d cells truncated", b)
		}
		db.Raw = body[off : off+nbytes]
		off += nbytes
		// Re-digest the per-block seal: the trailer already proved the
		// record arrived intact, this proves the sender sealed the same
		// bytes it shipped (the invariant a takeover's audit relies on).
		if got := RawCRC(db.Raw); got != db.CRC {
			return Delta{}, fmt.Errorf("resilience: delta block (%d,%d) seal mismatch: got %08x, want %08x",
				db.Bi, db.Bj, got, db.CRC)
		}
		d.Blocks = append(d.Blocks, db)
	}
	if off != len(body) {
		return Delta{}, fmt.Errorf("resilience: %d trailing bytes after delta record", len(body)-off)
	}
	return d, nil
}

// NewCheckpoint builds an empty in-memory checkpoint a replica folds
// deltas into — the warm-standby's shadow of the primary's progress.
func NewCheckpoint[E semiring.Elem](meta Meta) (*Checkpoint[E], error) {
	if err := meta.checkMeta(); err != nil {
		return nil, err
	}
	var e E
	if got, want := meta.ElemBytes, tableio.ElemWidth(e); got != want {
		return nil, fmt.Errorf("resilience: meta holds %d-byte elements, requested type has %d", got, want)
	}
	return &Checkpoint[E]{
		Meta:   meta,
		Done:   make([]bool, meta.Tasks),
		blocks: make(map[[2]int][]E),
	}, nil
}

// MarkDone records a task complete.
func (c *Checkpoint[E]) MarkDone(task int) error {
	if task < 0 || task >= len(c.Done) {
		return fmt.Errorf("resilience: task %d outside the %d-task graph", task, len(c.Done))
	}
	c.Done[task] = true
	return nil
}

// ClearDone un-records a task (a heal or restart reverted it).
func (c *Checkpoint[E]) ClearDone(task int) {
	if task >= 0 && task < len(c.Done) {
		c.Done[task] = false
	}
}

// PutBlock decodes raw wire cells into the checkpoint's copy of memory
// block (bi, bj), validating triangle bounds and the exact byte count.
func (c *Checkpoint[E]) PutBlock(bi, bj int, raw []byte) error {
	mblocks := c.Meta.blocksPerSide()
	if bi < 0 || bj < bi || bj >= mblocks {
		return fmt.Errorf("resilience: block (%d,%d) outside the upper triangle of %d tiles", bi, bj, mblocks)
	}
	var e E
	width := tableio.ElemWidth(e)
	cells := c.Meta.Tile * c.Meta.Tile
	if len(raw) != width*cells {
		return fmt.Errorf("resilience: block (%d,%d) carries %d bytes, want %d", bi, bj, len(raw), width*cells)
	}
	data := make([]E, cells)
	tableio.DecodeCells(data, raw)
	c.blocks[[2]int{bi, bj}] = data
	return nil
}

// DropBlock forgets the checkpoint's copy of memory block (bi, bj).
func (c *Checkpoint[E]) DropBlock(bi, bj int) {
	delete(c.blocks, [2]int{bi, bj})
}

// Reset clears every completed task and saved block (DeltaSyncBegin).
func (c *Checkpoint[E]) Reset() {
	for i := range c.Done {
		c.Done[i] = false
	}
	c.blocks = make(map[[2]int][]E)
}
