// Package cluster implements the sharded coordinator/worker solve
// protocol: the coordinator owns the authoritative table and the task
// dependence graph, partitions the scheduling-block grid into contiguous
// column shards, and streams sealed operand blocks to worker processes
// that execute tasks with the same engine code path the single-process
// solvers use. The mapping onto the paper is direct: the coordinator
// plays the PPE (it owns main memory and the scheduler), the workers
// play the SPE ring (each computes blocks in its local store), and the
// boundary-block streaming is the DMA of nearest-block operands —
// except here every transfer carries a CRC32C seal, so silent transport
// or memory corruption is detected at install time and healed with the
// poisoned-cone recompute of the single-process engines (see DESIGN.md
// §10).
package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"

	"cellnpdp/internal/resilience"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tableio"
)

// Wire format: length-prefixed frames, every frame checksummed.
//
//	type    uint8   frame kind
//	length  uint32  payload byte count (LE)
//	payload length bytes
//	crc     uint32  CRC32C of type byte + payload (LE)
//
// Messages (payload layouts, all little-endian):
//
//	hello    magic "NPCL", version uint16, epoch uint32, nameLen uint16,
//	         name (epoch = highest the worker has ever been welcomed at,
//	         0 on first contact)
//	welcome  version uint16, elem uint16, n uint64, tile uint32,
//	         sched uint32, shards uint32, slot uint32,
//	         heartbeatMS uint32, deadlineMS uint32, epoch uint32
//	         (40 bytes)
//	dispatch epoch uint32, gen uint32, task uint32, nblocks uint32,
//	         then per block: bi uint32, bj uint32, crc uint32,
//	         nbytes uint32, cells
//	result   same layout as dispatch
//	ping     empty
//	done     empty
//	fail     msgLen uint16, message
//	standby  empty (a standby telling a worker it is not a leader yet:
//	         retryable, unlike fail)
//	fenced   epoch uint32 (the fencing side's current epoch; to a worker
//	         it means re-home, to a deposed coordinator it is terminal)
//	rhello   a hello, then a welcome with slot 0 (a primary opening its
//	         replication stream to a standby: the full job description,
//	         so a takeover resumes with identical geometry)
//	rwelcome epoch uint32 (the standby accepting the stream)
//	rdone    same layout as result: a task the primary installed, with
//	         its own blocks at their final bytes and their seals
//	rreset   same layout, gen 0, no blocks: a heal or restart demoted
//	         the task
//	rsync    same layout, gen 0, task 0, no blocks: forget every task;
//	         each stream (re)connect opens with one, then an rdone per
//	         completed task
//
// Block cells travel in the canonical tableio element encoding
// (little-endian at the element width), so the per-block crc field —
// CRC32C over exactly those bytes — is by construction the same value
// resilience.BlockCRC computes over the decoded cells. One digest
// serves as both the transport check and the block seal.

// ProtoMagic opens every hello.
const ProtoMagic = "NPCL"

// ProtoVersion is the current protocol version; coordinator and worker
// must match exactly. Version 2 added epoch fencing and the standby
// replication stream; version 3 dropped the stage-1 kernel byte from
// the welcome and the replication hello (every host runs its own
// ISA's bit-identical kernels); version 4 made the replication hello a
// hello plus a welcome and every replication record a task message.
const ProtoVersion uint16 = 4

// Frame kinds.
const (
	frameHello byte = iota + 1
	frameWelcome
	frameDispatch
	frameResult
	framePing
	frameDone
	frameFail
	frameStandby
	frameFenced
	frameReplHello
	frameReplWelcome
	frameReplDone
	frameReplReset
	frameReplSync
)

// maxFramePayload bounds what a reader will buffer for one frame. The
// largest legitimate frame is a dispatch carrying a long operand row of
// memory blocks; 1 GiB clears any geometry the checkpoint codec accepts
// while still rejecting a nonsense length before allocation.
const maxFramePayload = 1 << 30

// Byte counts of the fixed parts of the layouts above.
const (
	frameHeaderLen  = 5  // kind, payload length
	frameTrailerLen = 4  // crc
	taskHeaderLen   = 16 // epoch, gen, task, nblocks
	blockHeaderLen  = 16 // bi, bj, crc, nbytes
	welcomeLen      = 40 // the whole welcome
)

// castagnoli is the CRC32C table frame checksums use (the polynomial
// of the block seals, resilience.BlockCRC and resilience.RawCRC).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameBuf is a pooled buffer holding one whole wire frame: header,
// payload and trailer, so a frame is built once in place and leaves in
// one Write. It has one owner at a time. The event loop builds a
// dispatch frame and the session writer returns it after the write; a
// session reader fills a result frame and the event loop returns it
// after installing or dropping the result. Nothing may keep a view into
// a frame once it is back in the pool.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrame() *frameBuf { return framePool.Get().(*frameBuf) }

// putFrame returns f to the pool; a nil f is a no-op.
func putFrame(f *frameBuf) {
	if f != nil {
		f.b = f.b[:0]
		framePool.Put(f)
	}
}

// beginFrame resets buf to the start of a frame of kind typ; the payload
// is appended after it, and endFrame closes the frame.
func beginFrame(buf []byte, typ byte) []byte { return append(buf[:0], typ, 0, 0, 0, 0) }

// endFrame patches the payload length of the frame begun in frame and
// appends the CRC32C of its kind byte and payload.
func endFrame(frame []byte) []byte {
	payload := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[1:], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum(frame[:1], castagnoli), castagnoli, payload)
	return binary.LittleEndian.AppendUint32(frame, crc)
}

// framePayload is the payload of a whole frame.
func framePayload(frame []byte) []byte {
	return frame[frameHeaderLen : len(frame)-frameTrailerLen]
}

// newFrame builds the whole frame of kind typ around payload in a pooled
// buffer.
func newFrame(typ byte, payload []byte) *frameBuf {
	fb := getFrame()
	fb.b = endFrame(append(beginFrame(fb.b, typ), payload...))
	return fb
}

// writeFrame emits one checksummed frame in one Write.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	fb := newFrame(typ, payload)
	_, err := w.Write(fb.b)
	putFrame(fb)
	if err != nil {
		return fmt.Errorf("cluster: writing frame: %w", err)
	}
	return nil
}

// readFrame reads and verifies one frame into a fresh buffer.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	typ, payload, _, err = readFrameInto(r, nil)
	return typ, payload, err
}

// readFrameInto reads and verifies one frame into buf's storage, grown
// as needed. It returns the frame kind, the payload and the buffer,
// which now holds the whole frame; the payload is a view into it. The
// header comes first in its own read, so a length over the limit is
// rejected before any buffer grows.
func readFrameInto(r io.Reader, buf []byte) (typ byte, payload, frame []byte, err error) {
	frame = append(buf[:0], 0, 0, 0, 0, 0)
	if _, err := io.ReadFull(r, frame); err != nil {
		return 0, nil, frame, err
	}
	n := binary.LittleEndian.Uint32(frame[1:])
	if n > maxFramePayload {
		return 0, nil, frame, fmt.Errorf("cluster: frame payload %d exceeds limit", n)
	}
	size := frameHeaderLen + int(n) + frameTrailerLen
	frame = slices.Grow(frame, size-len(frame))[:size]
	if _, err := io.ReadFull(r, frame[frameHeaderLen:]); err != nil {
		return 0, nil, frame, fmt.Errorf("cluster: reading frame body: %w", err)
	}
	payload = framePayload(frame)
	want := binary.LittleEndian.Uint32(frame[size-frameTrailerLen:])
	got := crc32.Update(crc32.Checksum(frame[:1], castagnoli), castagnoli, payload)
	if got != want {
		return 0, nil, frame, fmt.Errorf("cluster: frame checksum mismatch: got %08x, want %08x", got, want)
	}
	return frame[0], payload, frame, nil
}

// helloMsg is a worker's opening frame. Epoch is the highest epoch the
// worker has ever been welcomed at (0 before first contact): a
// coordinator seeing a hello from the future knows it has been deposed.
type helloMsg struct {
	Epoch uint32
	Name  string
}

func (m helloMsg) encode() []byte {
	buf := make([]byte, 0, 12+len(m.Name))
	buf = append(buf, ProtoMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, ProtoVersion)
	buf = binary.LittleEndian.AppendUint32(buf, m.Epoch)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Name)))
	return append(buf, m.Name...)
}

func decodeHello(p []byte) (helloMsg, error) {
	if len(p) < 12 || string(p[:4]) != ProtoMagic {
		return helloMsg{}, fmt.Errorf("cluster: bad hello magic")
	}
	if v := binary.LittleEndian.Uint16(p[4:]); v != ProtoVersion {
		return helloMsg{}, &ErrProtocolVersion{Got: v, Want: ProtoVersion}
	}
	n := int(binary.LittleEndian.Uint16(p[10:]))
	if len(p) != 12+n {
		return helloMsg{}, fmt.Errorf("cluster: hello length mismatch")
	}
	return helloMsg{
		Epoch: binary.LittleEndian.Uint32(p[6:]),
		Name:  string(p[12:]),
	}, nil
}

// welcomeMsg is the coordinator's job description: everything a worker
// needs to rebuild the scheduling graph and size its local table.
type welcomeMsg struct {
	ElemBytes   int
	N           int
	Tile        int
	SchedSide   int
	Shards      int
	Slot        int
	HeartbeatMS uint32
	DeadlineMS  uint32
	Epoch       uint32
}

func (m welcomeMsg) encode() []byte {
	buf := make([]byte, 0, welcomeLen)
	buf = binary.LittleEndian.AppendUint16(buf, ProtoVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(m.ElemBytes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.N))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Tile))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.SchedSide))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Shards))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Slot))
	buf = binary.LittleEndian.AppendUint32(buf, m.HeartbeatMS)
	buf = binary.LittleEndian.AppendUint32(buf, m.DeadlineMS)
	return binary.LittleEndian.AppendUint32(buf, m.Epoch)
}

func decodeWelcome(p []byte) (welcomeMsg, error) {
	if len(p) < 2 {
		return welcomeMsg{}, fmt.Errorf("cluster: welcome truncated")
	}
	if v := binary.LittleEndian.Uint16(p[0:]); v != ProtoVersion {
		return welcomeMsg{}, &ErrProtocolVersion{Got: v, Want: ProtoVersion}
	}
	if len(p) != welcomeLen {
		return welcomeMsg{}, fmt.Errorf("cluster: welcome length %d, want %d", len(p), welcomeLen)
	}
	m := welcomeMsg{
		ElemBytes:   int(binary.LittleEndian.Uint16(p[2:])),
		N:           int(binary.LittleEndian.Uint64(p[4:])),
		Tile:        int(binary.LittleEndian.Uint32(p[12:])),
		SchedSide:   int(binary.LittleEndian.Uint32(p[16:])),
		Shards:      int(binary.LittleEndian.Uint32(p[20:])),
		Slot:        int(binary.LittleEndian.Uint32(p[24:])),
		HeartbeatMS: binary.LittleEndian.Uint32(p[28:]),
		DeadlineMS:  binary.LittleEndian.Uint32(p[32:]),
		Epoch:       binary.LittleEndian.Uint32(p[36:]),
	}
	if m.ElemBytes != 4 && m.ElemBytes != 8 {
		return welcomeMsg{}, fmt.Errorf("cluster: welcome element width %d not 4 or 8", m.ElemBytes)
	}
	if m.N <= 0 || m.Tile <= 0 || m.SchedSide <= 0 || m.Shards <= 0 {
		return welcomeMsg{}, fmt.Errorf("cluster: welcome geometry implausible: %+v", m)
	}
	return m, nil
}

// wireBlock is one memory block in flight: its tile coordinates, its
// CRC32C seal, and its cells in canonical element encoding.
type wireBlock struct {
	Bi, Bj int
	CRC    uint32
	Raw    []byte
}

// taskMsg is the shared payload of dispatch, result and replication
// record frames: one task, the leader epoch and dispatch generation it
// belongs to, and the blocks travelling with it (operands + pristine own
// blocks outward, computed own blocks back, installed own blocks to the
// standby). The epoch is sealed under the frame CRC with everything
// else, so a deposed leader cannot launder a stale result by rewriting
// it.
type taskMsg struct {
	Epoch  uint32
	Gen    uint32
	TaskID int
	Blocks []wireBlock
}

func (m taskMsg) encode() []byte {
	size := taskHeaderLen
	for _, b := range m.Blocks {
		size += blockHeaderLen + len(b.Raw)
	}
	return m.encodeBlocks(appendTaskHeader(make([]byte, 0, size), m.Epoch, m.Gen, m.TaskID, len(m.Blocks)))
}

// encodeBlocks appends m's blocks to buf, headers, seals and cells as
// they are.
func (m taskMsg) encodeBlocks(buf []byte) []byte {
	for _, b := range m.Blocks {
		buf = appendBlockHeader(buf, b.Bi, b.Bj, b.CRC, len(b.Raw))
		buf = append(buf, b.Raw...)
	}
	return buf
}

// appendTaskHeader appends the task-message header.
func appendTaskHeader(buf []byte, epoch, gen uint32, taskID, nblocks int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(taskID))
	return binary.LittleEndian.AppendUint32(buf, uint32(nblocks))
}

// appendBlockHeader appends the header of one block of a task message.
func appendBlockHeader(buf []byte, bi, bj int, crc uint32, nbytes int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bi))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bj))
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return binary.LittleEndian.AppendUint32(buf, uint32(nbytes))
}

// beginTaskFrame resets buf to a whole task frame of kind typ (dispatch,
// result or replication record) with its task header. Blocks follow through appendBlock or
// appendSealedBlock, and endTaskFrame closes the frame: the same bytes
// writeFrame emits for taskMsg.encode, with each block encoded once,
// straight from its cells.
func beginTaskFrame(buf []byte, typ byte, epoch, gen uint32, taskID int) []byte {
	return appendTaskHeader(beginFrame(buf, typ), epoch, gen, taskID, 0)
}

// endTaskFrame patches the block count of a task frame and closes it.
func endTaskFrame(frame []byte, nblocks int) []byte {
	binary.LittleEndian.PutUint32(frame[frameHeaderLen+12:], uint32(nblocks))
	return endFrame(frame)
}

// newRecord builds a blockless replication record (rreset or rsync) in
// a pooled buffer.
func newRecord(typ byte, epoch uint32, taskID int) *frameBuf {
	fb := getFrame()
	fb.b = endTaskFrame(beginTaskFrame(fb.b, typ, epoch, 0, taskID), 0)
	return fb
}

// appendBlock appends block (bi, bj) of a task frame: its header with
// the given seal, then its cells through tableio.EncodeCells.
func appendBlock[E semiring.Elem](buf []byte, bi, bj int, seal uint32, cells []E) []byte {
	var e E
	nbytes := tableio.ElemWidth(e) * len(cells)
	buf = appendBlockHeader(buf, bi, bj, seal, nbytes)
	off := len(buf)
	buf = slices.Grow(buf, nbytes)[:off+nbytes]
	tableio.EncodeCells(buf[off:], cells)
	return buf
}

// appendSealedBlock is appendBlock sealed with resilience.RawCRC over the
// bytes it just encoded: by construction resilience.BlockCRC(cells).
func appendSealedBlock[E semiring.Elem](buf []byte, bi, bj int, cells []E) []byte {
	off := len(buf)
	buf = appendBlock(buf, bi, bj, 0, cells)
	binary.LittleEndian.PutUint32(buf[off+8:], resilience.RawCRC(buf[off+blockHeaderLen:]))
	return buf
}

func decodeTaskMsg(p []byte) (taskMsg, error) {
	if len(p) < 16 {
		return taskMsg{}, fmt.Errorf("cluster: task message truncated")
	}
	m := taskMsg{
		Epoch:  binary.LittleEndian.Uint32(p[0:]),
		Gen:    binary.LittleEndian.Uint32(p[4:]),
		TaskID: int(binary.LittleEndian.Uint32(p[8:])),
	}
	nblocks := int(binary.LittleEndian.Uint32(p[12:]))
	// Bound the count by what the payload could possibly hold (16 header
	// bytes per block) before sizing the slice, so a CRC-valid frame with
	// a huge nblocks and a tiny payload cannot force a giant allocation.
	if nblocks > (len(p)-16)/16 {
		return taskMsg{}, fmt.Errorf("cluster: task message claims %d blocks, payload holds at most %d", nblocks, (len(p)-16)/16)
	}
	off := 16
	m.Blocks = make([]wireBlock, 0, nblocks)
	for b := 0; b < nblocks; b++ {
		if len(p)-off < 16 {
			return taskMsg{}, fmt.Errorf("cluster: block header %d truncated", b)
		}
		wb := wireBlock{
			Bi:  int(binary.LittleEndian.Uint32(p[off:])),
			Bj:  int(binary.LittleEndian.Uint32(p[off+4:])),
			CRC: binary.LittleEndian.Uint32(p[off+8:]),
		}
		nbytes := int(binary.LittleEndian.Uint32(p[off+12:]))
		off += 16
		if len(p)-off < nbytes {
			return taskMsg{}, fmt.Errorf("cluster: block %d cells truncated", b)
		}
		wb.Raw = p[off : off+nbytes]
		off += nbytes
		m.Blocks = append(m.Blocks, wb)
	}
	if off != len(p) {
		return taskMsg{}, fmt.Errorf("cluster: %d trailing bytes after task message", len(p)-off)
	}
	return m, nil
}

// failMsg reports a fatal worker-side condition before it drops the
// connection, so the coordinator logs a reason instead of a bare EOF.
type failMsg struct {
	Reason string
}

func (m failMsg) encode() []byte {
	r := m.Reason
	if len(r) > 1<<15 {
		r = r[:1<<15]
	}
	buf := make([]byte, 0, 2+len(r))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r)))
	return append(buf, r...)
}

func decodeFail(p []byte) (failMsg, error) {
	if len(p) < 2 || len(p) != 2+int(binary.LittleEndian.Uint16(p)) {
		return failMsg{}, fmt.Errorf("cluster: fail message length mismatch")
	}
	return failMsg{Reason: string(p[2:])}, nil
}

// decodeCells deserializes raw wire bytes into dst, enforcing the exact
// length the destination block requires.
func decodeCells[E semiring.Elem](dst []E, raw []byte) error {
	var e E
	width := tableio.ElemWidth(e)
	if len(raw) != width*len(dst) {
		return fmt.Errorf("cluster: block carries %d bytes, want %d", len(raw), width*len(dst))
	}
	tableio.DecodeCells(dst, raw)
	return nil
}

// decodeReplHello splits an rhello payload into its hello and its
// welcome, each checked by its own decoder.
func decodeReplHello(p []byte) (helloMsg, welcomeMsg, error) {
	n := 12
	if len(p) >= n {
		n += int(binary.LittleEndian.Uint16(p[10:]))
	}
	h, err := decodeHello(p[:min(n, len(p))])
	if err != nil {
		return helloMsg{}, welcomeMsg{}, err
	}
	w, err := decodeWelcome(p[n:])
	return h, w, err
}

// encodeEpoch is the shared payload of fenced and rwelcome frames: the
// sender's current epoch as a bare uint32.
func encodeEpoch(epoch uint32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], epoch)
	return buf[:]
}

func decodeEpoch(p []byte) (uint32, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("cluster: epoch payload length %d, want 4", len(p))
	}
	return binary.LittleEndian.Uint32(p), nil
}
