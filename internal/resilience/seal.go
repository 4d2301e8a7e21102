package resilience

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tableio"
)

// Block sealing is the algorithm-based fault-tolerance layer (Huang &
// Abraham's ABFT tradition) at the paper's natural recovery granularity:
// the memory block, the unit one DMA transfer moves and one task
// computes (Section IV-A). When a task finishes a block, the block's
// bytes are digested into a CRC32C seal; because a sealed block is
// immutable for the rest of the solve, any later seal mismatch proves a
// silent fault (bad RAM, a stray write) corrupted it after completion.
// The engines then recompute only the corrupted block's dependent cone
// instead of restarting, Charm++/Cilk-style task replay on the NPDP
// dependence graph.

// sealCastagnoli is the CRC32C table block seals and the serving
// layer's result digests use (hardware-accelerated on amd64/arm64).
var sealCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// sealChunkBytes is the scratch size UpdateCRC encodes through: 2048
// float32 or 1024 float64 cells per crc32.Update call.
const sealChunkBytes = 8 << 10

// sealScratch recycles UpdateCRC's encode buffers. A stack array would
// escape into crc32.Update and cost one heap allocation per digest.
var sealScratch = sync.Pool{New: func() any { return new([sealChunkBytes]byte) }}

// BlockCRC digests a memory block's cells into the CRC32C seal value:
// each cell serialized little-endian at its element width, exactly the
// byte stream the tableio and checkpoint codecs use, so
// BlockCRC(cells) == RawCRC(encoded cells). It is UpdateCRC(0, cells).
func BlockCRC[E semiring.Elem](cells []E) uint32 { return UpdateCRC(0, cells) }

// UpdateCRC is the chained form of BlockCRC: it returns the seal CRC32C
// of the byte stream crc already covers followed by cells' encoding, so
// UpdateCRC(UpdateCRC(0, x), y) == BlockCRC(x ++ y). Rows of a table
// digest through it one contiguous run at a time. It encodes chunk by
// chunk through tableio.EncodeCells into pooled scratch and allocates
// nothing.
func UpdateCRC[E semiring.Elem](crc uint32, cells []E) uint32 {
	var e E
	width := tableio.ElemWidth(e)
	buf := sealScratch.Get().(*[sealChunkBytes]byte)
	for len(cells) > 0 {
		n := min(len(cells), sealChunkBytes/width)
		tableio.EncodeCells(buf[:], cells[:n])
		crc = crc32.Update(crc, sealCastagnoli, buf[:n*width])
		cells = cells[n:]
	}
	sealScratch.Put(buf)
	return crc
}

// CombineCRC returns the seal CRC32C of a byte stream A followed by B
// from crcA, crcB and B's length in bytes, without reading either
// stream: CombineCRC(RawCRC(a), RawCRC(b), len(b)) == RawCRC(a ++ b).
// It is zlib's crc32_combine on the Castagnoli polynomial: crcA is
// carried through len2 bytes of zeros as a product with x^(8·len2)
// mod P in GF(2), and CRC's linearity does the rest. Digests that keep
// one CRC per band and one over the whole stream encode each cell once
// and combine the bands.
func CombineCRC(crcA, crcB uint32, len2 int) uint32 {
	// x2n = x^(2^k) mod P for k = 3.., starting at x^8 (one byte).
	x2n := uint32(1) << 30 // x^1 in the reflected bit order
	for k := 0; k < 3; k++ {
		x2n = mulModP(x2n, x2n)
	}
	p := uint32(1) << 31 // x^0
	for n := uint64(len2); n != 0; n >>= 1 {
		if n&1 != 0 {
			p = mulModP(x2n, p)
		}
		x2n = mulModP(x2n, x2n)
	}
	return mulModP(p, crcA) ^ crcB
}

// mulModP multiplies two polynomials modulo the reflected Castagnoli
// polynomial; a must be nonzero.
func mulModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; ; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				return p
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.Castagnoli
		} else {
			b >>= 1
		}
	}
}

// RawCRC is the seal polynomial's CRC32C over raw bytes. Over cells
// already in the element encoding — a spill slot's payload, wire cells,
// a delta block — it is their seal: RawCRC(encoded cells) ==
// BlockCRC(cells).
func RawCRC(raw []byte) uint32 { return crc32.Checksum(raw, sealCastagnoli) }

// CorruptBit flips one bit of one cell, both chosen deterministically
// from draw — the silent-fault model of FaultCorrupt. It returns the
// flipped cell index and bit position. Any single-bit flip changes the
// block's CRC32C, so an injected corruption is always detectable by a
// seal audit.
func CorruptBit[E semiring.Elem](cells []E, draw uint64) (cell, bit int) {
	if len(cells) == 0 {
		return 0, 0
	}
	var e E
	width := tableio.ElemWidth(e)
	cell = int(draw % uint64(len(cells)))
	bit = int((draw >> 32) % uint64(width*8))
	buf := make([]byte, 8)
	tableio.PutElem(buf, cells[cell])
	buf[bit/8] ^= 1 << (bit % 8)
	cells[cell] = tableio.GetElem[E](buf[:width])
	return cell, bit
}

// DigestThenFlip is the silent-fault model every engine and the cluster
// worker share. It digests each of a completed task's memory blocks
// into its CRC32C seal value, then applies the injector's planned
// FaultCorrupt for (task, attempt): one bit of one block, both chosen by
// CorruptDraw. The flip lands after the digest and before the caller
// publishes the blocks (Complete, or encoding onto the wire), so it is
// silent to the computation but the flipped block no longer matches
// the seal it carries. Every task that later consumes it seals its own
// garbage consistently, which is why recovery recomputes the whole
// dependence cone.
func DigestThenFlip[E semiring.Elem](blocks [][]E, inj *Injector, task, attempt int) []uint32 {
	crcs := make([]uint32, len(blocks))
	for i, b := range blocks {
		crcs[i] = BlockCRC(b)
	}
	if inj != nil && inj.Plan(task, attempt) == FaultCorrupt {
		draw := inj.CorruptDraw(task, attempt)
		CorruptBit(blocks[int((draw>>48)%uint64(len(blocks)))], draw)
	}
	return crcs
}

// sealedBit marks a SealTable entry as holding a live seal; the low 32
// bits are the CRC32C. A zero entry is unsealed.
const sealedBit = uint64(1) << 63

// SealTable is the lock-free per-block seal store: one atomic word per
// memory block (dense block ID), holding a sealed flag plus the block's
// CRC32C. Each block is sealed exactly once per completion by the one
// task that computed it, so plain atomic stores suffice; the atomic also
// carries the happens-before an auditor needs — a task's block writes
// precede its Seal (release), an auditor's Sealed load (acquire)
// precedes its block reads, so audits never race with computation.
type SealTable struct {
	seals []atomic.Uint64
}

// NewSealTable allocates a table for n blocks, all unsealed.
func NewSealTable(n int) *SealTable {
	if n < 0 {
		panic(fmt.Sprintf("resilience: negative seal-table size %d", n))
	}
	return &SealTable{seals: make([]atomic.Uint64, n)}
}

// Len returns the number of block slots.
func (s *SealTable) Len() int { return len(s.seals) }

// Seal records crc as block id's seal.
func (s *SealTable) Seal(id int, crc uint32) {
	s.seals[id].Store(sealedBit | uint64(crc))
}

// Unseal clears block id's seal — the un-complete step of a heal round,
// before the block is restored and its task re-dispatched.
func (s *SealTable) Unseal(id int) {
	s.seals[id].Store(0)
}

// Sealed returns block id's recorded CRC and whether it is sealed.
func (s *SealTable) Sealed(id int) (crc uint32, ok bool) {
	v := s.seals[id].Load()
	return uint32(v), v&sealedBit != 0
}

// ErrSealMismatch reports that one memory block's bytes do not digest to
// the CRC32C seal that travelled with (or was recorded for) them. It is
// the single-block, typed form of a seal-audit failure: a cluster
// coordinator receiving a boundary block can use it to distinguish
// transport/memory corruption (the carried seal does not match the
// carried bytes) from a stale-version boundary block (generation
// mismatch, which is not an error at all). Like CorruptionError it is
// never transient — re-reading the same bytes cannot fix them; recovery
// is a resend or the poisoned-cone heal path.
//
//npdplint:watch
type ErrSealMismatch struct {
	// Bi, Bj are the memory block's tile coordinates.
	Bi, Bj int
	// BlockID is the dense memory-block ID (tri.Tiled.BlockID order);
	// -1 when the reporter only knows coordinates.
	BlockID int
	// TaskID is the scheduler task that produced the block; -1 unknown.
	TaskID int
	// Want is the expected CRC32C (the seal); Got is the re-digest of
	// the bytes actually observed.
	Want, Got uint32
}

// Error names the block and both digests.
func (e *ErrSealMismatch) Error() string {
	return fmt.Sprintf("block seal mismatch: memory block (%d,%d) expected CRC32C %08x, got %08x",
		e.Bi, e.Bj, e.Want, e.Got)
}

// CorruptionError reports memory blocks whose seals failed an audit —
// the blocks' bytes changed after their tasks completed. It is never
// transient: retrying the discovering task cannot fix another block's
// bytes; recovery is the heal path (restore + recompute the cone).
//
//npdplint:watch
type CorruptionError struct {
	// Blocks are the corrupted memory blocks' tile coordinates.
	Blocks [][2]int
	// TaskIDs are the scheduler tasks that computed them.
	TaskIDs []int
	// Healed reports how many heal rounds were spent before giving up
	// (0 when healing was disabled).
	Healed int
}

// Error names the corrupted blocks and the recovery attempts made.
func (e *CorruptionError) Error() string {
	suffix := ""
	if e.Healed > 0 {
		suffix = fmt.Sprintf(" after %d heal rounds", e.Healed)
	}
	if len(e.Blocks) == 1 {
		return fmt.Sprintf("block seal audit: memory block (%d,%d) corrupted after completion%s",
			e.Blocks[0][0], e.Blocks[0][1], suffix)
	}
	return fmt.Sprintf("block seal audit: %d memory blocks corrupted after completion (first (%d,%d))%s",
		len(e.Blocks), e.Blocks[0][0], e.Blocks[0][1], suffix)
}

// HealStats counts the self-healing layer's work during one solve;
// engines fill it through ParallelOptions.HealStats / CellOptions.
type HealStats struct {
	// Audits is the number of seal-audit passes run (online + post-solve).
	Audits int
	// CorruptBlocks is the total seal mismatches plus corrupt final pages
	// detected.
	CorruptBlocks int
	// HealRounds is the number of poisoned-cone recompute rounds run.
	HealRounds int
	// RecomputedTasks is the total tasks re-dispatched across all rounds.
	RecomputedTasks int
	// CheckpointFallback reports that heal attempts were exhausted and
	// the solve fell back to reloading the on-disk checkpoint.
	CheckpointFallback bool
}
