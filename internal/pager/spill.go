package pager

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"cellnpdp/internal/resilience"
)

// Spill data file ("NPSP", all little-endian) — the on-disk home of
// every memory block, in two fixed versions per block so a reader can
// always fall back to known-good bytes:
//
//	magic    [4]byte "NPSP"
//	version  uint16  (currently 1)
//	elem     uint16  element width in bytes (4 or 8, matching tableio)
//	n        uint64  logical problem size
//	tile     uint32  memory-block side in cells
//	nblocks  uint32  dense upper-triangle block count m(m+1)/2
//	hcrc     uint32  CRC-32 (IEEE) of the 24 header bytes above
//	slots    2·nblocks × { tile² elements, crc uint32 (CRC32C) }
//
// Slot (region, id) lives at header + (region·nblocks + id)·slotBytes:
// region 0 holds the block's pristine version (input values, written
// once at Create) and region 1 its final version (sealed task output,
// written when a completed block is evicted). Every slot carries its
// own resilience.BlockCRC trailer — the same CRC32C the in-memory seal
// layer and the cluster wire frames use — so a torn write or bit rot is
// always detectable at page-in. The final region is allocated sparse:
// a slot there is meaningful only once the spill index commits its
// record, and the index is only committed after the data file syncs.
// A scratch file (Options.Durable unset) has no index: its final slots
// are trusted only by the pager that wrote them, which holds their
// seals in memory.
//
// Spill index ("NPSX", `<path>.idx`) — the commit record deciding which
// final slots a restart may trust:
//
//	magic    [4]byte "NPSX"
//	version  uint16  (currently 1)
//	elem     uint16
//	n        uint64
//	tile     uint32
//	nblocks  uint32
//	nfinal   uint32  number of records
//	records  nfinal × { id uint32, crc uint32 }, ids strictly ascending
//	crc      uint32  CRC-32 (IEEE) of every preceding byte
//
// The strictly-ascending id requirement makes the encoding canonical: truncated, bit-flipped, or reordered input
// fails the checksum or the ordering check, never decodes to a different
// final set. The index is published with the atomic temp+rename
// discipline (pid-tagged temps, resilience.CreateOwnedTemp), so a
// SIGKILL mid-spill leaves either the previous committed index or the
// new one — a final slot whose record never committed is simply
// recomputed after restart.

// SpillMagic and IndexMagic identify the two spill formats.
const (
	SpillMagic = "NPSP"
	IndexMagic = "NPSX"
)

// SpillVersion is the current version of both spill formats.
const SpillVersion uint16 = 1

// Plausibility bounds, matching tableio's problem-size limit: a hostile
// header cannot make a reader allocate unbounded memory before a
// checksum can reject it.
const (
	maxSpillN    = 1 << 24
	maxSpillTile = 1 << 12
	maxSpillSide = 1 << 12
)

// spillHeaderSize is the fixed NPSP prologue length (24 header bytes +
// 4-byte header CRC).
const spillHeaderSize = 28

// spillGeom is the geometry both spill files carry and must agree on.
type spillGeom struct {
	N       int // logical problem size
	Tile    int // memory-block side in cells
	Elem    int // element width (4 or 8)
	NBlocks int // dense upper-triangle block count
}

// check validates internal consistency and plausibility.
func (g spillGeom) check() error {
	if g.N <= 0 || g.N > maxSpillN {
		return fmt.Errorf("pager: implausible problem size %d", g.N)
	}
	if g.Tile <= 0 || g.Tile > maxSpillTile {
		return fmt.Errorf("pager: implausible tile side %d", g.Tile)
	}
	if g.Elem != 4 && g.Elem != 8 {
		return fmt.Errorf("pager: element width %d not 4 or 8", g.Elem)
	}
	m := (g.N + g.Tile - 1) / g.Tile
	if m > maxSpillSide {
		return fmt.Errorf("pager: implausible block count %d per side", m)
	}
	if want := m * (m + 1) / 2; g.NBlocks != want {
		return fmt.Errorf("pager: %d blocks inconsistent with n=%d tile=%d (want %d)", g.NBlocks, g.N, g.Tile, want)
	}
	return nil
}

// slotBytes is one slot's on-disk length: the block payload plus its
// CRC32C trailer.
func (g spillGeom) slotBytes() int64 {
	return int64(g.Tile)*int64(g.Tile)*int64(g.Elem) + 4
}

// slotOff locates slot (region, id) in the data file.
func (g spillGeom) slotOff(region, id int) int64 {
	return spillHeaderSize + (int64(region)*int64(g.NBlocks)+int64(id))*g.slotBytes()
}

// fileSize is the data file's full (sparse) length.
func (g spillGeom) fileSize() int64 {
	return spillHeaderSize + 2*int64(g.NBlocks)*g.slotBytes()
}

// SpillFileSize predicts the (sparse) on-disk size of a spill data file
// for an n-point problem with the given tile side and element width —
// the admission-control figure EstimateSolve reports before a paged
// solve runs.
func SpillFileSize(n, tile, elemBytes int) int64 {
	m := (n + tile - 1) / tile
	g := spillGeom{N: n, Tile: tile, Elem: elemBytes, NBlocks: m * (m + 1) / 2}
	return g.fileSize()
}

// encodeSpillHeader serializes the NPSP prologue.
func encodeSpillHeader(g spillGeom) []byte {
	buf := make([]byte, spillHeaderSize)
	copy(buf, SpillMagic)
	binary.LittleEndian.PutUint16(buf[4:], SpillVersion)
	binary.LittleEndian.PutUint16(buf[6:], uint16(g.Elem))
	binary.LittleEndian.PutUint64(buf[8:], uint64(g.N))
	binary.LittleEndian.PutUint32(buf[16:], uint32(g.Tile))
	binary.LittleEndian.PutUint32(buf[20:], uint32(g.NBlocks))
	binary.LittleEndian.PutUint32(buf[24:], crc32.ChecksumIEEE(buf[:24]))
	return buf
}

// decodeSpillHeader reads and fully validates the NPSP prologue.
func decodeSpillHeader(r io.ReaderAt) (spillGeom, error) {
	buf := make([]byte, spillHeaderSize)
	if _, err := r.ReadAt(buf, 0); err != nil {
		return spillGeom{}, fmt.Errorf("pager: reading spill header: %w", err)
	}
	if string(buf[:4]) != SpillMagic {
		return spillGeom{}, fmt.Errorf("pager: bad spill magic %q", buf[:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != SpillVersion {
		return spillGeom{}, fmt.Errorf("pager: unsupported spill version %d", v)
	}
	if got, want := binary.LittleEndian.Uint32(buf[24:]), crc32.ChecksumIEEE(buf[:24]); got != want {
		return spillGeom{}, fmt.Errorf("pager: spill header checksum mismatch: file %08x, computed %08x", got, want)
	}
	g := spillGeom{
		N:       int(binary.LittleEndian.Uint64(buf[8:])),
		Tile:    int(binary.LittleEndian.Uint32(buf[16:])),
		Elem:    int(binary.LittleEndian.Uint16(buf[6:])),
		NBlocks: int(binary.LittleEndian.Uint32(buf[20:])),
	}
	if binary.LittleEndian.Uint64(buf[8:]) > maxSpillN {
		return spillGeom{}, fmt.Errorf("pager: implausible problem size %d", binary.LittleEndian.Uint64(buf[8:]))
	}
	if err := g.check(); err != nil {
		return spillGeom{}, err
	}
	return g, nil
}

// indexRecord is one committed final block: its dense id and final CRC.
type indexRecord struct {
	ID  int
	CRC uint32
}

// writeIndex serializes the NPSX stream; records must be id-ascending
// (writers sort, readers enforce).
func writeIndex(w io.Writer, g spillGeom, records []indexRecord) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var magic [4]byte
	copy(magic[:], IndexMagic)
	for _, v := range []any{magic, SpillVersion, uint16(g.Elem), uint64(g.N),
		uint32(g.Tile), uint32(g.NBlocks), uint32(len(records))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("pager: writing index header: %w", err)
		}
	}
	for _, rec := range records {
		if err := binary.Write(bw, binary.LittleEndian, [2]uint32{uint32(rec.ID), rec.CRC}); err != nil {
			return fmt.Errorf("pager: writing index record: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("pager: writing index checksum: %w", err)
	}
	return nil
}

// readIndex decodes and fully validates an NPSX stream: magic, version,
// geometry plausibility, record count within the triangle, strictly
// ascending in-range ids, and the trailing CRC. Corrupt, truncated, or
// reordered input returns an error — the restart then trusts nothing
// and recomputes, never resumes bad state.
func readIndex(r io.Reader) (spillGeom, []indexRecord, error) {
	crc := crc32.NewIEEE()
	br := bufio.NewReader(r)
	tr := io.TeeReader(br, crc)
	var hdr struct {
		Magic   [4]byte
		Version uint16
		Elem    uint16
		N       uint64
		Tile    uint32
		NBlocks uint32
		NFinal  uint32
	}
	if err := binary.Read(tr, binary.LittleEndian, &hdr); err != nil {
		return spillGeom{}, nil, fmt.Errorf("pager: reading index header: %w", err)
	}
	if string(hdr.Magic[:]) != IndexMagic {
		return spillGeom{}, nil, fmt.Errorf("pager: bad index magic %q", hdr.Magic)
	}
	if hdr.Version != SpillVersion {
		return spillGeom{}, nil, fmt.Errorf("pager: unsupported index version %d", hdr.Version)
	}
	if hdr.N > maxSpillN {
		return spillGeom{}, nil, fmt.Errorf("pager: implausible problem size %d", hdr.N)
	}
	g := spillGeom{N: int(hdr.N), Tile: int(hdr.Tile), Elem: int(hdr.Elem), NBlocks: int(hdr.NBlocks)}
	if err := g.check(); err != nil {
		return spillGeom{}, nil, err
	}
	// The record-count bound is what defuses a hostile allocation bomb:
	// nfinal beyond the triangle is rejected before any allocation
	// proportional to it.
	if int(hdr.NFinal) > g.NBlocks {
		return spillGeom{}, nil, fmt.Errorf("pager: %d index records exceed the %d-block triangle", hdr.NFinal, g.NBlocks)
	}
	records := make([]indexRecord, 0, hdr.NFinal)
	prev := -1
	for i := 0; i < int(hdr.NFinal); i++ {
		var rec [2]uint32
		if err := binary.Read(tr, binary.LittleEndian, &rec); err != nil {
			return spillGeom{}, nil, fmt.Errorf("pager: reading index record %d: %w", i, err)
		}
		id := int(rec[0])
		if id >= g.NBlocks {
			return spillGeom{}, nil, fmt.Errorf("pager: index record for block %d beyond %d blocks", id, g.NBlocks)
		}
		if id <= prev {
			return spillGeom{}, nil, fmt.Errorf("pager: index records out of order (%d after %d)", id, prev)
		}
		prev = id
		records = append(records, indexRecord{ID: id, CRC: rec[1]})
	}
	sum := crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return spillGeom{}, nil, fmt.Errorf("pager: reading index checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != sum {
		return spillGeom{}, nil, fmt.Errorf("pager: index checksum mismatch: file %08x, computed %08x", got, sum)
	}
	return g, records, nil
}

// commitIndex atomically publishes the index: pid-tagged temp in the
// same directory, fsync, rename. The caller has already fsynced the
// data file, so a committed record never points at an unsynced slot.
func commitIndex(path string, g spillGeom, records []indexRecord) error {
	tmp, err := resilience.CreateOwnedTemp(path)
	if err != nil {
		return fmt.Errorf("pager: creating index temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := writeIndex(tmp, g, records); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("pager: syncing index: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("pager: closing index: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("pager: publishing index: %w", err)
	}
	return nil
}

// loadIndex reads the committed index at path. A missing file is a
// clean "no finals committed" state, not an error (the first commit may
// never have happened before a crash).
func loadIndex(path string) (spillGeom, []indexRecord, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return spillGeom{}, nil, false, nil
		}
		return spillGeom{}, nil, false, fmt.Errorf("pager: opening index: %w", err)
	}
	defer f.Close()
	g, records, err := readIndex(f)
	if err != nil {
		return spillGeom{}, nil, false, err
	}
	return g, records, true, nil
}
