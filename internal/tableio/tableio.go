// Package tableio serializes triangular DP tables: a small self-
// describing binary format (magic, version, element width, problem size,
// then the upper-triangle cells row-major in little-endian IEEE floats).
// It lets the CLI solve once and verify or post-process later, and lets
// engines running in different processes compare results byte-for-byte.
package tableio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// Magic identifies the format.
const Magic = "NPDP"

// Version is the current format version.
const Version uint16 = 1

// header is the fixed-size file prologue.
type header struct {
	Magic     [4]byte
	Version   uint16
	ElemBytes uint16
	N         uint64
}

// Write serializes the table to w.
func Write[E semiring.Elem](w io.Writer, m *tri.RowMajor[E]) error {
	bw := bufio.NewWriter(w)
	var e E
	width := ElemWidth(e)
	h := header{Version: Version, ElemBytes: uint16(width), N: uint64(m.Len())}
	copy(h.Magic[:], Magic)
	if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
		return fmt.Errorf("tableio: writing header: %w", err)
	}
	n := m.Len()
	buf := make([]byte, width*n)
	for i := 0; i < n; i++ {
		row := m.Row(i, i, n-1)
		EncodeCells(buf, row)
		if _, err := bw.Write(buf[:width*len(row)]); err != nil {
			return fmt.Errorf("tableio: writing row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read deserializes a table written by Write. The element type must
// match the file's element width.
func Read[E semiring.Elem](r io.Reader) (*tri.RowMajor[E], error) {
	br := bufio.NewReader(r)
	var h header
	if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
		return nil, fmt.Errorf("tableio: reading header: %w", err)
	}
	if string(h.Magic[:]) != Magic {
		return nil, fmt.Errorf("tableio: bad magic %q", h.Magic)
	}
	if h.Version != Version {
		return nil, fmt.Errorf("tableio: unsupported version %d", h.Version)
	}
	var e E
	width := ElemWidth(e)
	if int(h.ElemBytes) != width {
		return nil, fmt.Errorf("tableio: file holds %d-byte elements, requested type has %d", h.ElemBytes, width)
	}
	if h.N == 0 || h.N > 1<<24 {
		return nil, fmt.Errorf("tableio: implausible problem size %d", h.N)
	}
	n := int(h.N)
	m := tri.NewRowMajor[E](n)
	buf := make([]byte, width*n)
	for i := 0; i < n; i++ {
		row := m.Row(i, i, n-1)
		raw := buf[:width*len(row)]
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, fmt.Errorf("tableio: reading row %d: %w", i, err)
		}
		DecodeCells(row, raw)
	}
	return m, nil
}

// ElemWidth returns the byte width of E (4 for ~float32, 8 for
// ~float64; see semiring.Width). Exported so sibling codecs (the
// resilience checkpoint format) share the exact element encoding.
func ElemWidth[E semiring.Elem](E) int { return semiring.Width[E]() }

// PutElem encodes v into buf (little-endian IEEE). It codes one cell;
// blocks and rows go through EncodeCells.
func PutElem[E semiring.Elem](buf []byte, v E) {
	if semiring.Width[E]() == 4 {
		binary.LittleEndian.PutUint32(buf, math.Float32bits(float32(v)))
	} else {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(v)))
	}
}

// GetElem decodes an element from buf.
func GetElem[E semiring.Elem](buf []byte) E {
	if semiring.Width[E]() == 4 {
		return E(math.Float32frombits(binary.LittleEndian.Uint32(buf)))
	}
	return E(math.Float64frombits(binary.LittleEndian.Uint64(buf)))
}

// EncodeCells writes cells into the front of dst in the element
// encoding, byte for byte the stream PutElem produces cell by cell:
// little-endian IEEE at ElemWidth bytes per cell. dst must hold
// ElemWidth·len(cells) bytes. It is the one bulk cell codec — the block
// seal digest, spill slots, checkpoints, the table file and the cluster
// wire all encode through it — so it picks the width once per call and
// then runs a bounds-check-free loop for it.
func EncodeCells[E semiring.Elem](dst []byte, cells []E) {
	if semiring.Width[E]() == 4 {
		encode32(dst[:4*len(cells)], semiring.AsWidth[float32](cells))
	} else {
		encode64(dst[:8*len(cells)], semiring.AsWidth[float64](cells))
	}
}

// DecodeCells fills dst from the front of src, the inverse of
// EncodeCells bit for bit (NaN payloads included). src must hold
// ElemWidth·len(dst) bytes.
func DecodeCells[E semiring.Elem](dst []E, src []byte) {
	if semiring.Width[E]() == 4 {
		decode32(semiring.AsWidth[float32](dst), src[:4*len(dst)])
	} else {
		decode64(semiring.AsWidth[float64](dst), src[:8*len(dst)])
	}
}

// The width loops move eight cells per iteration, then one at a time.
// Each guards both lengths so the compiler proves every index in range;
// advancing the slices instead of indexing keeps the proof trivial, and
// the unrolling amortizes the advance, which otherwise costs more than
// the cell itself.

func encode32(dst []byte, c []float32) {
	for len(c) >= 8 && len(dst) >= 32 {
		binary.LittleEndian.PutUint32(dst[0:], math.Float32bits(c[0]))
		binary.LittleEndian.PutUint32(dst[4:], math.Float32bits(c[1]))
		binary.LittleEndian.PutUint32(dst[8:], math.Float32bits(c[2]))
		binary.LittleEndian.PutUint32(dst[12:], math.Float32bits(c[3]))
		binary.LittleEndian.PutUint32(dst[16:], math.Float32bits(c[4]))
		binary.LittleEndian.PutUint32(dst[20:], math.Float32bits(c[5]))
		binary.LittleEndian.PutUint32(dst[24:], math.Float32bits(c[6]))
		binary.LittleEndian.PutUint32(dst[28:], math.Float32bits(c[7]))
		dst, c = dst[32:], c[8:]
	}
	for len(c) > 0 && len(dst) >= 4 {
		binary.LittleEndian.PutUint32(dst, math.Float32bits(c[0]))
		dst, c = dst[4:], c[1:]
	}
}

func encode64(dst []byte, c []float64) {
	for len(c) >= 8 && len(dst) >= 64 {
		binary.LittleEndian.PutUint64(dst[0:], math.Float64bits(c[0]))
		binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(c[1]))
		binary.LittleEndian.PutUint64(dst[16:], math.Float64bits(c[2]))
		binary.LittleEndian.PutUint64(dst[24:], math.Float64bits(c[3]))
		binary.LittleEndian.PutUint64(dst[32:], math.Float64bits(c[4]))
		binary.LittleEndian.PutUint64(dst[40:], math.Float64bits(c[5]))
		binary.LittleEndian.PutUint64(dst[48:], math.Float64bits(c[6]))
		binary.LittleEndian.PutUint64(dst[56:], math.Float64bits(c[7]))
		dst, c = dst[64:], c[8:]
	}
	for len(c) > 0 && len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, math.Float64bits(c[0]))
		dst, c = dst[8:], c[1:]
	}
}

func decode32(d []float32, src []byte) {
	for len(d) >= 8 && len(src) >= 32 {
		d[0] = math.Float32frombits(binary.LittleEndian.Uint32(src[0:]))
		d[1] = math.Float32frombits(binary.LittleEndian.Uint32(src[4:]))
		d[2] = math.Float32frombits(binary.LittleEndian.Uint32(src[8:]))
		d[3] = math.Float32frombits(binary.LittleEndian.Uint32(src[12:]))
		d[4] = math.Float32frombits(binary.LittleEndian.Uint32(src[16:]))
		d[5] = math.Float32frombits(binary.LittleEndian.Uint32(src[20:]))
		d[6] = math.Float32frombits(binary.LittleEndian.Uint32(src[24:]))
		d[7] = math.Float32frombits(binary.LittleEndian.Uint32(src[28:]))
		d, src = d[8:], src[32:]
	}
	for len(d) > 0 && len(src) >= 4 {
		d[0] = math.Float32frombits(binary.LittleEndian.Uint32(src))
		d, src = d[1:], src[4:]
	}
}

func decode64(d []float64, src []byte) {
	for len(d) >= 8 && len(src) >= 64 {
		d[0] = math.Float64frombits(binary.LittleEndian.Uint64(src[0:]))
		d[1] = math.Float64frombits(binary.LittleEndian.Uint64(src[8:]))
		d[2] = math.Float64frombits(binary.LittleEndian.Uint64(src[16:]))
		d[3] = math.Float64frombits(binary.LittleEndian.Uint64(src[24:]))
		d[4] = math.Float64frombits(binary.LittleEndian.Uint64(src[32:]))
		d[5] = math.Float64frombits(binary.LittleEndian.Uint64(src[40:]))
		d[6] = math.Float64frombits(binary.LittleEndian.Uint64(src[48:]))
		d[7] = math.Float64frombits(binary.LittleEndian.Uint64(src[56:]))
		d, src = d[8:], src[64:]
	}
	for len(d) > 0 && len(src) >= 8 {
		d[0] = math.Float64frombits(binary.LittleEndian.Uint64(src))
		d, src = d[1:], src[8:]
	}
}
