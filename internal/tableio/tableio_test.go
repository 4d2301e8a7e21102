package tableio

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

func TestRoundTripF32(t *testing.T) {
	src := workload.Dense[float32](37, 5)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := Read[float32](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tri.Equal[float32](src, got) {
		t.Fatal("round trip changed the table")
	}
}

func TestRoundTripF64(t *testing.T) {
	src := workload.Dense[float64](21, 9)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := Read[float64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tri.Equal[float64](src, got) {
		t.Fatal("f64 round trip changed the table")
	}
}

func TestRoundTripQuick(t *testing.T) {
	if err := quick.Check(func(seed int64, n8 uint8) bool {
		n := 1 + int(n8)%60
		src := workload.Dense[float32](n, seed)
		var buf bytes.Buffer
		if Write(&buf, src) != nil {
			return false
		}
		got, err := Read[float32](&buf)
		return err == nil && tri.Equal[float32](src, got)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	src := workload.Dense[float32](8, 1)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	if _, err := Read[float64](&buf); err == nil || !strings.Contains(err.Error(), "element") {
		t.Errorf("f64 read of f32 file: %v", err)
	}
}

func TestCorruptInputsRejected(t *testing.T) {
	if _, err := Read[float32](bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Read[float32](strings.NewReader("JUNKJUNKJUNKJUNKJUNK")); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated body.
	src := workload.Dense[float32](20, 2)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read[float32](bytes.NewReader(trunc)); err == nil {
		t.Error("truncated file accepted")
	}
	// Implausible size: header with huge N.
	var h bytes.Buffer
	h.WriteString("NPDP")
	h.Write([]byte{1, 0})                  // version 1
	h.Write([]byte{4, 0})                  // elem bytes 4
	h.Write(bytes.Repeat([]byte{0xFF}, 8)) // N = 2^64-1
	if _, err := Read[float32](&h); err == nil {
		t.Error("absurd size accepted")
	}
}

// perCellStream is the reference element encoding: PutElem cell by cell.
func perCellStream[E semiring.Elem](cells []E) []byte {
	var e E
	width := ElemWidth(e)
	out := make([]byte, width*len(cells))
	for i, v := range cells {
		PutElem(out[i*width:], v)
	}
	return out
}

// awkwardBits are bit patterns a float codec can mangle: ±0, ±Inf, a
// quiet NaN with a payload, a signalling NaN, subnormals.
var awkwardBits = []uint64{0, 1 << 63, 0x7ff0000000000000, 0xfff0000000000000,
	0x7ff80000deadbeef, 0x7ff0000000000001, 1, 0x800fffffffffffff,
	0x7fc0dead, 0x7f800001, 0x807fffff}

// TestEncodeCellsMatchesPerCellStream checks the bulk codec against the
// per-cell reference for both widths, across lengths that end mid-run
// and awkward bit patterns, and that DecodeCells inverts it bit for bit.
func TestEncodeCellsMatchesPerCellStream(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 15, 64, 1025} {
		f32, f64 := make([]float32, n), make([]float64, n)
		for i := range f32 {
			x := uint64(i)*0x9e3779b97f4a7c15 ^ 0x5bd1e995
			if i < len(awkwardBits) {
				x = awkwardBits[i]
			}
			f32[i] = math.Float32frombits(uint32(x))
			f64[i] = math.Float64frombits(x)
		}
		checkCodec(t, f32)
		checkCodec(t, f64)
	}
}

func checkCodec[E semiring.Elem](t *testing.T, cells []E) {
	t.Helper()
	want := perCellStream(cells)
	got := make([]byte, len(want)+3)
	got[len(want)] = 0xaa
	EncodeCells(got, cells)
	if !bytes.Equal(got[:len(want)], want) || got[len(want)] != 0xaa {
		t.Fatalf("%T n=%d: EncodeCells differs from the PutElem stream or overruns", cells, len(cells))
	}
	back := make([]E, len(cells))
	DecodeCells(back, want)
	if !bytes.Equal(perCellStream(back), want) {
		t.Fatalf("%T n=%d: DecodeCells is not the bit-exact inverse", cells, len(cells))
	}
	var e E
	for i := range back {
		if perCellBits(GetElem[E](want[i*ElemWidth(e):])) != perCellBits(back[i]) {
			t.Fatalf("%T cell %d: DecodeCells disagrees with GetElem", cells, i)
		}
	}
}

// perCellBits is one cell's encoding as an integer, so NaNs compare.
func perCellBits[E semiring.Elem](v E) uint64 {
	var buf [8]byte
	PutElem(buf[:], v)
	return binary.LittleEndian.Uint64(buf[:])
}

// FuzzCellCodec: for arbitrary bytes, decoding then re-encoding returns
// the same bytes, and the bulk encoding equals the per-cell stream, at
// both widths.
func FuzzCellCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x80, 0x7f, 1, 0, 0xc0, 0x7f, 0xef, 0xbe, 0xad, 0xde})
	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzWidth[float32](t, raw)
		fuzzWidth[float64](t, raw)
	})
}

func fuzzWidth[E semiring.Elem](t *testing.T, raw []byte) {
	var e E
	cells := make([]E, len(raw)/ElemWidth(e))
	whole := raw[:len(cells)*ElemWidth(e)]
	DecodeCells(cells, raw)
	out := make([]byte, len(whole))
	EncodeCells(out, cells)
	if !bytes.Equal(out, whole) {
		t.Fatalf("%T: decode→encode changed the bytes", cells)
	}
	if !bytes.Equal(perCellStream(cells), whole) {
		t.Fatalf("%T: bulk codec disagrees with the per-cell stream", cells)
	}
}
