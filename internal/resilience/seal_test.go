package resilience

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tableio"
)

// TestBlockCRCMatchesByteStream pins the seal digest to the serialized
// byte stream: equal cells digest equal, any changed cell digests
// different, and float32/float64 widths digest independently.
func TestBlockCRCMatchesByteStream(t *testing.T) {
	cells := []float32{1, 2.5, -3, 1e30}
	a := BlockCRC(cells)
	if b := BlockCRC(append([]float32(nil), cells...)); b != a {
		t.Fatalf("equal blocks digest %08x vs %08x", a, b)
	}
	cells[2] = -3.0000002
	if b := BlockCRC(cells); b == a {
		t.Fatal("changed cell kept the same CRC")
	}
	if BlockCRC([]float64{1, 2.5}) == BlockCRC([]float32{1, 2.5}) {
		t.Fatal("float32 and float64 blocks digest identically")
	}
}

// katCells builds an n-cell block in which every run of eight cells
// starts with the encodings a float codec can get wrong — −0, +Inf,
// semiring.Inf, a quiet NaN with a payload, a signalling NaN and two
// subnormals — and fills the rest with raw SplitMix64 bit patterns,
// NaNs included.
func katCells[E semiring.Elem](n int) []E {
	cells := make([]E, n)
	var e E
	_, wide := any(e).(float64)
	for i := range cells {
		x := katMix(uint64(i))
		if wide {
			bits := [...]uint64{
				1 << 63, 0x7ff0000000000000, math.Float64bits(float64(semiring.Inf[float64]())),
				0x7ff80000deadbeef, 0x7ff0000000000001, 1, 0x800fffffffffffff,
			}
			if k := i % 8; k < len(bits) {
				x = bits[k]
			}
			cells[i] = E(math.Float64frombits(x))
			continue
		}
		bits := [...]uint32{
			1 << 31, 0x7f800000, math.Float32bits(float32(semiring.Inf[float32]())),
			0x7fc0dead, 0x7f800001, 1, 0x807fffff,
		}
		y := uint32(x >> 32)
		if k := i % 8; k < len(bits) {
			y = bits[k]
		}
		cells[i] = E(math.Float32frombits(y))
	}
	return cells
}

// katMix is the SplitMix64 finalizer.
func katMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestBlockCRCKnownAnswers pins the seal bytes. The constants are the
// digests of the original cell-at-a-time BlockCRC, so spill files,
// checkpoints and checkpoint deltas written by it still verify. The lengths straddle BlockCRC's scratch chunks (2048 float32
// or 1024 float64 cells) and end on the engines' 88×88 tile.
func TestBlockCRCKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		n        int
		f32, f64 uint32
	}{
		{0, 0x00000000, 0x00000000},
		{1, 0xca9170bf, 0x0ede89f2},
		{1023, 0x206aabc5, 0x0056e1b6},
		{1024, 0x8cb2bbe9, 0xaadab467},
		{1025, 0x547018e5, 0xbbcc407e},
		{4097, 0x9e8a55ba, 0x791a75c0},
		{88 * 88, 0x8ebd8019, 0x22815e79},
	} {
		f32, f64 := katCells[float32](c.n), katCells[float64](c.n)
		if got := BlockCRC(f32); got != c.f32 {
			t.Errorf("float32 n=%d: BlockCRC %08x, want %08x", c.n, got, c.f32)
		}
		if got := BlockCRC(f64); got != c.f64 {
			t.Errorf("float64 n=%d: BlockCRC %08x, want %08x", c.n, got, c.f64)
		}
		raw32, raw64 := make([]byte, 4*c.n), make([]byte, 8*c.n)
		tableio.EncodeCells(raw32, f32)
		tableio.EncodeCells(raw64, f64)
		if got := RawCRC(raw32); got != c.f32 {
			t.Errorf("float32 n=%d: RawCRC %08x, want %08x", c.n, got, c.f32)
		}
		if got := RawCRC(raw64); got != c.f64 {
			t.Errorf("float64 n=%d: RawCRC %08x, want %08x", c.n, got, c.f64)
		}
	}
}

// TestBlockCRCAllocatesNothing: the seal digest runs on every completed
// block and every page-in, so it must not allocate.
func TestBlockCRCAllocatesNothing(t *testing.T) {
	f32, f64 := katCells[float32](88*88), katCells[float64](88*88)
	if n := testing.AllocsPerRun(100, func() { BlockCRC(f32) }); n != 0 {
		t.Errorf("BlockCRC(float32) allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { BlockCRC(f64) }); n != 0 {
		t.Errorf("BlockCRC(float64) allocates %v times per call", n)
	}
}

// TestUpdateCRCChains: chaining UpdateCRC over any split of a block,
// across chunk boundaries and with empty pieces, is BlockCRC of the
// whole, and CombineCRC joins two pieces' seals into the whole's.
func TestUpdateCRCChains(t *testing.T) {
	chainsAt[float32](t, 2048)
	chainsAt[float64](t, 1024)
}

func chainsAt[E semiring.Elem](t *testing.T, chunk int) {
	t.Helper()
	var e E
	width := tableio.ElemWidth(e)
	cells := katCells[E](2*chunk + 3)
	want := BlockCRC(cells)
	for _, cut := range []int{0, 1, 7, chunk - 1, chunk, chunk + 1, 2*chunk + 3} {
		head, tail := cells[:cut], cells[cut:]
		if got := UpdateCRC(UpdateCRC(0, head), tail); got != want {
			t.Errorf("%T cut %d: chained UpdateCRC %08x, BlockCRC %08x", e, cut, got, want)
		}
		if got := CombineCRC(BlockCRC(head), BlockCRC(tail), width*len(tail)); got != want {
			t.Errorf("%T cut %d: CombineCRC %08x, BlockCRC %08x", e, cut, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { UpdateCRC(1, cells) }); n != 0 {
		t.Errorf("UpdateCRC(%T) allocates %v times per call", e, n)
	}
}

// CombineCRC over raw byte streams of every length up to 300, so each
// bit of the length's binary expansion is exercised at least once.
func TestCombineCRCByteLengths(t *testing.T) {
	raw := make([]byte, 300)
	for i := range raw {
		raw[i] = byte(katMix(uint64(i)))
	}
	for cut := 0; cut <= len(raw); cut++ {
		for _, end := range []int{cut, min(cut+1, len(raw)), len(raw)} {
			a, b := raw[:cut], raw[cut:end]
			if got, want := CombineCRC(RawCRC(a), RawCRC(b), len(b)), RawCRC(raw[:end]); got != want {
				t.Fatalf("bytes [0,%d)+[%d,%d): CombineCRC %08x, RawCRC %08x", cut, cut, end, got, want)
			}
		}
	}
}

// TestCorruptBitAlwaysDetectable asserts the silent-fault model's core
// property: every CorruptBit flip, for any draw, changes the block's
// CRC — an injected corruption can never slip past a seal audit.
func TestCorruptBitAlwaysDetectable(t *testing.T) {
	for draw := uint64(0); draw < 2000; draw += 37 {
		cells := []float32{0, 1, 2, 3, 4, 5, 6, 7}
		before := BlockCRC(cells)
		cell, bit := CorruptBit(cells, draw)
		if cell < 0 || cell >= len(cells) || bit < 0 || bit >= 32 {
			t.Fatalf("draw %d flipped out-of-range (cell %d, bit %d)", draw, cell, bit)
		}
		if BlockCRC(cells) == before {
			t.Fatalf("draw %d flip (cell %d, bit %d) is CRC-invisible", draw, cell, bit)
		}
	}
	// Empty blocks must be a safe no-op, not a panic.
	if c, b := CorruptBit([]float32{}, 99); c != 0 || b != 0 {
		t.Fatalf("empty block corrupt = (%d,%d)", c, b)
	}
}

// TestSealTableLifecycle covers seal, reseal and unseal.
func TestSealTableLifecycle(t *testing.T) {
	st := NewSealTable(4)
	if st.Len() != 4 {
		t.Fatalf("fresh table: len=%d", st.Len())
	}
	for id := 0; id < st.Len(); id++ {
		if _, ok := st.Sealed(id); ok {
			t.Fatalf("fresh block %d reports sealed", id)
		}
	}
	st.Seal(2, 0xdeadbeef)
	if crc, ok := st.Sealed(2); !ok || crc != 0xdeadbeef {
		t.Fatalf("Sealed(2) = (%08x, %v)", crc, ok)
	}
	if _, ok := st.Sealed(1); ok {
		t.Fatal("sealing block 2 sealed block 1")
	}
	// A recompleted block's seal replaces the old one.
	st.Seal(2, 0xdeadbeee)
	if crc, ok := st.Sealed(2); !ok || crc != 0xdeadbeee {
		t.Fatalf("resealed Sealed(2) = (%08x, %v)", crc, ok)
	}
	// CRC zero must still read as sealed: the flag bit, not the value,
	// carries sealed-ness.
	st.Seal(0, 0)
	if crc, ok := st.Sealed(0); !ok || crc != 0 {
		t.Fatalf("zero-CRC seal = (%08x, %v)", crc, ok)
	}
	st.Unseal(2)
	if _, ok := st.Sealed(2); ok {
		t.Fatal("Unseal left the seal live")
	}
	if _, ok := st.Sealed(0); !ok {
		t.Fatal("Unseal(2) cleared block 0's seal")
	}
}

// TestErrSealMismatchTyped pins the typed seal-mismatch error: it carries
// block identity and both digests, and surfaces through errors.As from a
// wrapped chain the way a cluster coordinator consumes it.
func TestErrSealMismatchTyped(t *testing.T) {
	base := &ErrSealMismatch{Bi: 2, Bj: 5, BlockID: 17, TaskID: 4, Want: 0xdeadbeef, Got: 0x12345678}
	wrapped := fmt.Errorf("installing boundary block: %w", base)
	var sm *ErrSealMismatch
	if !errors.As(wrapped, &sm) {
		t.Fatal("errors.As failed to recover *ErrSealMismatch")
	}
	if sm.Bi != 2 || sm.Bj != 5 || sm.BlockID != 17 || sm.TaskID != 4 {
		t.Fatalf("identity fields lost: %+v", sm)
	}
	msg := sm.Error()
	for _, want := range []string{"(2,5)", "deadbeef", "12345678"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q, missing %q", msg, want)
		}
	}
}
