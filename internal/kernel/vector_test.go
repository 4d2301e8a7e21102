package kernel

import (
	"math"
	"testing"

	"cellnpdp/internal/simd"
)

// Bit-identity of the vector dispatch path against the pure-Go fallback
// and the MulMinPlus reference, on every tile shape the dispatcher can
// route to assembly (CB-aligned, both j-loop widths) plus adversarial
// values: ±Inf sentinels, NaN, and ±0 — the cases where a careless
// vector min (FMIN, or swapped VMINPS operands) diverges bitwise.

// adversarialBlock builds a t×t block mixing regular values with ±Inf,
// NaN and ±0 at deterministic positions.
func adversarialBlock(t int, seed int64) []float32 {
	b := randBlock(t, seed)
	specials := []float32{
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
	}
	for i := range b {
		if (int64(i)*2654435761+seed)%11 == 0 {
			b[i] = specials[(int(seed)+i)%len(specials)]
		}
	}
	return b
}

func bitsEqual(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func TestPanelVectorBitIdenticalToFallback(t *testing.T) {
	if !VectorEnabled() {
		t.Skip("vector kernels unavailable on this host")
	}
	for _, tile := range []int{4, 8, 12, 16, 20, 24, 32, 64, 88, 92} {
		a := adversarialBlock(tile, int64(tile))
		b := adversarialBlock(tile, int64(tile)+100)
		cVec := adversarialBlock(tile, int64(tile)+200)
		cGo := append([]float32(nil), cVec...)
		cRef := append([]float32(nil), cVec...)

		stVec := PanelMinPlusF32(a2(cVec), a, b, tile)
		func() {
			defer SetVectorEnabled(false)()
			if VectorEnabled() {
				t.Fatal("SetVectorEnabled(false) did not force the fallback")
			}
			PanelMinPlusF32(cGo, a, b, tile)
		}()
		stRef := MulMinPlus(cRef, a, b, tile)

		if i, ok := bitsEqual(cVec, cGo); !ok {
			t.Fatalf("tile=%d: vector diverges from Go fallback at (%d,%d): %x vs %x",
				tile, i/tile, i%tile, math.Float32bits(cVec[i]), math.Float32bits(cGo[i]))
		}
		if i, ok := bitsEqual(cVec, cRef); !ok {
			t.Fatalf("tile=%d: vector diverges from MulMinPlus at (%d,%d)", tile, i/tile, i%tile)
		}
		if stVec != stRef {
			t.Errorf("tile=%d: vector stats %+v != reference %+v", tile, stVec, stRef)
		}
	}
}

// a2 is the identity; it exists so the vector call above reads as the
// dispatch-path call site in a diff.
func a2(c []float32) []float32 { return c }

// adversarialBand is adversarialBlock data trimmed to exactly n
// elements, length and capacity, so any access past n panics.
func adversarialBand(n int, seed int64) []float32 {
	side := 1
	for side*side < n {
		side++
	}
	return adversarialBlock(side, seed)[:n:n]
}

// The assembly strip must match the Go strip bit for bit over short,
// CB-sized, ragged and full-tile k ranges and over strides from a bare
// 4×4 up to a full tile row, on bands sized exactly to what the strip
// touches.
func TestStripVectorMatchesGo(t *testing.T) {
	if !VectorEnabled() {
		t.Skip("vector kernels unavailable on this host")
	}
	for _, k := range []int{1, 4, 5, 84} {
		for _, stride := range []int{4, 8, 88} {
			seed := int64(k*100 + stride)
			a := adversarialBand(3*stride+k, seed)
			b := adversarialBand((k-1)*stride+CB, seed+1)
			cVec := adversarialBand(3*stride+CB, seed+2)
			cGo := append([]float32(nil), cVec...)
			stripVecF32(&cVec[0], &a[0], &b[0], stride, k)
			strip(cGo, a, b, stride, k)
			if i, ok := bitsEqual(cVec, cGo); !ok {
				t.Fatalf("k=%d stride=%d: assembly strip diverges from Go strip at %d: %x vs %x",
					k, stride, i, math.Float32bits(cVec[i]), math.Float32bits(cGo[i]))
			}
		}
	}
}

// The strip dispatch must send a C block, A band or B band one element
// shorter than the strip touches to the Go body, which panics on the
// out-of-range access, never to the unguarded assembly.
func TestStripVectorShortBandFallsBack(t *testing.T) {
	const stride, k = 8, 5
	for _, short := range []string{"C", "A", "B"} {
		c := adversarialBand(3*stride+CB, 1)
		a := adversarialBand(3*stride+k, 2)
		b := adversarialBand((k-1)*stride+CB, 3)
		switch short {
		case "C":
			c = c[: len(c)-1 : len(c)-1]
		case "A":
			a = a[: len(a)-1 : len(a)-1]
		case "B":
			b = b[: len(b)-1 : len(b)-1]
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("short %s: strip dispatch did not panic in the Go body", short)
				}
			}()
			stripF32(c, a, b, stride, k)
		}()
	}
}

// The dispatcher must route ragged and undersized inputs to the Go
// fallback (which panics on real out-of-range access like any Go code)
// rather than into unguarded assembly.
func TestPanelVectorRaggedFallsBack(t *testing.T) {
	for _, tile := range []int{1, 2, 3, 5, 7, 9, 15} {
		a := randBlock(tile, int64(tile))
		b := randBlock(tile, int64(tile)+1)
		c1 := randBlock(tile, int64(tile)+2)
		c2 := append([]float32(nil), c1...)
		PanelMinPlusF32(c1, a, b, tile)
		ScalarMulMinPlus(c2, a, b, tile)
		if i, ok := bitsEqual(c1, c2); !ok {
			t.Fatalf("tile=%d: ragged dispatch diverges from scalar reference at %d", tile, i)
		}
	}
}

func TestVectorISAConsistent(t *testing.T) {
	if VectorEnabled() && VectorISA() == "none" {
		t.Fatal("VectorEnabled true but VectorISA none")
	}
	restore := SetVectorEnabled(false)
	if VectorISA() != "none" {
		t.Fatal("forced fallback but VectorISA != none")
	}
	restore()
	if simd.VectorAvailable() && haveVecASM && !VectorEnabled() {
		t.Fatal("restore did not re-enable vector dispatch")
	}
}

func BenchmarkPanelF32Vector(b *testing.B) {
	benchPanel(b, true)
}

func BenchmarkPanelF32Go(b *testing.B) {
	benchPanel(b, false)
}

func benchPanel(b *testing.B, vec bool) {
	defer SetVectorEnabled(vec)()
	if vec && !VectorEnabled() {
		b.Skip("vector kernels unavailable")
	}
	const tile = 88
	a := randBlock(tile, 1)
	bb := randBlock(tile, 2)
	c := randBlock(tile, 3)
	b.SetBytes(int64(tile) * int64(tile) * int64(tile) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PanelMinPlusF32(c, a, bb, tile)
	}
}
