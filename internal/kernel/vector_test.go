package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cellnpdp/internal/semiring"
)

// Bit-identity of the vector dispatch path against the pure-Go fallback
// and the MulMinPlus reference, on every tile shape the dispatcher can
// route to assembly (CB-aligned, both j-loop widths) plus adversarial
// values: ±Inf sentinels, NaN, and ±0 — the cases where a careless
// vector min (FMIN, or swapped VMINPS operands) diverges bitwise.

// adversarialBlock builds a t×t block mixing regular values (full
// mantissa at each width) with ±Inf, NaN and ±0 at deterministic
// positions.
func adversarialBlock[E semiring.Elem](t int, seed int64) []E {
	rng := rand.New(rand.NewSource(seed))
	b := make([]E, t*t)
	for i := range b {
		b[i] = E(rng.Float64() * 100)
	}
	specials := []E{E(math.Inf(1)), E(math.Inf(-1)), E(math.NaN()), 0, E(math.Copysign(0, -1))}
	for i := range b {
		if (int64(i)*2654435761+seed)%11 == 0 {
			b[i] = specials[(int(seed)+i)%len(specials)]
		}
	}
	return b
}

func TestPanelVectorBitIdenticalToFallback(t *testing.T) {
	if !VectorEnabled() {
		t.Skip("vector kernels unavailable on this host")
	}
	panelVectorBitIdentical(t, PanelMinPlusF32)
	panelVectorBitIdentical(t, PanelMinPlusF64) // the Go panel on NEON
}

// panelVectorBitIdentical runs the dispatcher at every vector dispatch
// level (the AVX-512 and the AVX2 bands on an AVX-512 host) and
// compares each with the Go fallback and MulMinPlus.
func panelVectorBitIdentical[E semiring.Elem](t *testing.T, dispatch func(c, a, b []E, t int) Stats) {
	t.Helper()
	for _, tile := range []int{4, 8, 12, 16, 20, 24, 32, 36, 64, 88, 92} {
		a := adversarialBlock[E](tile, int64(tile))
		b := adversarialBlock[E](tile, int64(tile)+100)
		c := adversarialBlock[E](tile, int64(tile)+200)
		cGo := append([]E(nil), c...)
		cRef := append([]E(nil), c...)
		func() {
			defer SetVectorEnabled(false)()
			if VectorEnabled() {
				t.Fatal("SetVectorEnabled(false) did not force the fallback")
			}
			dispatch(cGo, a, b, tile)
		}()
		stRef := MulMinPlus(cRef, a, b, tile)

		atLevels(func(level string) {
			if level == "go" {
				return
			}
			cVec := append([]E(nil), c...)
			stVec := dispatch(cVec, a, b, tile)
			name := fmt.Sprintf("%T %s tile=%d", *new(E), level, tile)
			requireBits(t, name+": vector vs Go fallback", tile, 0, cVec, cGo)
			requireBits(t, name+": vector vs MulMinPlus", tile, 0, cVec, cRef)
			if stVec != stRef {
				t.Errorf("%s: vector stats %+v != reference %+v", name, stVec, stRef)
			}
		})
	}
}

// adversarialBand is adversarialBlock data trimmed to exactly n
// elements, length and capacity, so any access past n panics.
func adversarialBand[E semiring.Elem](n int, seed int64) []E {
	side := 1
	for side*side < n {
		side++
	}
	return adversarialBlock[E](side, seed)[:n:n]
}

// A one-group band (cols = CB, the stage-2 strip) must match the Go
// strip bit for bit at every dispatch level (the AVX2 band's 4-wide tail
// on AVX-512 and AVX2 hosts, the NEON strip on arm64), over short,
// CB-sized, ragged and full-tile k ranges and over strides from a bare
// 4×4 up to a full tile row, on bands sized exactly to what the strip
// touches.
func TestStripVectorMatchesGo(t *testing.T) {
	if !VectorEnabled() {
		t.Skip("vector kernels unavailable on this host")
	}
	stripVectorMatchesGo(t, bandF32)
	stripVectorMatchesGo(t, bandF64)
}

func stripVectorMatchesGo[E semiring.Elem](t *testing.T, band func(c, a, b []E, stride, cols, k int)) {
	t.Helper()
	for _, k := range []int{1, 4, 5, 84} {
		for _, stride := range []int{4, 8, 88} {
			seed := int64(k*100 + stride)
			a := adversarialBand[E](3*stride+k, seed)
			b := adversarialBand[E]((k-1)*stride+CB, seed+1)
			c := adversarialBand[E](3*stride+CB, seed+2)
			cGo := append([]E(nil), c...)
			strip(cGo, a, b, stride, k)
			atLevels(func(level string) {
				got := append([]E(nil), c...)
				band(got, a, b, stride, CB, k)
				for i := range got {
					if bitsOf(got[i]) != bitsOf(cGo[i]) {
						t.Fatalf("%T %s k=%d stride=%d: band dispatch diverges from Go strip at %d: %x vs %x",
							got[i], level, k, stride, i, bitsOf(got[i]), bitsOf(cGo[i]))
					}
				}
			})
		}
	}
}

// A one-group band whose C block, A band or B band is one element
// shorter than the strip touches must reach the Go body, which panics
// on the out-of-range access, at every level — never the unguarded
// assembly, whose 4-wide tail has no mask.
func TestStripVectorShortBandFallsBack(t *testing.T) {
	stripShortBandFallsBack(t, bandF32)
	stripShortBandFallsBack(t, bandF64)
}

func stripShortBandFallsBack[E semiring.Elem](t *testing.T, dispatch func(c, a, b []E, stride, cols, k int)) {
	t.Helper()
	const stride, k = 8, 5
	for _, short := range []string{"C", "A", "B"} {
		atLevels(func(level string) {
			c := adversarialBand[E](3*stride+CB, 1)
			a := adversarialBand[E](3*stride+k, 2)
			b := adversarialBand[E]((k-1)*stride+CB, 3)
			switch short {
			case "C":
				c = c[: len(c)-1 : len(c)-1]
			case "A":
				a = a[: len(a)-1 : len(a)-1]
			case "B":
				b = b[: len(b)-1 : len(b)-1]
			}
			defer func() {
				if recover() == nil {
					t.Errorf("%T %s short %s: band dispatch did not panic in the Go body", c[0], level, short)
				}
			}()
			dispatch(c, a, b, stride, CB, k)
		})
	}
}

// The dispatcher must route ragged and undersized inputs to the Go
// fallback (which panics on real out-of-range access like any Go code)
// rather than into unguarded assembly.
func TestPanelVectorRaggedFallsBack(t *testing.T) {
	panelRaggedFallsBack(t, PanelMinPlusF32)
	panelRaggedFallsBack(t, PanelMinPlusF64)
}

func panelRaggedFallsBack[E semiring.Elem](t *testing.T, dispatch func(c, a, b []E, t int) Stats) {
	t.Helper()
	for _, tile := range []int{1, 2, 3, 5, 7, 9, 15} {
		a := adversarialBlock[E](tile, int64(tile))
		b := adversarialBlock[E](tile, int64(tile)+1)
		c1 := adversarialBlock[E](tile, int64(tile)+2)
		c2 := append([]E(nil), c1...)
		dispatch(c1, a, b, tile)
		ScalarMulMinPlus(c2, a, b, tile)
		requireBits(t, fmt.Sprintf("%T ragged dispatch vs scalar reference", c1[0]), tile, 0, c1, c2)
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
	if detected != isaGo && !VectorEnabled() {
		t.Fatal("restore did not re-enable vector dispatch")
	}
}

// BenchmarkPanelF32Vector and BenchmarkPanelF64Vector time the stage-1
// dispatchers on every dispatch level, as BenchmarkStage2OffDiag does;
// the Go benchmarks time the Go panel alone.
func BenchmarkPanelF32Vector(b *testing.B) {
	atLevels(func(level string) { b.Run(level, benchPanel) })
}

func BenchmarkPanelF32Go(b *testing.B) {
	defer SetVectorEnabled(false)()
	benchPanel(b)
}

func BenchmarkPanelF64Vector(b *testing.B) {
	atLevels(func(level string) { b.Run(level, benchPanelF64) })
}

func BenchmarkPanelF64Go(b *testing.B) {
	defer SetVectorEnabled(false)()
	benchPanelF64(b)
}

func benchPanelF64(b *testing.B) {
	const tile = 64
	a := randBlock64(tile, 1)
	bb := randBlock64(tile, 2)
	c := randBlock64(tile, 3)
	b.SetBytes(int64(tile) * int64(tile) * int64(tile) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PanelMinPlusF64(c, a, bb, tile)
	}
}

func benchPanel(b *testing.B) {
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
