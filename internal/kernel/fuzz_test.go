package kernel

import (
	"math"
	"math/rand"
	"testing"

	"cellnpdp/internal/semiring"
)

// FuzzKernelEquivalence drives every selectable min-plus kernel against
// the scalar triple-loop reference on arbitrary tile sides — odd sides,
// remainder columns, CB-aligned sides — with ±Inf sentinels sprinkled
// in (the engines use +Inf as "no edge"; -Inf next to +Inf manufactures
// NaN sums, which the strict-< update chain must discard identically in
// Go and in assembly). Comparison is Float32bits/Float64bits-exact:
// bit-identity is the repo invariant, not approximate equality.
//
// Each width draws its own instance, so the float64 values use the
// mantissa bits float32 lacks, and runs its panel dispatcher
// (PanelMinPlusF32, PanelMinPlusF64: the vector bands on conforming
// tiles where the host has them) and one band call of a drawn shape
// (bandF32, bandF64, against the Go strips, with sentinels around C) at
// every dispatch level the host can run: the AVX-512 bands, the AVX2
// bands, and the Go bodies. On CB-aligned sides it also runs stage 2
// (Stage2OffDiag with c as D and a, b as L, R; Stage2Diag on c) at
// every level.
// Flag bit 4 scatters ±0 and NaN and makes the other values
// nonnegative, so zero terms decide many minima: under the strict-<
// update the first of two equal terms wins, and a reordered term shows
// as a flipped zero sign.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(uint32(1), uint8(8), uint8(0))
	f.Add(uint32(7), uint8(13), uint8(3)) // odd side + both sentinels
	f.Add(uint32(42), uint8(92), uint8(1))
	f.Add(uint32(9), uint8(1), uint8(2))  // 1×1 tile
	f.Add(uint32(5), uint8(24), uint8(4)) // ±0/NaN, stage 2
	f.Add(uint32(3), uint8(87), uint8(7)) // t=88, everything
	f.Add(uint32(6), uint8(63), uint8(4)) // t=64, ±0/NaN across R-side chunks
	f.Add(uint32(8), uint8(67), uint8(5)) // t=68, a one-CB last chunk
	f.Fuzz(func(t *testing.T, seed uint32, side, flags uint8) {
		ts := int(side)%96 + 1
		rng := rand.New(rand.NewSource(int64(seed)))
		fuzzWidth(t, "f32", rng, ts, flags, PanelMinPlusF32, bandF32)
		fuzzWidth(t, "f64", rng, ts, flags, PanelMinPlusF64, bandF64)
	})
}

// fuzzWidth draws one instance at width E and runs FuzzKernelEquivalence's
// checks on it: the generic panel (the dispatchers' Go fallback), the
// width's dispatcher at every dispatch level, one band at every level,
// MulMinPlus, and stage 2 at every level.
func fuzzWidth[E semiring.Elem](t *testing.T, name string, rng *rand.Rand, ts int, flags uint8,
	dispatch func(c, a, b []E, t int) Stats, band func(c, a, b []E, stride, cols, k int)) {
	t.Helper()
	gen := func() []E {
		s := make([]E, ts*ts)
		for i := range s {
			s[i] = E(rng.NormFloat64() * 16)
		}
		return s
	}
	a, b, c := gen(), gen(), gen()
	if flags&4 != 0 {
		for _, s := range [][]E{a, b, c} {
			for i := range s {
				switch rng.Intn(16) {
				case 0, 1:
					s[i] = 0
				case 2, 3:
					s[i] = E(math.Copysign(0, -1))
				case 4:
					s[i] = E(math.NaN())
				default:
					s[i] = E(math.Abs(float64(s[i])))
				}
			}
		}
	}
	if flags&1 != 0 {
		for i := 0; i < 1+ts/4; i++ {
			a[rng.Intn(len(a))] = E(math.Inf(1))
			c[rng.Intn(len(c))] = E(math.Inf(1))
		}
	}
	if flags&2 != 0 {
		for i := 0; i < 1+ts/8; i++ {
			b[rng.Intn(len(b))] = E(math.Inf(-1))
		}
	}

	ref := append([]E(nil), c...)
	ScalarMulMinPlus(ref, a, b, ts)
	run := func(kname string, k func(c, a, b []E, t int) Stats) {
		t.Helper()
		cc := append([]E(nil), c...)
		k(cc, a, b, ts)
		requireBits(t, kname+"["+name+"]", ts, flags, cc, ref)
	}
	run("PanelMinPlus", PanelMinPlus[E])
	atLevels(func(level string) {
		run("panel dispatch/"+level, dispatch) // vector asm on conforming tiles
	})
	// The band contract, straight: cols a positive multiple of CB (CB
	// itself for sides up to 4), k ≥ 1, a stride ≥ cols, and the
	// instance's values laid into the bands with sentinels around C.
	cols := CB * (1 + (ts-1)/CB)
	k := 1 + rng.Intn(ts)
	stride := cols + rng.Intn(2*CB+1)
	checkBand(t, band, cycled(c, 3*stride+cols), cycled(a, 3*stride+k), cycled(b, (k-1)*stride+cols), stride, cols, k)
	if ts%CB != 0 {
		return
	}
	run("MulMinPlus", MulMinPlus[E])
	atLevels(func(level string) {
		fuzzStage2(t, "Stage2/"+level+"["+name+"]", ts, flags, c, a, b)
	})
}

// fuzzStage2 runs Stage2OffDiag(d, l, r) and Stage2Diag(d) on copies of
// d and compares them bit for bit with a cell-by-cell reference. Without
// -0 in the inputs the reference is ScalarStage2OffDiag/ScalarStage2Diag:
// the same terms in plain ascending k, and no term order can change a
// bit, because only a -0/+0 tie makes the first-wins update order
// visible and -0 arises only from -0 + -0. With the ±0 flag the
// reference is the CB formulation's own per-cell order (cbOrderStage2*).
//
// The diagonals of d and l are made nonnegative first. They are table
// cells d[i][i], and the k = i term d[i][i] + d[i][j] is a self-loop: a
// no-op for d[i][i] >= 0, but for d[i][i] < 0 its value depends on
// whether the cell is read before or after the strips' terms, which the
// CB formulation and the scalar loop do differently.
func fuzzStage2[E semiring.Elem](t *testing.T, name string, ts int, flags uint8, d, l, r []E) {
	t.Helper()
	d, l = nonnegDiag(d, ts), nonnegDiag(l, ts)
	refOff := append([]E(nil), d...)
	refDiag := append([]E(nil), d...)
	if flags&4 != 0 {
		cbOrderStage2OffDiag(refOff, l, r, ts)
		cbOrderStage2Diag(refDiag, ts)
	} else {
		ScalarStage2OffDiag(refOff, l, r, ts)
		ScalarStage2Diag(refDiag, ts)
	}
	got := append([]E(nil), d...)
	if st := Stage2OffDiag(got, l, r, ts); st != StatsStage2OffDiag(ts) {
		t.Fatalf("%s OffDiag (t=%d): stats %+v, want %+v", name, ts, st, StatsStage2OffDiag(ts))
	}
	requireBits(t, name+" OffDiag", ts, flags, got, refOff)
	got = append(got[:0], d...)
	if st := Stage2Diag(got, ts); st != StatsStage2Diag(ts) {
		t.Fatalf("%s Diag (t=%d): stats %+v, want %+v", name, ts, st, StatsStage2Diag(ts))
	}
	requireBits(t, name+" Diag", ts, flags, got, refDiag)
}

// cycled returns n values of src, repeated from its start as needed.
func cycled[E semiring.Elem](src []E, n int) []E {
	out := make([]E, n)
	for i := range out {
		out[i] = src[i%len(src)]
	}
	return out
}

// nonnegDiag returns a copy of the t×t block x with |x[i][i]| on its
// diagonal.
func nonnegDiag[E semiring.Elem](x []E, t int) []E {
	x = append([]E(nil), x...)
	for i := 0; i < t; i++ {
		if v := x[i*t+i]; v < 0 {
			x[i*t+i] = -v
		}
	}
	return x
}

func requireBits[E semiring.Elem](t *testing.T, name string, ts int, flags uint8, got, want []E) {
	t.Helper()
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("%s (t=%d flags=%d): cell (%d,%d) = %v (bits %#x), reference %v (bits %#x)",
				name, ts, flags, i/ts, i%ts, got[i], bitsOf(got[i]), want[i], bitsOf(want[i]))
		}
	}
}

func bitsOf[E semiring.Elem](x E) uint64 {
	if v, ok := any(x).(float32); ok {
		return uint64(math.Float32bits(v))
	}
	return math.Float64bits(float64(x))
}

// cbOrderStage2OffDiag is Stage2OffDiag cell by cell: cell (a,b) of CB
// (p,q) takes the finished CBs below (k = (p+1)·4..t-1), the finished
// CBs to the left (k = 0..q·4-1), then the CB's own L range
// (k = a..(p+1)·4-1) and R range (k = q·4..b-1), each in ascending k.
func cbOrderStage2OffDiag[E semiring.Elem](d, l, r []E, t int) {
	for a := t - 1; a >= 0; a-- {
		hi := (a/CB + 1) * CB
		for b := 0; b < t; b++ {
			col := b / CB * CB
			v := d[a*t+b]
			lTerms := func(from, to int) {
				for k := from; k < to; k++ {
					if w := l[a*t+k] + d[k*t+b]; w < v {
						v = w
					}
				}
			}
			rTerms := func(from, to int) {
				for k := from; k < to; k++ {
					if w := d[a*t+k] + r[k*t+b]; w < v {
						v = w
					}
				}
			}
			lTerms(hi, t)
			rTerms(0, col)
			lTerms(a, hi)
			rTerms(col, b)
			d[a*t+b] = v
		}
	}
}

// cbOrderStage2Diag is Stage2Diag cell by cell: a cell inside a
// diagonal CB takes k = a..b-1 ascending; cell (a,b) of CB (p,q), p < q,
// takes the finished CBs between (k = (p+1)·4..q·4-1), then its own
// L range (k = a..(p+1)·4-1) and R range (k = q·4..b-1).
func cbOrderStage2Diag[E semiring.Elem](d []E, t int) {
	for b := 0; b < t; b++ {
		for a := b - 1; a >= 0; a-- {
			v := d[a*t+b]
			terms := func(from, to int) {
				for k := from; k < to; k++ {
					if w := d[a*t+k] + d[k*t+b]; w < v {
						v = w
					}
				}
			}
			if hi, col := (a/CB+1)*CB, b/CB*CB; hi <= col {
				terms(hi, col)
				terms(a, hi)
				terms(col, b)
			} else {
				terms(a, b)
			}
			d[a*t+b] = v
		}
	}
}

// TestForcedFallbackDetection pins the in-process fallback switch:
// kernel.SetVectorEnabled(false) moves dispatch to the Go bodies and
// VectorISA reports it, and the kernels stay bit-identical — forcing the
// fallback is a performance decision, never a semantic one. (The
// process-wide switch, CELLNPDP_FORCE_SCALAR, is folded into detection
// at init; CI's forced-scalar pass runs this package under it.)
func TestForcedFallbackDetection(t *testing.T) {
	defer SetVectorEnabled(false)()
	if VectorEnabled() {
		t.Fatal("VectorEnabled must be false after SetVectorEnabled(false)")
	}
	if name := VectorISA(); name != "none" {
		t.Fatalf("kernel.VectorISA with vector disabled = %q, want none", name)
	}

	const ts = 16
	rng := rand.New(rand.NewSource(5))
	mk := func() []float32 {
		s := make([]float32, ts*ts)
		for i := range s {
			s[i] = rng.Float32() * 32
		}
		return s
	}
	a, b, c := mk(), mk(), mk()
	ref := append([]float32(nil), c...)
	ScalarMulMinPlus(ref, a, b, ts)
	got := append([]float32(nil), c...)
	PanelMinPlusF32(got, a, b, ts) // must run the PanelMinPlus fallback here
	for i := range ref {
		if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
			t.Fatalf("forced-fallback panel diverges at cell %d: %v vs %v", i, got[i], ref[i])
		}
	}
}
