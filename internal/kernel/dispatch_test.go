package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cellnpdp/internal/semiring"
)

// atLevels runs fn once per dispatch level this host can run, widest
// first: the detected vector level, AVX2 below AVX-512, and the pure-Go
// bodies. It passes the level's name, the ISA it dispatches to
// ("avx512", "avx2", "neon") or "go". The AVX2 level on an AVX-512 host
// is the package's test-only seam: it sets the live level, which no
// option or environment variable reaches, so the AVX2 bands stay tested
// on hosts that would never run them.
func atLevels(fn func(level string)) {
	for _, l := range []isa{isaAVX512, isaAVX2, isaNEON, isaGo} {
		if l != detected && l != isaGo && !(l == isaAVX2 && detected == isaAVX512) {
			continue
		}
		func() {
			defer func(prev isa) { live = prev }(live)
			live = l
			name := VectorISA()
			if name == "none" {
				name = "go"
			}
			fn(name)
		}()
	}
}

// The seam must name three distinct levels on an AVX-512 host, and the
// default dispatch must be the widest one.
func TestDispatchLevels(t *testing.T) {
	var names []string
	atLevels(func(level string) { names = append(names, level) })
	if names[len(names)-1] != "go" {
		t.Fatalf("levels %v do not end with the Go bodies", names)
	}
	if detected == isaAVX512 {
		if got := fmt.Sprint(names); got != "[avx512 avx2 go]" {
			t.Fatalf("AVX-512 host runs levels %s, want [avx512 avx2 go]", got)
		}
		if VectorISA() != "avx512" {
			t.Fatalf("default dispatch on an AVX-512 host is %q", VectorISA())
		}
	}
}

// The band dispatch at every level must match the Go strips bit for
// bit over the column counts that exercise each opmask shape (one ZMM
// partly masked, one full and one masked, full passes plus a tail) and
// each AVX2 shape (the 4-wide tail alone, 8-wide passes with and
// without it), k from one step to a full tile, and strides equal to and
// wider than cols.
func TestBandMatchesStrips(t *testing.T) {
	bandMatchesStrips(t, bandF32)
	bandMatchesStrips(t, bandF64)
}

func bandMatchesStrips[E semiring.Elem](t *testing.T, band func(c, a, b []E, stride, cols, k int)) {
	t.Helper()
	const tile = 92
	for _, cols := range []int{4, 8, 12, 16, 20, 24, 28, 32, 36, tile} {
		for _, k := range []int{1, 2, tile} {
			for _, stride := range []int{cols, cols + 12} {
				seed := int64(cols*1000 + k*10 + stride)
				checkBand(t, band, adversarialBand[E](3*stride+cols, seed), adversarialBand[E](3*stride+k, seed+1),
					adversarialBand[E]((k-1)*stride+cols, seed+2), stride, cols, k)
			}
		}
	}
}

// checkBand runs band at every dispatch level on a C block, A band and
// B band holding cData, aData and bData (3·stride+cols, 3·stride+k and
// (k-1)·stride+cols cells at row stride `stride`) and requires the Go
// strips' result bit for bit. C, A and B are exact-length views of
// longer arrays. The cells right of each C row's cols-th column and
// past C's end hold a sentinel the band must leave untouched, while the
// cells around A and B are zeros that would pull any wrongly stored
// lane below it.
func checkBand[E semiring.Elem](t *testing.T, band func(c, a, b []E, stride, cols, k int), cData, aData, bData []E, stride, cols, k int) {
	t.Helper()
	const pad = 40
	c := bandView(cData, stride, cols, 4, pad, E(1e30))
	a := bandView(aData, stride, k, 4, pad, 0)
	b := bandView(bData, stride, cols, k, pad, 0)
	nc, na, nb := len(cData), len(aData), len(bData)
	want := append([]E(nil), c...)
	for j := 0; j < cols; j += CB {
		strip(want[j:nc:nc], a[:na:na], b[j:nb:nb], stride, k)
	}
	atLevels(func(level string) {
		got := append([]E(nil), c...)
		band(got[:nc:nc], a[:na:na], b[:nb:nb], stride, cols, k)
		for i := range want {
			if bitsOf(got[i]) != bitsOf(want[i]) {
				t.Fatalf("%T %s cols=%d k=%d stride=%d: cell %d (row %d, col %d) = %v, strips give %v",
					got[i], level, cols, k, stride, i, i/stride, i%stride, got[i], want[i])
			}
		}
	})
}

// bandView lays data, rows×width cells at row stride `stride`, into an
// array pad cells longer than data, filling the cells past each row's
// width and past data's end with fill.
func bandView[E semiring.Elem](data []E, stride, width, rows, pad int, fill E) []E {
	out := make([]E, len(data)+pad)
	for i := range out {
		if i < len(data) && i%stride < width && i/stride < rows {
			out[i] = data[i]
		} else {
			out[i] = fill
		}
	}
	return out
}

// The band dispatch must send a C block, A band or B band one element
// shorter than the band touches to a Go body, which panics on the
// out-of-range access, at every level. The assembly would otherwise
// read and write past the slice, the masked AVX-512 passes without
// faulting.
func TestBandShortFallsBack(t *testing.T) {
	bandShortFallsBack(t, bandF32)
	bandShortFallsBack(t, bandF64)
}

func bandShortFallsBack[E semiring.Elem](t *testing.T, dispatch func(c, a, b []E, stride, cols, k int)) {
	t.Helper()
	const stride, cols, k = 40, 36, 5
	for _, short := range []string{"C", "A", "B"} {
		atLevels(func(level string) {
			c := adversarialBand[E](3*stride+cols, 1)
			a := adversarialBand[E](3*stride+k, 2)
			b := adversarialBand[E]((k-1)*stride+cols, 3)
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
					t.Errorf("%T %s short %s: band dispatch did not panic in a Go body", c[0], level, short)
				}
			}()
			dispatch(c, a, b, stride, cols, k)
		})
	}
}

// The closure dispatch at every level must match closeCB bit for bit
// with -Inf, +Inf, NaN and ±0 placed at each cell of R's diagonal CB,
// of L's diagonal CB and of D's CB. The R cells are the ones the
// kernel's +Inf lanes mask out or add in; the D cells are the lanes that
// +Inf must leave alone (splat + Inf is NaN for a -Inf or NaN splat).
// The other cells are drawn from {+0, -0, 1, 2}, so ties between
// signed zeros decide many minima and a reordered term flips a sign.
func TestCloseVectorMatchesGo(t *testing.T) {
	closeMatchesGo(t, closeF32)
	closeMatchesGo(t, closeF64)
}

func closeMatchesGo[E semiring.Elem](t *testing.T, dispatch func(d, l, r []E, t, p, q int)) {
	t.Helper()
	const tile, p, q = 12, 1, 2 // D's CB (1,2), L's CB (1,1), R's CB (2,2)
	rng := rand.New(rand.NewSource(1))
	values := []E{0, E(math.Copysign(0, -1)), 1, 2}
	block := func() []E {
		b := make([]E, tile*tile)
		for i := range b {
			b[i] = values[rng.Intn(len(values))]
		}
		return b
	}
	check := func(name string, d, l, r []E) {
		want := append([]E(nil), d...)
		closeCB(want, l, r, tile, p, q)
		atLevels(func(level string) {
			got := append([]E(nil), d...)
			dispatch(got, l, r, tile, p, q)
			requireBits(t, fmt.Sprintf("%T %s closure, %s", got[0], level, name), tile, 0, got, want)
		})
	}
	specials := []E{E(math.Inf(-1)), E(math.Inf(1)), E(math.NaN()), 0, E(math.Copysign(0, -1))}
	for _, target := range []struct {
		name     string
		block, c int // which of d, l, r, and the CB's top-left cell
	}{{"R", 2, q*CB*tile + q*CB}, {"L", 1, p*CB*tile + p*CB}, {"D", 0, p*CB*tile + q*CB}} {
		for _, s := range specials {
			for cell := 0; cell < CB*CB; cell++ {
				blocks := [3][]E{block(), block(), block()}
				blocks[target.block][target.c+cell/CB*tile+cell%CB] = s
				check(fmt.Sprintf("%v at %s cell %d", s, target.name, cell), blocks[0], blocks[1], blocks[2])
			}
		}
	}
}

// The closure dispatch must send a D or L block one element shorter
// than its CB, or an R block one element shorter than the three rows of
// its diagonal CB the kernel reads, to closeCB, which panics on the
// out-of-range access, at every level.
func TestCloseShortFallsBack(t *testing.T) {
	closeShortFallsBack(t, closeF32)
	closeShortFallsBack(t, closeF64)
}

func closeShortFallsBack[E semiring.Elem](t *testing.T, dispatch func(d, l, r []E, t, p, q int)) {
	t.Helper()
	const tile, p, q = 12, 1, 2
	for _, short := range []string{"D", "L", "R"} {
		atLevels(func(level string) {
			d := adversarialBand[E]((p*CB+3)*tile+q*CB+CB, 1)
			l := adversarialBand[E]((p*CB+3)*tile+p*CB+CB, 2)
			r := adversarialBand[E]((q*CB+2)*tile+q*CB+CB, 3)
			switch short {
			case "D":
				d = d[: len(d)-1 : len(d)-1]
			case "L":
				l = l[: len(l)-1 : len(l)-1]
			case "R":
				r = r[: len(r)-1 : len(r)-1]
			}
			defer func() {
				if recover() == nil {
					t.Errorf("%T %s short %s: closure dispatch did not panic in closeCB", d[0], level, short)
				}
			}()
			dispatch(d, l, r, tile, p, q)
		})
	}
}

// BenchmarkStage2OffDiag and BenchmarkStage2Diag time float32 stage 2
// at the default float32 tile on every dispatch level; the F64
// benchmarks time float64 at the default float64 tile. L, R and the
// diagonal block are triangular, as in a solve.
func BenchmarkStage2OffDiag(b *testing.B) {
	benchStage2(b, 88, randBlock, false)
}

func BenchmarkStage2OffDiagF64(b *testing.B) {
	benchStage2(b, 64, randBlock64, false)
}

func BenchmarkStage2Diag(b *testing.B) {
	benchStage2(b, 88, randBlock, true)
}

func BenchmarkStage2DiagF64(b *testing.B) {
	benchStage2(b, 64, randBlock64, true)
}

func benchStage2[E semiring.Elem](b *testing.B, tile int, gen func(int, int64) []E, diag bool) {
	d, l, r := gen(tile, 1), gen(tile, 2), gen(tile, 3)
	triangularize(l, tile)
	triangularize(r, tile)
	if diag {
		triangularize(d, tile)
	}
	atLevels(func(level string) {
		b.Run(level, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if diag {
					Stage2Diag(d, tile)
				} else {
					Stage2OffDiag(d, l, r, tile)
				}
			}
		})
	})
}
