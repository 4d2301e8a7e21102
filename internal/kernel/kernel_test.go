package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"cellnpdp/internal/semiring"
	"cellnpdp/internal/simd"
)

func randBlock(t int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float32, t*t)
	for i := range b {
		b[i] = float32(rng.Float64() * 100)
	}
	return b
}

func randBlock64(t int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, t*t)
	for i := range b {
		b[i] = rng.Float64() * 100
	}
	return b
}

// refStep is the scalar definition of one computing-block step.
func refStep(c, a, b []float32, stride int) {
	for r := 0; r < CB; r++ {
		for col := 0; col < CB; col++ {
			v := c[r*stride+col]
			for k := 0; k < CB; k++ {
				if w := a[r*stride+k] + b[k*stride+col]; w < v {
					v = w
				}
			}
			c[r*stride+col] = v
		}
	}
}

func TestStep4x4MatchesScalar(t *testing.T) {
	const stride = 8
	for trial := 0; trial < 50; trial++ {
		a := randBlock(stride, int64(trial))
		b := randBlock(stride, int64(trial+100))
		c1 := randBlock(stride, int64(trial+200))
		c2 := append([]float32(nil), c1...)
		Step4x4(c1, a, b, stride)
		refStep(c2, a, b, stride)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("trial %d: Step4x4 diverges from scalar at %d: %v vs %v", trial, i, c1[i], c2[i])
			}
		}
	}
}

func TestCountedStepF32MatchesPlain(t *testing.T) {
	const stride = 12
	var counts simd.Counts
	for trial := 0; trial < 20; trial++ {
		a := randBlock(stride, int64(trial))
		b := randBlock(stride, int64(trial+7))
		c1 := randBlock(stride, int64(trial+13))
		c2 := append([]float32(nil), c1...)
		Step4x4(c1, a, b, stride)
		CountedStepF32(c2, a, b, stride, &counts)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("trial %d: counted SIMD step diverges at %d", trial, i)
			}
		}
	}
}

func TestCountedStepF32TableI(t *testing.T) {
	// One computing-block step must execute exactly the Table I mix:
	// 12 loads, 16 shuffles, 16 adds, 16 compares, 16 selects, 4 stores.
	var counts simd.Counts
	a := randBlock(4, 1)
	b := randBlock(4, 2)
	c := randBlock(4, 3)
	CountedStepF32(c, a, b, 4, &counts)
	want := map[simd.Op]int64{
		simd.OpLoad: 12, simd.OpShuffle: 16, simd.OpAdd: 16,
		simd.OpCmp: 16, simd.OpSel: 16, simd.OpStore: 4,
	}
	for op, w := range want {
		if got := counts.Get(op); got != w {
			t.Errorf("%v count = %d, want %d", op, got, w)
		}
	}
	if counts.Total() != 80 {
		t.Errorf("total instructions = %d, want 80", counts.Total())
	}
}

func TestCountedStepF64MatchesPlain(t *testing.T) {
	const stride = 8
	var counts simd.Counts
	a := randBlock64(stride, 5)
	b := randBlock64(stride, 6)
	c1 := randBlock64(stride, 7)
	c2 := append([]float64(nil), c1...)
	Step4x4(c1, a, b, stride)
	CountedStepF64(c2, a, b, stride, &counts)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("counted f64 SIMD step diverges at %d", i)
		}
	}
	if counts.Total() != 144 {
		t.Errorf("DP step instructions = %d, want 144", counts.Total())
	}
}

// refMinPlusProduct applies C = min(C, A ⊗ B) cell-wise for whole tiles.
func refMinPlusProduct(c, a, b []float32, t int) {
	for i := 0; i < t; i++ {
		for j := 0; j < t; j++ {
			v := c[i*t+j]
			for k := 0; k < t; k++ {
				if w := a[i*t+k] + b[k*t+j]; w < v {
					v = w
				}
			}
			c[i*t+j] = v
		}
	}
}

func TestMulMinPlusMatchesRef(t *testing.T) {
	for _, tile := range []int{4, 8, 16, 20} {
		a := randBlock(tile, 1)
		b := randBlock(tile, 2)
		c1 := randBlock(tile, 3)
		c2 := append([]float32(nil), c1...)
		st := MulMinPlus(c1, a, b, tile)
		refMinPlusProduct(c2, a, b, tile)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("tile=%d: MulMinPlus diverges at %d", tile, i)
			}
		}
		cb := int64(tile / CB)
		if st.CBSteps != cb*cb*cb {
			t.Errorf("tile=%d: CBSteps = %d, want %d", tile, st.CBSteps, cb*cb*cb)
		}
	}
}

// refStage2OffDiag applies the off-diagonal inner recurrence directly.
func refStage2OffDiag[E semiring.Elem](d, l, r []E, t int) {
	for a := t - 1; a >= 0; a-- {
		for b := 0; b < t; b++ {
			v := d[a*t+b]
			for k := a; k < t; k++ {
				if w := l[a*t+k] + d[k*t+b]; w < v {
					v = w
				}
			}
			for k := 0; k < b; k++ {
				if w := d[a*t+k] + r[k*t+b]; w < v {
					v = w
				}
			}
			d[a*t+b] = v
		}
	}
}

func triangularize[E semiring.Elem](b []E, t int) {
	inf := semiring.Inf[E]()
	for i := 0; i < t; i++ {
		for j := 0; j < i; j++ {
			b[i*t+j] = inf
		}
		b[i*t+i] = 0
	}
}

// stage2Tiles are the tile sides the stage-2 tests run: small ones
// inside one R-side chunk, the default tiles of both widths (88 and
// 64), which cross several, and 68, whose last float32 chunk is one CB
// wide.
var stage2Tiles = []int{4, 8, 16, 24, 36, 64, 68, 88}

func TestStage2OffDiagMatchesRef(t *testing.T) {
	stage2OffDiagMatchesRef(t, randBlock)
	stage2OffDiagMatchesRef(t, randBlock64)
}

func stage2OffDiagMatchesRef[E semiring.Elem](t *testing.T, gen func(int, int64) []E) {
	t.Helper()
	for _, tile := range stage2Tiles {
		l := gen(tile, 10)
		r := gen(tile, 11)
		triangularize(l, tile)
		triangularize(r, tile)
		d := gen(tile, 12)
		want := append([]E(nil), d...)
		refStage2OffDiag(want, l, r, tile)
		atLevels(func(level string) {
			got := append([]E(nil), d...)
			st := Stage2OffDiag(got, l, r, tile)
			requireBits(t, fmt.Sprintf("%T %s Stage2OffDiag", got[0], level), tile, 0, got, want)
			if want := StatsStage2OffDiag(tile); st != want {
				t.Errorf("%s tile=%d: stats = %+v, want analytic %+v", level, tile, st, want)
			}
		})
	}
}

// refStage2Diag applies Figure 1 inside one tile.
func refStage2Diag[E semiring.Elem](d []E, t int) {
	for j := 0; j < t; j++ {
		for i := j - 1; i >= 0; i-- {
			v := d[i*t+j]
			for k := i; k < j; k++ {
				if w := d[i*t+k] + d[k*t+j]; w < v {
					v = w
				}
			}
			d[i*t+j] = v
		}
	}
}

func TestStage2DiagMatchesRef(t *testing.T) {
	stage2DiagMatchesRef(t, randBlock)
	stage2DiagMatchesRef(t, randBlock64)
}

func stage2DiagMatchesRef[E semiring.Elem](t *testing.T, gen func(int, int64) []E) {
	t.Helper()
	for _, tile := range stage2Tiles {
		d := gen(tile, 20)
		triangularize(d, tile)
		want := append([]E(nil), d...)
		refStage2Diag(want, tile)
		atLevels(func(level string) {
			got := append([]E(nil), d...)
			st := Stage2Diag(got, tile)
			requireBits(t, fmt.Sprintf("%T %s Stage2Diag", got[0], level), tile, 0, got, want)
			if want := StatsStage2Diag(tile); st != want {
				t.Errorf("%s tile=%d: stats = %+v, want analytic %+v", level, tile, st, want)
			}
		})
	}
}

// The exported stage-2 wrappers resolve the element type once per
// memory block of every solve; that switch must not allocate at any
// dispatch level, and neither may the panel dispatch.
func TestStage2DoesNotAllocate(t *testing.T) {
	d32, l32, r32 := randBlock(88, 1), randBlock(88, 2), randBlock(88, 3)
	d64, l64, r64 := randBlock64(64, 4), randBlock64(64, 5), randBlock64(64, 6)
	atLevels(func(level string) {
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"Stage2OffDiag[float32] t=88", func() { Stage2OffDiag(d32, l32, r32, 88) }},
			{"Stage2Diag[float32] t=88", func() { Stage2Diag(d32, 88) }},
			{"Stage2OffDiag[float64] t=64", func() { Stage2OffDiag(d64, l64, r64, 64) }},
			{"Stage2Diag[float64] t=64", func() { Stage2Diag(d64, 64) }},
			{"PanelMinPlusF32 t=88", func() { PanelMinPlusF32(d32, l32, r32, 88) }},
			{"PanelMinPlusF64 t=64", func() { PanelMinPlusF64(d64, l64, r64, 64) }},
		} {
			if n := testing.AllocsPerRun(10, c.run); n != 0 {
				t.Errorf("%s (%s): %v allocations per call, want 0", c.name, level, n)
			}
		}
	})
}

// cost is a named element type: the ~float64 in semiring.Elem admits
// it, and stage 2 runs it on the float64 body.
type cost float64

func TestStage2NamedElementType(t *testing.T) {
	const tile = 16
	l, r := randBlock64(tile, 7), randBlock64(tile, 8)
	triangularize(l, tile)
	triangularize(r, tile)
	d := randBlock64(tile, 9)
	named := func(x []float64) []cost {
		out := make([]cost, len(x))
		for i, v := range x {
			out[i] = cost(v)
		}
		return out
	}
	dn, ln, rn := named(d), named(l), named(r)
	Stage2OffDiag(d, l, r, tile)
	Stage2OffDiag(dn, ln, rn, tile)
	Stage2Diag(l, tile)
	Stage2Diag(ln, tile)
	for i := range d {
		if float64(dn[i]) != d[i] || float64(ln[i]) != l[i] {
			t.Fatalf("cell %d: named type off-diag %v diag %v, float64 %v %v", i, dn[i], ln[i], d[i], l[i])
		}
	}
}

func TestStatsMemoryBlock(t *testing.T) {
	mul := StatsMulMinPlus(16)
	off := StatsStage2OffDiag(16)
	got := StatsMemoryBlock(16, 2, 7) // 4 middle tiles
	want := Stats{CBSteps: off.CBSteps + 4*mul.CBSteps, ScalarRelax: off.ScalarRelax}
	if got != want {
		t.Errorf("StatsMemoryBlock = %+v, want %+v", got, want)
	}
	if d := StatsMemoryBlock(16, 3, 3); d != StatsStage2Diag(16) {
		t.Errorf("diagonal StatsMemoryBlock = %+v, want %+v", d, StatsStage2Diag(16))
	}
}

func TestCheckTile(t *testing.T) {
	for _, bad := range []int{0, -4, 1, 2, 3, 5, 7, 9} {
		if CheckTile(bad) == nil {
			t.Errorf("CheckTile(%d) accepted invalid tile", bad)
		}
	}
	for _, ok := range []int{4, 8, 88, 128} {
		if err := CheckTile(ok); err != nil {
			t.Errorf("CheckTile(%d): %v", ok, err)
		}
	}
}

func TestScalarKernelsMatchBlocked(t *testing.T) {
	for _, tile := range []int{4, 8, 16, 24} {
		a := randBlock(tile, 31)
		b := randBlock(tile, 32)
		c1 := randBlock(tile, 33)
		c2 := append([]float32(nil), c1...)
		st := MulMinPlus(c1, a, b, tile)
		n := ScalarMulMinPlus(c2, a, b, tile)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("tile=%d: ScalarMulMinPlus diverges at %d", tile, i)
			}
		}
		if n != st.Relaxations() {
			t.Errorf("tile=%d: scalar relax %d vs blocked %d", tile, n, st.Relaxations())
		}

		l := randBlock(tile, 34)
		r := randBlock(tile, 35)
		triangularize(l, tile)
		triangularize(r, tile)
		d1 := randBlock(tile, 36)
		d2 := append([]float32(nil), d1...)
		st2 := Stage2OffDiag(d1, l, r, tile)
		n2 := ScalarStage2OffDiag(d2, l, r, tile)
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("tile=%d: ScalarStage2OffDiag diverges at %d", tile, i)
			}
		}
		if n2 != st2.Relaxations() {
			t.Errorf("tile=%d: stage2 scalar relax %d vs blocked %d", tile, n2, st2.Relaxations())
		}

		g1 := randBlock(tile, 37)
		triangularize(g1, tile)
		g2 := append([]float32(nil), g1...)
		st3 := Stage2Diag(g1, tile)
		n3 := ScalarStage2Diag(g2, tile)
		for i := range g1 {
			if g1[i] != g2[i] {
				t.Fatalf("tile=%d: ScalarStage2Diag diverges at %d", tile, i)
			}
		}
		if n3 != st3.Relaxations() {
			t.Errorf("tile=%d: diag scalar relax %d vs blocked %d", tile, n3, st3.Relaxations())
		}
	}
}
