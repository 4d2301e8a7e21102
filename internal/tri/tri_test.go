package tri

import (
	"testing"

	"cellnpdp/internal/semiring"
)

func TestCellCount(t *testing.T) {
	cases := map[int]int{1: 1, 2: 3, 3: 6, 4: 10, 12: 78}
	for n, want := range cases {
		if got := CellCount(n); got != want {
			t.Errorf("CellCount(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestForEachOrderAndCoverage(t *testing.T) {
	const n = 9
	var visits [][2]int
	ForEach(n, func(i, j int) { visits = append(visits, [2]int{i, j}) })
	if len(visits) != CellCount(n) {
		t.Fatalf("visited %d cells, want %d", len(visits), CellCount(n))
	}
	seen := map[[2]int]bool{}
	lastJ, lastI := -1, -1
	for _, v := range visits {
		i, j := v[0], v[1]
		if i < 0 || i > j || j >= n {
			t.Fatalf("visited out-of-triangle cell (%d,%d)", i, j)
		}
		if seen[v] {
			t.Fatalf("cell (%d,%d) visited twice", i, j)
		}
		seen[v] = true
		if j != lastJ {
			if j != lastJ+1 {
				t.Fatalf("column order broken: %d after %d", j, lastJ)
			}
			lastJ, lastI = j, j+1
		}
		if i != lastI-1 {
			t.Fatalf("row order broken in column %d: %d after %d", j, i, lastI)
		}
		lastI = i
	}
}

func TestRowMajorRoundTrip(t *testing.T) {
	const n = 37
	m := NewRowMajor[float32](n)
	ForEach(n, func(i, j int) { m.Set(i, j, float32(i*1000+j)) })
	ForEach(n, func(i, j int) {
		if got := m.At(i, j); got != float32(i*1000+j) {
			t.Fatalf("At(%d,%d) = %v", i, j, got)
		}
	})
}

func TestRowMajorIndexDense(t *testing.T) {
	// Indices must cover [0, CellCount) exactly once.
	const n = 25
	m := NewRowMajor[float64](n)
	seen := make([]bool, CellCount(n))
	ForEach(n, func(i, j int) {
		idx := m.Index(i, j)
		if idx < 0 || idx >= len(seen) || seen[idx] {
			t.Fatalf("Index(%d,%d) = %d invalid or duplicate", i, j, idx)
		}
		seen[idx] = true
	})
}

func TestRowMajorRow(t *testing.T) {
	const n = 16
	m := NewRowMajor[float32](n)
	ForEach(n, func(i, j int) { m.Set(i, j, float32(100*i+j)) })
	row := m.Row(3, 5, 9)
	if len(row) != 5 {
		t.Fatalf("Row length = %d, want 5", len(row))
	}
	for k, v := range row {
		if v != float32(300+5+k) {
			t.Errorf("Row(3,5,9)[%d] = %v, want %v", k, v, 300+5+k)
		}
	}
	row[0] = -1
	if m.At(3, 5) != -1 {
		t.Error("Row does not alias the backing store")
	}
}

func TestTiledRoundTrip(t *testing.T) {
	for _, n := range []int{1, 5, 16, 17, 40} {
		for _, tile := range []int{4, 8, 16} {
			tt := NewTiled[float32](n, tile)
			ForEach(n, func(i, j int) { tt.Set(i, j, float32(i*997+j)) })
			ForEach(n, func(i, j int) {
				if got := tt.At(i, j); got != float32(i*997+j) {
					t.Fatalf("n=%d tile=%d: At(%d,%d) = %v", n, tile, i, j, got)
				}
			})
		}
	}
}

func TestTiledBlockContiguity(t *testing.T) {
	// The whole point of the NDL: a block's cells are consecutive in the
	// backing store, and distinct blocks do not overlap.
	tt := NewTiled[float32](40, 8)
	m := tt.Blocks()
	offsets := map[int][2]int{}
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			off := tt.BlockBytesOffset(bi, bj)
			if off%(8*8) != 0 {
				t.Errorf("block (%d,%d) offset %d not block-aligned", bi, bj, off)
			}
			if prev, dup := offsets[off]; dup {
				t.Errorf("blocks (%d,%d) and %v share offset %d", bi, bj, prev, off)
			}
			offsets[off] = [2]int{bi, bj}
			b := tt.Block(bi, bj)
			if len(b) != 64 {
				t.Errorf("block (%d,%d) length %d", bi, bj, len(b))
			}
		}
	}
	if want := m * (m + 1) / 2; len(offsets) != want {
		t.Errorf("%d distinct blocks, want %d", len(offsets), want)
	}
}

func TestTiledBlockAliasesAt(t *testing.T) {
	tt := NewTiled[float64](20, 8)
	b := tt.Block(1, 2)
	b[3*8+5] = 42 // cell (8+3, 16+5)
	if tt.At(11, 21) != 42 {
		t.Error("Block slice does not alias At addressing")
	}
}

func TestTiledPaddingIsInf(t *testing.T) {
	tt := NewTiled[float32](10, 8) // padded to 16
	inf := semiring.Inf[float32]()
	ForEach(10, func(i, j int) { tt.Set(i, j, 1) })
	// Padding cells beyond n and below the diagonal must stay infinite.
	for bi := 0; bi < tt.Blocks(); bi++ {
		for bj := bi; bj < tt.Blocks(); bj++ {
			b := tt.Block(bi, bj)
			for a := 0; a < 8; a++ {
				for c := 0; c < 8; c++ {
					gi, gj := bi*8+a, bj*8+c
					if gi > gj || gi >= 10 || gj >= 10 {
						if b[a*8+c] != inf {
							t.Fatalf("padding cell (%d,%d) = %v, want Inf", gi, gj, b[a*8+c])
						}
					}
				}
			}
		}
	}
}

func TestResetPadding(t *testing.T) {
	tt := NewTiled[float32](10, 8)
	// Corrupt padding, then restore.
	tt.Block(0, 0)[1*8+0] = 7 // below-diagonal
	tt.Block(1, 1)[3*8+3] = 7 // beyond n on the diagonal block
	tt.ResetPadding()
	inf := semiring.Inf[float32]()
	if tt.Block(0, 0)[1*8+0] != inf || tt.Block(1, 1)[3*8+3] != inf {
		t.Error("ResetPadding did not restore infinity")
	}
}

// toTiledRef is the per-cell conversion, kept as the oracle for the
// row-segment copies: one Set per stored cell, so every value lands where
// Tiled addresses it and every padding cell keeps NewTiled's Inf.
func toTiledRef[E semiring.Elem](src *RowMajor[E], tile int) *Tiled[E] {
	dst := NewTiled[E](src.Len(), tile)
	n := src.Len()
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			dst.Set(i, j, src.At(i, j))
		}
	}
	return dst
}

// TestConvertRoundTrip checks each conversion against the per-cell
// oracle, not only against the other: a round trip alone cannot see a
// placement bug that ToTiled and Copy make symmetrically.
func TestConvertRoundTrip(t *testing.T) {
	for _, tile := range []int{1, 3, 4, 8, 88} {
		ns := []int{1, 2}
		for k := 1; k <= 3; k++ {
			ns = append(ns, k*tile-1, k*tile, k*tile+1)
		}
		for _, n := range ns {
			if n >= 1 {
				checkConvert[float32](t, n, tile)
				checkConvert[float64](t, n, tile)
			}
		}
	}
}

func checkConvert[E semiring.Elem](t *testing.T, n, tile int) {
	t.Helper()
	src := NewRowMajor[E](n)
	// Distinct values, so a value copied into another cell's place cannot
	// match by accident.
	ForEach(n, func(i, j int) { src.Set(i, j, E(i*n+j+1)) })
	ref := toTiledRef(src, tile)
	tt := ToTiled(src, tile)
	got, want := tt.Cells(), ref.Cells()
	for k := range want { // padding cells included
		if got[k] != want[k] {
			t.Fatalf("%T n=%d tile=%d: ToTiled cell %d = %v, want %v", want[k], n, tile, k, got[k], want[k])
		}
	}
	back := NewRowMajor[E](n)
	cells := back.Cells()
	for k := range cells {
		cells[k] = -1 // a sentinel no source cell holds
	}
	Copy(back, ref)
	if i, j, w, g, diff := FirstDiff[E](src, back); diff {
		t.Fatalf("%T n=%d tile=%d: Copy left (%d,%d) = %v, want %v", w, n, tile, i, j, g, w)
	}
	if !Equal[E](src, ToRowMajor(tt)) {
		t.Fatalf("%T n=%d tile=%d: ToRowMajor(ToTiled(src)) differs from src", want[0], n, tile)
	}
	// The one-block conversions, block by block into sentinel buffers.
	blk := make([]E, tile*tile)
	for k := range cells {
		cells[k] = -1
	}
	for bi := 0; bi < ref.Blocks(); bi++ {
		for bj := bi; bj < ref.Blocks(); bj++ {
			for k := range blk {
				blk[k] = -1
			}
			GatherBlock(blk, src, tile, bi, bj)
			for k, w := range ref.Block(bi, bj) { // padding cells included
				if blk[k] != w {
					t.Fatalf("%T n=%d tile=%d: GatherBlock(%d,%d) cell %d = %v, want %v", w, n, tile, bi, bj, k, blk[k], w)
				}
			}
			ScatterBlock(back, ref.Block(bi, bj), tile, bi, bj)
		}
	}
	if i, j, w, g, diff := FirstDiff[E](src, back); diff {
		t.Fatalf("%T n=%d tile=%d: ScatterBlock left (%d,%d) = %v, want %v", w, n, tile, i, j, g, w)
	}
}

func TestEqualAndFirstDiff(t *testing.T) {
	a := NewRowMajor[float32](6)
	b := NewRowMajor[float32](6)
	if !Equal[float32](a, b) {
		t.Error("identical tables not Equal")
	}
	b.Set(2, 4, 1)
	if Equal[float32](a, b) {
		t.Error("differing tables Equal")
	}
	i, j, _, bv, diff := FirstDiff[float32](a, b)
	if !diff || i != 2 || j != 4 || bv != 1 {
		t.Errorf("FirstDiff = (%d,%d,%v,%v)", i, j, bv, diff)
	}
	c := NewRowMajor[float32](5)
	if Equal[float32](a, c) {
		t.Error("different sizes Equal")
	}
}

func TestCheckersReject(t *testing.T) {
	if CheckSize(0) == nil || CheckSize(-3) == nil {
		t.Error("CheckSize accepted non-positive size")
	}
	for _, c := range [][3]int{{5, -1, 2}, {5, 3, 2}, {5, 0, 5}, {5, 2, 7}} {
		if CheckCell(c[0], c[1], c[2]) == nil {
			t.Errorf("CheckCell(%v) accepted invalid cell", c)
		}
	}
	if CheckCell(5, 0, 4) != nil || CheckCell(5, 2, 2) != nil {
		t.Error("CheckCell rejected valid cell")
	}
}

func TestPanicsOnInvalid(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewRowMajor(0)", func() { NewRowMajor[float32](0) })
	mustPanic("NewTiled(-1,4)", func() { NewTiled[float32](-1, 4) })
	mustPanic("NewTiled(8,0)", func() { NewTiled[float32](8, 0) })
	tt := NewTiled[float32](8, 4)
	mustPanic("Block(1,0)", func() { tt.Block(1, 0) })
	mustPanic("Block(0,5)", func() { tt.Block(0, 5) })
}

func TestClone(t *testing.T) {
	src := NewRowMajor[float32](10)
	src.Set(1, 5, 3)
	c := src.Clone()
	c.Set(1, 5, 9)
	if src.At(1, 5) != 3 {
		t.Error("RowMajor Clone shares storage")
	}
	ts := NewTiled[float32](10, 4)
	ts.Set(1, 5, 3)
	tc := ts.Clone()
	tc.Set(1, 5, 9)
	if ts.At(1, 5) != 3 {
		t.Error("Tiled Clone shares storage")
	}
}

func TestFill(t *testing.T) {
	m := NewRowMajor[float64](7)
	Fill[float64](m, func(i, j int) float64 { return float64(i + j) })
	if m.At(2, 5) != 7 {
		t.Errorf("Fill wrote %v at (2,5)", m.At(2, 5))
	}
}
