package cellnpdp

import (
	"math/rand"
	"strings"
	"testing"
)

// buildRandom fills a table with a seeded chain instance.
func buildRandom(t testing.TB, n int, seed int64) *Table[float32] {
	t.Helper()
	tbl, err := NewTable[float32](n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i+1 < n; i++ {
		if err := tbl.Set(i, i+1, float32(1+rng.Float64()*99)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestAllEnginesBitIdentical(t *testing.T) {
	for _, n := range []int{16, 100, 256} {
		ref := buildRandom(t, n, int64(n))
		if _, err := Solve(ref, Options{Engine: Serial}); err != nil {
			t.Fatal(err)
		}
		for _, eng := range []Engine{Tiled, Parallel, Cell} {
			got := buildRandom(t, n, int64(n))
			res, err := Solve(got, Options{Engine: eng, Workers: 4})
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, eng, err)
			}
			if res.Engine != eng {
				t.Errorf("result engine %v, want %v", res.Engine, eng)
			}
			for j := 0; j < n; j++ {
				for i := 0; i <= j; i++ {
					a, _ := ref.At(i, j)
					b, _ := got.At(i, j)
					if a != b {
						t.Fatalf("n=%d %v: cell (%d,%d) differs: %v vs %v", n, eng, i, j, a, b)
					}
				}
			}
		}
	}
}

func TestSolveFloat64(t *testing.T) {
	const n = 64
	mk := func() *Table[float64] {
		tbl, err := NewTable[float64](n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				tbl.Set(i, j, rng.Float64()*100)
			}
		}
		return tbl
	}
	ref := mk()
	Solve(ref, Options{Engine: Serial})
	got := mk()
	if _, err := Solve(got, Options{Engine: Cell, Workers: 8}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			a, _ := ref.At(i, j)
			b, _ := got.At(i, j)
			if a != b {
				t.Fatalf("f64 cell (%d,%d) differs", i, j)
			}
		}
	}
}

func TestCellEngineReportsModel(t *testing.T) {
	tbl := buildRandom(t, 200, 1)
	res, err := Solve(tbl, Options{Engine: Cell, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.ModeledSeconds <= 0 {
		t.Error("no modeled seconds from Cell engine")
	}
	if res.DMABytes <= 0 {
		t.Error("no DMA bytes from Cell engine")
	}
	if res.Relaxations <= 0 {
		t.Error("no relaxation count")
	}
}

func TestSerialResultCounts(t *testing.T) {
	tbl := buildRandom(t, 50, 2)
	res, err := Solve(tbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(50) * (50*50 - 1) / 6
	if res.Relaxations != want {
		t.Errorf("relaxations = %d, want %d", res.Relaxations, want)
	}
	if res.ModeledSeconds != 0 || res.DMABytes != 0 {
		t.Error("serial engine reported Cell-only fields")
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable[float32](0); err == nil {
		t.Error("n=0 accepted")
	}
	tbl, _ := NewTable[float32](8)
	if err := tbl.Set(3, 2, 1); err == nil {
		t.Error("lower-triangle Set accepted")
	}
	if _, err := tbl.At(-1, 2); err == nil {
		t.Error("negative At accepted")
	}
	if err := tbl.Set(2, 8, 1); err == nil {
		t.Error("out-of-range Set accepted")
	}
	if tbl.Len() != 8 {
		t.Errorf("Len = %d", tbl.Len())
	}
	v, err := tbl.At(2, 2)
	if err != nil || v != 0 {
		t.Errorf("diagonal = %v, want 0", v)
	}
	v, _ = tbl.At(2, 5)
	if v != Inf[float32]() {
		t.Errorf("unset cell = %v, want Inf", v)
	}
}

func TestSolveRejectsBad(t *testing.T) {
	if _, err := Solve[float32](nil, Options{}); err == nil {
		t.Error("nil table accepted")
	}
	tbl, _ := NewTable[float32](8)
	if _, err := Solve(tbl, Options{Engine: Engine(42)}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := Solve(tbl, Options{BlockBytes: 8}); err == nil {
		t.Error("absurd block budget accepted")
	}
}

// Row is a view of cells (i,i)..(i,n-1): it reads what At reads, a
// write through it is a write to the table, a Solve updates it in place,
// and an out-of-range row fails with At's error.
func TestTableRow(t *testing.T) {
	const n = 12
	tbl := buildRandom(t, n, 5)
	views := make([][]float32, n)
	for i := range views {
		row, err := tbl.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != n-i {
			t.Fatalf("row %d has %d cells, want %d", i, len(row), n-i)
		}
		views[i] = row
	}
	if _, err := Solve(tbl, Options{Engine: Parallel, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	for i, row := range views {
		for j := i; j < n; j++ {
			if v, _ := tbl.At(i, j); row[j-i] != v {
				t.Fatalf("row %d view holds %v at column %d after Solve, At reads %v", i, row[j-i], j, v)
			}
		}
	}
	views[3][2] = -7
	if v, _ := tbl.At(3, 5); v != -7 {
		t.Fatalf("write through row view: At(3,5) = %v, want -7", v)
	}
	for _, i := range []int{-1, n} {
		_, rerr := tbl.Row(i)
		_, aerr := tbl.At(i, i)
		if rerr == nil || aerr == nil || rerr.Error() != aerr.Error() {
			t.Fatalf("Row(%d) error %v, want At(%d,%d)'s %v", i, rerr, i, i, aerr)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	tbl := buildRandom(t, 10, 3)
	c := tbl.Clone()
	c.Set(0, 5, -1)
	v, _ := tbl.At(0, 5)
	if v == -1 {
		t.Error("Clone shares storage")
	}
}

func TestEngineString(t *testing.T) {
	for e, want := range map[Engine]string{Serial: "serial", Tiled: "tiled", Parallel: "parallel", Cell: "cell"} {
		if e.String() != want {
			t.Errorf("%v", e)
		}
	}
	if !strings.Contains(Engine(9).String(), "9") {
		t.Error("unknown engine string")
	}
}

func TestFoldRNAQuickstart(t *testing.T) {
	res, err := FoldRNA("GGGAAAACCC", FoldOptions{Engine: Serial})
	if err != nil {
		t.Fatal(err)
	}
	if res.DotBracket != "(((....)))" {
		t.Errorf("structure %q", res.DotBracket)
	}
	if res.MFE >= 0 {
		t.Errorf("MFE %g", res.MFE)
	}
	if len(res.Pairs) != 3 {
		t.Errorf("pairs %v", res.Pairs)
	}
}

func TestFoldRNAEnginesAgree(t *testing.T) {
	seq := "GCGCUUCGAAAGCGCAAUUGCACGGCGGAUUACGCGUAAGCGUUAACGCC"
	ref, err := FoldRNA(seq, FoldOptions{Engine: Serial})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{Tiled, Parallel, Cell} {
		got, err := FoldRNA(seq, FoldOptions{Engine: eng, Workers: 4})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if got.MFE != ref.MFE {
			t.Errorf("%v MFE %g != %g", eng, got.MFE, ref.MFE)
		}
	}
	if _, err := FoldRNA("XYZ", FoldOptions{}); err == nil {
		t.Error("invalid sequence accepted")
	}
	if _, err := FoldRNA(seq, FoldOptions{Engine: Engine(42)}); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestMaxBasePairsAPI(t *testing.T) {
	// GGGAAAACCC folds into three nested GC pairs; with minSpan 3 the
	// count is exactly 3 (Nussinov agrees with the MFE structure here).
	res, err := MaxBasePairs("GGGAAAACCC", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 3 {
		t.Errorf("pairs %d, want 3", res.Pairs)
	}
	if res.Sequence != "GGGAAAACCC" {
		t.Errorf("sequence %q", res.Sequence)
	}
	// T normalizes to U; lattice answer is unchanged.
	res2, err := MaxBasePairs("gggaaaaccc", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Pairs != res.Pairs {
		t.Errorf("case-normalized pairs %d != %d", res2.Pairs, res.Pairs)
	}
	if _, err := MaxBasePairs("XYZ", 0); err == nil {
		t.Error("invalid sequence accepted")
	}
	if _, err := MaxBasePairs("", 0); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestMatrixChainAPI(t *testing.T) {
	cost, paren, err := MatrixChain([]int{30, 35, 15, 5, 10, 20, 25}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 15125 {
		t.Errorf("cost = %d", cost)
	}
	if !strings.Contains(paren, "A0") {
		t.Errorf("paren = %q", paren)
	}
	if _, _, err := MatrixChain([]int{3}, 2); err == nil {
		t.Error("too-short dims accepted")
	}
}

func TestOptimalBSTAPI(t *testing.T) {
	cost, depths, err := OptimalBST([]float64{0.1, 0.8, 0.1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if depths[1] != 1 {
		t.Errorf("hot key depth = %d", depths[1])
	}
	if cost <= 0 {
		t.Errorf("cost = %g", cost)
	}
	if _, _, err := OptimalBST(nil, 2); err == nil {
		t.Error("empty keys accepted")
	}
}

func TestFoldRNAConstraints(t *testing.T) {
	free, err := FoldRNA("GGGAAAACCC", FoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := FoldRNA("GGGAAAACCC", FoldOptions{Constraints: "x........."})
	if err != nil {
		t.Fatal(err)
	}
	if res.DotBracket[0] != '.' {
		t.Errorf("constrained base paired: %s", res.DotBracket)
	}
	if res.MFE < free.MFE {
		t.Error("constraint improved MFE")
	}
	if _, err := FoldRNA("GGGAAAACCC", FoldOptions{Constraints: "??"}); err == nil {
		t.Error("bad constraint line accepted")
	}
}

func TestFoldRNAFull(t *testing.T) {
	res, err := FoldRNAFull("GGGGGAAGGGGAAAACCCCAAGGGGAAAACCCCAACCCCC")
	if err != nil {
		t.Fatal(err)
	}
	if res.MFE >= 0 || len(res.Pairs) == 0 {
		t.Errorf("full fold: MFE %g, %d pairs", res.MFE, len(res.Pairs))
	}
	// The full model can only do as well or better than the simplified one.
	simple, err := FoldRNA(res.Sequence, FoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MFE > simple.MFE+1e-4 {
		t.Errorf("full MFE %g worse than simplified %g", res.MFE, simple.MFE)
	}
	if _, err := FoldRNAFull("NOPE!"); err == nil {
		t.Error("invalid sequence accepted")
	}
}

func TestParseCYKAPI(t *testing.T) {
	g := grammarBalancedParens()
	lp, ok, err := ParseCYK(g, []byte("(())"), 0)
	if err != nil || !ok {
		t.Fatalf("parse failed: %v %v", ok, err)
	}
	if lp >= 0 {
		t.Errorf("log-prob = %g", lp)
	}
	if _, ok, _ := ParseCYK(g, []byte(")("), 2); ok {
		t.Error("unbalanced input recognized")
	}
	if _, _, err := ParseCYK(g, nil, 2); err == nil {
		t.Error("empty input accepted")
	}
}

// grammarBalancedParens mirrors apps.BalancedParens through the exported
// aliases, proving the public types suffice to define a grammar.
func grammarBalancedParens() *Grammar {
	return &Grammar{
		Symbols: 4,
		Binary: []BinaryRule{
			{A: 0, B: 0, C: 0, W: -1},
			{A: 0, B: 2, C: 1, W: -1},
			{A: 0, B: 2, C: 3, W: -1},
			{A: 1, B: 0, C: 3, W: 0},
		},
		Lexical: []LexicalRule{
			{A: 2, T: '(', W: 0},
			{A: 3, T: ')', W: 0},
		},
	}
}

func TestMinWeightTriangulationAPI(t *testing.T) {
	w, tris, err := MinWeightTriangulation([]Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 2}, {X: 0, Y: 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tris) != 2 || w <= 0 {
		t.Errorf("weight %g, triangles %v", w, tris)
	}
	if _, _, err := MinWeightTriangulation([]Point{{X: 0, Y: 0}}, 2); err == nil {
		t.Error("degenerate polygon accepted")
	}
}

func TestSingleChipOption(t *testing.T) {
	tbl := buildRandom(t, 1024, 6)
	blade, err := Solve(tbl.Clone(), Options{Engine: Cell, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Solve(tbl.Clone(), Options{Engine: Cell, Workers: 16, SingleChip: true})
	if err != nil {
		t.Fatal(err)
	}
	// A single chip caps at 8 SPEs and one memory channel: same answer,
	// more modeled time.
	if single.ModeledSeconds <= blade.ModeledSeconds {
		t.Errorf("single chip (%g) not slower than the blade (%g)", single.ModeledSeconds, blade.ModeledSeconds)
	}
}
