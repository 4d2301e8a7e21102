package workload

import (
	"math/rand"
	"strings"
	"testing"

	"cellnpdp/internal/semiring"
)

func TestChainDeterministic(t *testing.T) {
	a := Chain[float32](50, 7)
	b := Chain[float32](50, 7)
	c := Chain[float32](50, 8)
	same, diff := true, false
	for j := 0; j < 50; j++ {
		for i := 0; i <= j; i++ {
			if a.At(i, j) != b.At(i, j) {
				same = false
			}
			if a.At(i, j) != c.At(i, j) {
				diff = true
			}
		}
	}
	if !same {
		t.Error("same seed produced different instances")
	}
	if !diff {
		t.Error("different seeds produced identical instances")
	}
}

// ChainSuperdiagonal is Chain's superdiagonal at both widths, and both
// draw d[i][i+1] = 1 + 99·Float64() in ascending i from one source.
func TestChainSuperdiagonalMatchesChain(t *testing.T) {
	superdiagonalMatchesChain[float32](t)
	superdiagonalMatchesChain[float64](t)
}

func superdiagonalMatchesChain[E semiring.Elem](t *testing.T) {
	t.Helper()
	for _, n := range []int{1, 2, 3, 100} {
		sup := ChainSuperdiagonal[E](n, 11)
		if len(sup) != n-1 {
			t.Fatalf("n=%d: %d superdiagonal cells, want %d", n, len(sup), n-1)
		}
		m := Chain[E](n, 11)
		rng := rand.New(rand.NewSource(11))
		for i, v := range sup {
			if want := E(1 + rng.Float64()*99); v != want || m.At(i, i+1) != v {
				t.Fatalf("n=%d: d[%d][%d]: superdiagonal %v, Chain %v, draw %v", n, i, i+1, v, m.At(i, i+1), want)
			}
		}
	}
}

func TestChainShape(t *testing.T) {
	m := Chain[float64](20, 1)
	inf := semiring.Inf[float64]()
	for i := 0; i < 20; i++ {
		if m.At(i, i) != 0 {
			t.Errorf("diagonal (%d,%d) = %v", i, i, m.At(i, i))
		}
		if i+1 < 20 {
			v := m.At(i, i+1)
			if v < 1 || v >= 100 {
				t.Errorf("adjacent span (%d,%d) = %v outside [1,100)", i, i+1, v)
			}
		}
		for j := i + 2; j < 20; j++ {
			if m.At(i, j) != inf {
				t.Errorf("long span (%d,%d) = %v, want Inf", i, j, m.At(i, j))
			}
		}
	}
}

func TestDenseShape(t *testing.T) {
	m := Dense[float32](15, 2)
	for j := 0; j < 15; j++ {
		if m.At(j, j) != 0 {
			t.Errorf("diagonal not 0 at %d", j)
		}
		for i := 0; i < j; i++ {
			v := m.At(i, j)
			if v < 0 || v >= 100 {
				t.Errorf("cell (%d,%d) = %v outside [0,100)", i, j, v)
			}
		}
	}
}

func TestRNA(t *testing.T) {
	s := RNA(200, 5)
	if len(s) != 200 {
		t.Fatalf("length %d", len(s))
	}
	for i := 0; i < len(s); i++ {
		if !strings.ContainsRune(RNABases, rune(s[i])) {
			t.Fatalf("invalid base %q", s[i])
		}
	}
	if RNA(200, 5) != s {
		t.Error("not deterministic")
	}
	if RNA(200, 6) == s {
		t.Error("seed ignored")
	}
	// All four bases should appear in a long sequence.
	for _, b := range RNABases {
		if !strings.ContainsRune(s, b) {
			t.Errorf("base %c never generated", b)
		}
	}
}

func TestSizes(t *testing.T) {
	got := Sizes(512, 4096)
	want := []int{512, 1024, 2048, 4096}
	if len(got) != len(want) {
		t.Fatalf("Sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sizes = %v, want %v", got, want)
		}
	}
	if s := Sizes(100, 50); s != nil {
		t.Errorf("empty sweep = %v", s)
	}
}
