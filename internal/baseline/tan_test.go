package baseline

import (
	"testing"

	"cellnpdp/internal/npdp"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

func TestTanMatchesSerial(t *testing.T) {
	for _, n := range []int{4, 16, 33, 64, 100, 200} {
		for _, workers := range []int{1, 2, 4} {
			for _, tile := range []int{8, 16, 24} {
				src := workload.Chain[float32](n, int64(n*13+workers+tile))
				ref := src.Clone()
				npdp.SolveSerial(ref)
				got := src.Clone()
				if _, err := Solve(got, Options{Workers: workers, Tile: tile}); err != nil {
					t.Fatalf("Solve(n=%d w=%d t=%d): %v", n, workers, tile, err)
				}
				if i, j, av, bv, diff := tri.FirstDiff[float32](ref, got); diff {
					t.Fatalf("n=%d w=%d t=%d: first diff at (%d,%d): serial=%v tan=%v", n, workers, tile, i, j, av, bv)
				}
			}
		}
	}
}

func TestTanMatchesSerialF64(t *testing.T) {
	src := workload.Dense[float64](130, 3)
	ref := src.Clone()
	npdp.SolveSerial(ref)
	got := src.Clone()
	if _, err := Solve(got, Options{Workers: 4, Tile: 20}); err != nil {
		t.Fatal(err)
	}
	if !tri.Equal[float64](ref, got) {
		t.Fatal("TanNPDP f64 differs from serial")
	}
}

func TestTanRelaxCount(t *testing.T) {
	const n = 60
	src := workload.Chain[float32](n, 1)
	relax, err := Solve(src, Options{Workers: 3, Tile: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (int64(n)*int64(n) - 1) / 6
	if relax != want {
		t.Errorf("relaxations = %d, want %d", relax, want)
	}
}

func TestTanRejectsBadOptions(t *testing.T) {
	src := workload.Chain[float32](16, 1)
	if _, err := Solve(src, Options{Workers: 0, Tile: 8}); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := Solve(src, Options{Workers: 2, Tile: 0}); err == nil {
		t.Error("0 tile accepted")
	}
}
