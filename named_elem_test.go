package cellnpdp_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"cellnpdp"
	"cellnpdp/internal/resilience"
)

// Named element types: Elem is ~float32 | ~float64, so a caller's
// `type cost float64` is a valid table element and must behave exactly
// like its underlying type everywhere the engines pick a width — cell
// encoding (seals, spill slots, checkpoints), tile sizing and the
// stage-1 kernel.
type (
	cost   float64
	cost32 float32
)

func TestNamedElementTypes(t *testing.T) {
	t.Run("cost float64", namedElementSolves[cost, float64])
	t.Run("cost32 float32", namedElementSolves[cost32, float32])
}

// namedElementSolves runs every engine path that encodes, sizes or
// dispatches by element width on a named type N with underlying type U:
// each must match the serial engine bit for bit without degrading, and
// EstimateSolve must size N exactly like U.
func namedElementSolves[N, U cellnpdp.Elem](t *testing.T) {
	const n = 300
	ref := namedChain[N](t, n)
	if _, err := cellnpdp.Solve(ref, cellnpdp.Options{Engine: cellnpdp.Serial}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts cellnpdp.Options
	}{
		{"parallel", cellnpdp.Options{Engine: cellnpdp.Parallel, Workers: 2}},
		{"parallel heal", cellnpdp.Options{Engine: cellnpdp.Parallel, Workers: 2, Heal: true}},
		{"memory budget", cellnpdp.Options{Engine: cellnpdp.Parallel, Workers: 2, MemoryBudget: 200000}},
		{"cell", cellnpdp.Options{Engine: cellnpdp.Cell, Workers: 2}},
	} {
		got := namedChain[N](t, n)
		res, err := solveNoPanic(got, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Degraded {
			t.Fatalf("%s: degraded: %s", c.name, res.DegradedReason)
		}
		if c.opts.MemoryBudget > 0 && !res.Paged {
			t.Fatalf("%s: the solve did not page", c.name)
		}
		requireSameBits(t, c.name, ref, got)
	}

	// Checkpoint then resume: a faulted run commits its completed
	// blocks, and the resumed solve restores them.
	ck := filepath.Join(t.TempDir(), "solve.npsp")
	_, err := solveNoPanic(namedChain[N](t, n), cellnpdp.Options{
		Engine: cellnpdp.Parallel, Workers: 2, NoFallback: true,
		FaultRate: 0.4, FaultSeed: 5, CheckpointPath: ck, CheckpointEvery: 1,
	})
	var te *resilience.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("faulted run returned %v, want a task error", err)
	}
	resumed := namedChain[N](t, n)
	res, err := solveNoPanic(resumed, cellnpdp.Options{Engine: cellnpdp.Parallel, Workers: 2, CheckpointPath: ck, Resume: true, NoFallback: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.ResumedTasks == 0 {
		t.Fatal("resume restored no tasks")
	}
	requireSameBits(t, "resumed", ref, resumed)

	for _, opts := range []cellnpdp.Options{{Engine: cellnpdp.Parallel}, {Engine: cellnpdp.Parallel, MemoryBudget: 200000}} {
		named, err := cellnpdp.EstimateSolve[N](2048, opts)
		if err != nil {
			t.Fatal(err)
		}
		under, err := cellnpdp.EstimateSolve[U](2048, opts)
		if err != nil {
			t.Fatal(err)
		}
		if named != under {
			t.Fatalf("EstimateSolve sizes the named type %+v, its underlying type %+v", named, under)
		}
	}
}

// namedChain builds a seeded chain instance at element type E.
func namedChain[E cellnpdp.Elem](t *testing.T, n int) *cellnpdp.Table[E] {
	t.Helper()
	tbl, err := cellnpdp.NewTable[E](n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i+1 < n; i++ {
		if err := tbl.Set(i, i+1, E(1+rng.Float64()*99)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// solveNoPanic runs Solve and reports a panic escaping it as an error.
func solveNoPanic[E cellnpdp.Elem](tbl *cellnpdp.Table[E], opts cellnpdp.Options) (res *cellnpdp.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("Solve panicked: %v", p)
		}
	}()
	return cellnpdp.Solve(tbl, opts)
}

// requireSameBits compares two tables cell by cell, bit for bit.
func requireSameBits[E cellnpdp.Elem](t *testing.T, label string, want, got *cellnpdp.Table[E]) {
	t.Helper()
	for j := 0; j < want.Len(); j++ {
		for i := 0; i <= j; i++ {
			wv, _ := want.At(i, j)
			gv, _ := got.At(i, j)
			if math.Float64bits(float64(wv)) != math.Float64bits(float64(gv)) {
				t.Fatalf("%s: cell (%d,%d) = %v, serial %v", label, i, j, gv, wv)
			}
		}
	}
}
