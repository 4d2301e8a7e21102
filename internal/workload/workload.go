// Package workload generates the deterministic, seeded problem instances
// the tests, examples and experiment harness run on. The paper evaluates
// on the Zuker bifurcation recurrence over RNA-derived tables; lacking
// the authors' inputs, these generators produce synthetic instances that
// exercise exactly the same code paths (see DESIGN.md, substitutions).
package workload

import (
	"math/rand"

	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// Chain returns an n-point NPDP instance shaped like the matrix-chain /
// Zuker bifurcation base case: d[i][i] = 0, d[i][i+1] drawn uniformly
// from [1, 100), every other cell at infinity. The recurrence then builds
// all longer spans from adjacent ones, touching every dependence class.
func Chain[E semiring.Elem](n int, seed int64) *tri.RowMajor[E] {
	m := tri.NewRowMajor[E](n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 0)
	}
	for i, v := range ChainSuperdiagonal[E](n, seed) {
		m.Set(i, i+1, v)
	}
	return m
}

// ChainSuperdiagonal returns the only cells of Chain(n, seed) that are
// neither 0 nor infinity: element i is d[i][i+1]. A caller that builds
// the instance in its own table (the serving layer) starts from this
// instead of a throwaway n-point Chain table; Chain is built on it, so
// the instance has one definition.
func ChainSuperdiagonal[E semiring.Elem](n int, seed int64) []E {
	rng := rand.New(rand.NewSource(seed))
	sup := make([]E, max(n-1, 0))
	for i := range sup {
		sup[i] = E(1 + rng.Float64()*99)
	}
	return sup
}

// Dense returns an n-point instance with every upper-triangle cell
// initialized to a uniform value in [0, 100) and the diagonal at 0. Every
// relaxation is live, which maximizes kernel sensitivity in tests.
func Dense[E semiring.Elem](n int, seed int64) *tri.RowMajor[E] {
	rng := rand.New(rand.NewSource(seed))
	m := tri.NewRowMajor[E](n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			m.Set(i, j, E(rng.Float64()*100))
		}
		m.Set(j, j, 0)
	}
	return m
}

// RNABases is the alphabet RNA sequences are drawn from.
const RNABases = "ACGU"

// RNA returns a seeded random RNA sequence of length n.
func RNA(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = RNABases[rng.Intn(len(RNABases))]
	}
	return string(b)
}

// Sizes returns a geometric sweep of problem sizes from lo doubling up to
// hi inclusive, for the harness' n-sweeps.
func Sizes(lo, hi int) []int {
	var out []int
	for n := lo; n <= hi; n *= 2 {
		out = append(out, n)
	}
	return out
}
