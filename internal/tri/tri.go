// Package tri implements the triangular DP-table layouts the paper
// compares: the conventional row-major triangular matrix (Section III,
// Figure 2) and the new block-sequential data layout, NDL (Figure 5),
// where each square memory block is stored contiguously so that one DMA
// command moves a whole block.
//
// Throughout, the table holds cells (i, j) with 0 ≤ i ≤ j < n: the upper
// triangle including the diagonal. The canonical NPDP evaluation order is
// the one in the paper's Figure 1: columns j ascending, rows i descending.
package tri

import (
	"fmt"

	"cellnpdp/internal/semiring"
)

// CellCount returns the number of stored cells of an n-point table:
// n(n+1)/2 (upper triangle including the diagonal).
func CellCount(n int) int { return n * (n + 1) / 2 }

// CheckSize validates a problem size.
func CheckSize(n int) error {
	if n <= 0 {
		return fmt.Errorf("tri: problem size must be positive, got %d", n)
	}
	return nil
}

// CheckCell validates that (i, j) addresses a stored (upper-triangle)
// cell of an n-point table.
func CheckCell(n, i, j int) error {
	if i < 0 || j < i || j >= n {
		return fmt.Errorf("tri: cell (%d,%d) outside upper triangle of size %d", i, j, n)
	}
	return nil
}

// ForEach visits every stored cell in the canonical Figure 1 order:
// j = 0..n-1 ascending, i = j..0 descending. The diagonal cell (j, j) is
// visited first within its column.
func ForEach(n int, visit func(i, j int)) {
	for j := 0; j < n; j++ {
		for i := j; i >= 0; i-- {
			visit(i, j)
		}
	}
}

// Table is the read/write interface shared by both layouts. Engines use
// the concrete types on hot paths; Table exists for tests, comparison and
// the generic reference implementations.
type Table[E semiring.Elem] interface {
	// Len returns the problem size n.
	Len() int
	// At returns the value of cell (i, j). i ≤ j required.
	At(i, j int) E
	// Set stores v into cell (i, j). i ≤ j required.
	Set(i, j int, v E)
}

// Fill sets every stored cell of t to the value produced by f.
func Fill[E semiring.Elem](t Table[E], f func(i, j int) E) {
	n := t.Len()
	ForEach(n, func(i, j int) { t.Set(i, j, f(i, j)) })
}

// Equal reports whether two tables have the same size and identical cell
// values. Min-plus engines re-associate the same min-set, so correct
// engines agree bit-for-bit and Equal uses exact comparison.
func Equal[E semiring.Elem](a, b Table[E]) bool {
	if a.Len() != b.Len() {
		return false
	}
	n := a.Len()
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

// FirstDiff returns the first (in canonical order) cell where a and b
// disagree, for test diagnostics. ok is false when the tables are equal.
func FirstDiff[E semiring.Elem](a, b Table[E]) (i, j int, av, bv E, ok bool) {
	n := a.Len()
	if b.Len() != n {
		return 0, 0, 0, 0, true
	}
	for jj := 0; jj < n; jj++ {
		for ii := jj; ii >= 0; ii-- {
			if x, y := a.At(ii, jj), b.At(ii, jj); x != y {
				return ii, jj, x, y, true
			}
		}
	}
	return 0, 0, 0, 0, false
}
