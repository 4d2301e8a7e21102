package tri

import "cellnpdp/internal/semiring"

// RowMajor is the conventional triangular layout used by the prior work
// the paper improves on (Section III): row i stores its n-i upper-triangle
// cells (i,i)..(i,n-1) consecutively, and the rows are concatenated.
//
// Its two problems, which the paper's Section III identifies, fall out of
// the index math below: a column walk d[k][j] (the innermost-loop stream)
// touches addresses with non-uniform strides because row lengths differ,
// and a block of the triangle is scattered over as many address ranges as
// it has rows.
type RowMajor[E semiring.Elem] struct {
	n      int
	cells  []E
	rowOff []int // rowOff[i] is the flat index of cell (i, i)
}

// NewRowMajor allocates an n-point row-major triangular table with all
// cells set to the min-plus identity (infinity).
func NewRowMajor[E semiring.Elem](n int) *RowMajor[E] {
	if err := CheckSize(n); err != nil {
		panic(err)
	}
	m := &RowMajor[E]{
		n:      n,
		cells:  make([]E, CellCount(n)),
		rowOff: make([]int, n),
	}
	off := 0
	for i := 0; i < n; i++ {
		m.rowOff[i] = off
		off += n - i
	}
	inf := semiring.Inf[E]()
	for k := range m.cells {
		m.cells[k] = inf
	}
	return m
}

// Len returns the problem size n.
func (m *RowMajor[E]) Len() int { return m.n }

// Index returns the flat index of cell (i, j) in the backing slice.
func (m *RowMajor[E]) Index(i, j int) int { return m.rowOff[i] + (j - i) }

// At returns the value of cell (i, j).
func (m *RowMajor[E]) At(i, j int) E { return m.cells[m.rowOff[i]+(j-i)] }

// Set stores v into cell (i, j).
func (m *RowMajor[E]) Set(i, j int, v E) { m.cells[m.rowOff[i]+(j-i)] = v }

// Row returns the slice backing cells (i, lo)..(i, hi) inclusive; the
// caller may read and write through it. lo ≥ i required.
func (m *RowMajor[E]) Row(i, lo, hi int) []E {
	return m.cells[m.rowOff[i]+(lo-i) : m.rowOff[i]+(hi-i)+1]
}

// Cells exposes the whole backing store (for trace generation and I/O).
func (m *RowMajor[E]) Cells() []E { return m.cells }

// Clone returns a deep copy.
func (m *RowMajor[E]) Clone() *RowMajor[E] {
	c := &RowMajor[E]{n: m.n, cells: make([]E, len(m.cells)), rowOff: m.rowOff}
	copy(c.cells, m.cells)
	return c
}
