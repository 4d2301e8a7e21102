package npdp

import (
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// Semiring abstracts the algebra of the generic reference solver: the
// recurrence becomes d[i][j] = ⊕(d[i][j], ⊗(d[i][k], d[k][j])). The
// optimized engines specialize to min-plus; this generic form documents
// and tests the algebraic requirements (it works for any selection
// semiring, e.g. max-plus for critical paths or min-max for bottleneck
// costs).
type Semiring[E any] interface {
	// Add is ⊕, the selection operation (min, max, …).
	Add(a, b E) E
	// Mul is ⊗, the combination operation (+, max, …).
	Mul(a, b E) E
}

// SolveSerialSemiring runs Figure 1 over an arbitrary semiring on a
// generic table.
func SolveSerialSemiring[E semiring.Elem](t tri.Table[E], s Semiring[E]) {
	n := t.Len()
	for j := 0; j < n; j++ {
		for i := j - 1; i >= 0; i-- {
			v := t.At(i, j)
			for k := i; k < j; k++ {
				v = s.Add(v, s.Mul(t.At(i, k), t.At(k, j)))
			}
			t.Set(i, j, v)
		}
	}
}

// MaxPlus is the dual tropical semiring: longest / most-expensive
// derivations instead of cheapest.
type MaxPlus[E ~float32 | ~float64] struct{}

// Add is max.
func (MaxPlus[E]) Add(a, b E) E {
	if b > a {
		return b
	}
	return a
}

// Mul is +.
func (MaxPlus[E]) Mul(a, b E) E { return a + b }

// MinMax is the bottleneck semiring: the best derivation minimizes its
// worst component.
type MinMax[E ~float32 | ~float64] struct{}

// Add is min.
func (MinMax[E]) Add(a, b E) E {
	if b < a {
		return b
	}
	return a
}

// Mul is max.
func (MinMax[E]) Mul(a, b E) E {
	if b > a {
		return b
	}
	return a
}
