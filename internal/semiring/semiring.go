// Package semiring defines the algebraic structures NPDP recurrences run
// over. The Zuker-style recurrence of the paper is the tropical (min-plus)
// semiring: ⊕ = min, ⊗ = +. Keeping the algebra explicit lets the same
// blocking machinery serve the matrix-parenthesization and optimal-BST
// applications, which use weighted variants of the same recurrence.
package semiring

import "unsafe"

// Elem constrains the element types supported by the optimized engines.
// The paper evaluates single precision (4 lanes per 128-bit register) and
// double precision (2 lanes).
type Elem interface {
	~float32 | ~float64
}

// Width returns E's size in bytes: 4 for ~float32, 8 for ~float64. It is
// the one test of an element's precision: a named element type
// (type Cost float64) has its underlying type's width, so it shares that
// type's encoding, tile sizing and kernels. Testing the exact type
// (any(e).(float64)) would miss it.
func Width[E Elem]() int {
	var e E
	return int(unsafe.Sizeof(e))
}

// AsWidth views cells as F, the float type of E's width, without
// copying: E is ~float32 or ~float64, so it has F's memory layout, and
// a named element type runs its width's code like the float type
// itself. The caller picks F by Width; a mismatched F panics.
func AsWidth[F float32 | float64, E Elem](cells []E) []F {
	var f F
	if unsafe.Sizeof(f) != uintptr(Width[E]()) {
		panic("semiring: AsWidth across element widths")
	}
	return unsafe.Slice((*F)(unsafe.Pointer(unsafe.SliceData(cells))), len(cells))
}

// Inf returns the additive identity of the min-plus semiring (the "no
// solution yet" value) for element type E. It is a large finite value
// rather than +Inf so that modeled arithmetic (x+Inf) cannot generate NaN
// through Inf-Inf in user-supplied weight hooks; it behaves as infinity
// for every problem size the engines accept.
func Inf[E Elem]() E {
	return E(1e30)
}

// MinPlus is the tropical semiring used by the paper's kernel:
// Combine(a,b) ⊕-accumulates a ⊗ b = a + b under min.
type MinPlus[E Elem] struct{}

// Zero returns the ⊕ identity (infinity).
func (MinPlus[E]) Zero() E { return Inf[E]() }

// One returns the ⊗ identity (0).
func (MinPlus[E]) One() E { return 0 }

// Add is ⊕ (min).
func (MinPlus[E]) Add(a, b E) E {
	if b < a {
		return b
	}
	return a
}

// Mul is ⊗ (+).
func (MinPlus[E]) Mul(a, b E) E { return a + b }

// Min returns the smaller of a and b. It is the scalar form of the
// compare+select instruction pair of the SPE kernel.
func Min[E Elem](a, b E) E {
	if b < a {
		return b
	}
	return a
}

// MinIdx returns the smaller of a and b along with which argument won
// (0 for a, 1 for b); a tie keeps a.
func MinIdx[E Elem](a, b E) (E, int) {
	if b < a {
		return b, 1
	}
	return a, 0
}
