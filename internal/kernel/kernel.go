// Package kernel implements the computing-block kernels and the two-stage
// memory-block procedure of Section IV-A.
//
// A memory block is a tile×tile square stored row-major (internal/tri's
// NDL). It is processed as a grid of 4×4 computing blocks (CBs). One "CB
// step" applies C = min(C, splat(A[r][k]) + B[k]) over the 16 (row, k)
// pairs — the 80-SIMD-instruction program of Table I. Stage 1 of the
// memory-block procedure accumulates all off-diagonal contributions
// (a min-plus matrix product, no inner dependences); stage 2 resolves the
// inner dependences computing-block by computing-block, left-to-right and
// bottom-up, falling back to the original Figure 1 scalar code inside
// each CB.
package kernel

import (
	"fmt"

	"cellnpdp/internal/semiring"
)

// CB is the computing-block side length: four rows of one 128-bit
// register each for single precision (Section IV-A).
const CB = 4

// Stats counts the work a kernel invocation performed. The Cell timing
// model converts CBSteps into cycles via the pipeline model and
// ScalarRelax into cycles via the scalar-loop cost.
type Stats struct {
	CBSteps     int64 // 4×4 computing-block steps executed (80 SIMD instrs each, SP)
	ScalarRelax int64 // scalar d[i][j] = min(d[i][j], d[i][k]+d[k][j]) relaxations
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.CBSteps += other.CBSteps
	s.ScalarRelax += other.ScalarRelax
}

// CheckTile validates a tile side for the CB kernels.
func CheckTile(t int) error {
	if t <= 0 || t%CB != 0 {
		return fmt.Errorf("kernel: tile side must be a positive multiple of %d, got %d", CB, t)
	}
	return nil
}

// Step4x4 performs one computing-block step on tile-local row-major
// slices: c, a, b address the top-left cell of their 4×4 blocks inside a
// tile of row stride `stride`. Semantics are exactly the SIMD program of
// Section IV-A; this generic form runs as scalar Go (the counted
// single-precision variant in counted.go executes the emulated SIMD ops
// one by one). It is the k = 4 case of strip.
//
//npdp:hotpath
func Step4x4[E semiring.Elem](c, a, b []E, stride int) {
	strip(c, a, b, stride, CB)
}

// strip is one computing-block strip: C = min(C, A ⊗ B) for a 4×4 C, a
// 4×k A band and a k×4 B band, all at row stride `stride`. It is the
// Table I program with the k loop count taken from an argument: each C
// row stays in locals across the whole k range, with terms applied in
// ascending k. It is the Go body of the band dispatch, one call per
// 4-column group, and the oracle the assembly bands are tested against.
//
//npdp:hotpath
func strip[E semiring.Elem](c, a, b []E, stride, k int) {
	for r := 0; r < CB; r++ {
		cr := c[r*stride : r*stride+CB]
		c0, c1, c2, c3 := cr[0], cr[1], cr[2], cr[3]
		for i, s := range a[r*stride : r*stride+k] {
			bk := b[i*stride : i*stride+CB]
			if v := s + bk[0]; v < c0 {
				c0 = v
			}
			if v := s + bk[1]; v < c1 {
				c1 = v
			}
			if v := s + bk[2]; v < c2 {
				c2 = v
			}
			if v := s + bk[3]; v < c3 {
				c3 = v
			}
		}
		cr[0], cr[1], cr[2], cr[3] = c0, c1, c2, c3
	}
}

// MulMinPlus is stage 1's unit of work: C = min(C, A ⊗ B) where A, B and
// C are whole tile×tile memory blocks (row-major, same tile side t) and ⊗
// is the min-plus matrix product. It visits every computing-block triple,
// so it performs (t/4)³ CB steps.
//
//npdp:hotpath
func MulMinPlus[E semiring.Elem](c, a, b []E, t int) Stats {
	cb := t / CB
	var st Stats
	for p := 0; p < cb; p++ {
		for kp := 0; kp < cb; kp++ {
			aOff := p*CB*t + kp*CB
			for q := 0; q < cb; q++ {
				Step4x4(c[p*CB*t+q*CB:], a[aOff:], b[kp*CB*t+q*CB:], t)
			}
		}
	}
	st.CBSteps += int64(cb) * int64(cb) * int64(cb)
	return st
}
