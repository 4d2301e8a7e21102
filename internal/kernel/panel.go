package kernel

import (
	"runtime"

	"cellnpdp/internal/semiring"
)

// Panel kernels for stage 1: the same min-plus block product as
// MulMinPlus, restructured from 4×4 computing-block steps into 4×t
// *panels*. One panel pins four C rows and streams every k of the middle
// tile through them, so each A value is splatted once per t-column sweep
// (instead of once per 4-column CB step) and each B row is sliced once
// per k (instead of once per CB step that touches it). The row slices are
// hoisted and length-matched so the innermost loop compiles without
// bounds checks (verified with -gcflags=-d=ssa/check_bce).
//
// The panel kernels are bit-identical to MulMinPlus/Step4x4: min-plus
// accumulation computes the minimum over the same (i,k,j) term set, and
// min over floats is order-independent, so re-associating the sweep order
// cannot change a single bit (the Section 5 exact-equality invariant).

// PanelMinPlus is the generic register-blocked panel product:
// C = min(C, A ⊗ B) over tile×tile row-major blocks with side t.
// Unlike MulMinPlus it accepts any positive t: full 4-row panels cover
// rows in multiples of CB and a scalar tail handles the remainder.
//
// Stats accounting matches MulMinPlus exactly when t is a multiple of CB
// ((t/4)³ CB steps); ragged sides — only reachable through direct kernel
// use, the engines enforce CheckTile — report the t³ relaxations as
// ScalarRelax instead, since they do not decompose into whole CB steps.
//
//npdp:hotpath
func PanelMinPlus[E semiring.Elem](c, a, b []E, t int) Stats {
	r := 0
	for ; r+CB <= t; r += CB {
		c0 := c[(r+0)*t : (r+0)*t+t]
		c1 := c[(r+1)*t : (r+1)*t+t]
		c2 := c[(r+2)*t : (r+2)*t+t]
		c3 := c[(r+3)*t : (r+3)*t+t]
		a0 := a[(r+0)*t : (r+0)*t+t]
		a1 := a[(r+1)*t : (r+1)*t+t]
		a2 := a[(r+2)*t : (r+2)*t+t]
		a3 := a[(r+3)*t : (r+3)*t+t]
		for k := 0; k < t; k++ {
			s0, s1, s2, s3 := a0[k], a1[k], a2[k], a3[k]
			bk := b[k*t : k*t+t]
			bk = bk[:len(c0)]
			x1 := c1[:len(bk)]
			x2 := c2[:len(bk)]
			x3 := c3[:len(bk)]
			for j, v := range bk {
				if w := s0 + v; w < c0[j] {
					c0[j] = w
				}
				if w := s1 + v; w < x1[j] {
					x1[j] = w
				}
				if w := s2 + v; w < x2[j] {
					x2[j] = w
				}
				if w := s3 + v; w < x3[j] {
					x3[j] = w
				}
			}
		}
	}
	for ; r < t; r++ {
		cr := c[r*t : r*t+t]
		ar := a[r*t : r*t+t]
		for k := 0; k < t; k++ {
			s := ar[k]
			bk := b[k*t : k*t+t]
			bk = bk[:len(cr)]
			for j, v := range bk {
				if w := s + v; w < cr[j] {
					cr[j] = w
				}
			}
		}
	}
	return panelStats(t)
}

// PanelMinPlusF32 is the engines' float32 stage-1 kernel. At a vector
// dispatch level (AVX-512 or AVX2 on amd64, NEON on arm64 — see
// internal/simd's feature detection) a CB-aligned tile runs as t/4 band
// calls (bandF32), one per 4-row band of C with cols = k = t, which send
// it to that level's assembly. Otherwise — ragged tiles, other
// GOARCHes, a forced fallback (CELLNPDP_FORCE_SCALAR or
// SetVectorEnabled(false)) — it runs the generic Go panel,
// PanelMinPlus. Every path is bit-identical to MulMinPlus: each cell
// takes the same (s + v, strictly-less, keep-old-on-ties/NaN) update
// chain in the same k order, using compare semantics (VMINPS's
// src1<src2?src1:src2 on amd64, FCMGT+BIT on arm64) that match the
// scalar `if w < c` exactly, including ±0 and NaN operands. The band
// dispatch's guard is the assembly's memory-safety contract, so a short
// block reaches a Go body and panics.
//
//npdp:hotpath
func PanelMinPlusF32(c, a, b []float32, t int) Stats {
	if live == isaGo || t%CB != 0 {
		return PanelMinPlus(c, a, b, t)
	}
	for r := 0; r < t; r += CB {
		bandF32(c[r*t:], a[r*t:], b, t, t, t)
	}
	return StatsMulMinPlus(t)
}

// PanelMinPlusF64 is PanelMinPlusF32 for double precision, the engines'
// float64 stage-1 kernel: t/4 bandF64 calls at the amd64 vector levels
// (VMINPD has VMINPS's keep-old-on-ties/NaN semantics), the generic Go
// panel elsewhere — NEON, which has no float64 kernel, other GOARCHes,
// ragged tiles and a forced fallback.
//
//npdp:hotpath
func PanelMinPlusF64(c, a, b []float64, t int) Stats {
	if runtime.GOARCH != "amd64" || live == isaGo || t%CB != 0 {
		return PanelMinPlus(c, a, b, t)
	}
	for r := 0; r < t; r += CB {
		bandF64(c[r*t:], a[r*t:], b, t, t, t)
	}
	return StatsMulMinPlus(t)
}

// panelStats returns the work record of one panel product on tile side t,
// consistent with StatsMulMinPlus for CB-aligned sides.
//
//npdp:hotpath
func panelStats(t int) Stats {
	if t%CB == 0 {
		return StatsMulMinPlus(t)
	}
	return Stats{ScalarRelax: int64(t) * int64(t) * int64(t)}
}
