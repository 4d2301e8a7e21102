//go:build arm64

package kernel

// stripNEONF32 is the NEON computing-block strip (band_arm64.s):
// C = min(C, A ⊗ B) for a 4×4 C, a 4×k A band and a k×4 B band at row
// stride `stride` (k ≥ 1) — the Table I program with the k loop count
// taken from an argument. bandF32 runs it once per 4-column group of a
// guarded band. The min is FCMGT+BIT (compare, insert-if-true), not
// FMIN, so ties and NaNs keep the old C value exactly like the scalar
// `if w < c` — FMIN would return -0 over +0 and propagate NaN, diverging
// bitwise. The stub is //go:noescape: it only reads and writes through
// the passed pointers for the guarded extent and never retains them. The
// npdplint hotpath analyzer accepts body-less //go:noescape stubs as
// leaves of the closed call universe.
//
//go:noescape
func stripNEONF32(c, a, b *float32, stride, k int)
