//go:build arm64

package kernel

// NEON kernels (panel_arm64.s). Stubs are //go:noescape: they only read
// and write through the passed pointers for the caller-guarded extent
// and never retain them. The npdplint hotpath analyzer accepts body-less
// //go:noescape stubs as leaves of the closed call universe.

// haveVecASM gates dispatch: this GOARCH ships the assembly kernels.
const haveVecASM = true

// panelVecF32 is the NEON 4×t panel product: C = min(C, A ⊗ B) over t×t
// row-major float32 blocks, t a positive multiple of CB. Four rows × 4
// columns of C accumulate in four 4S registers across the full k sweep.
// The min is FCMGT+BIT (compare, insert-if-true), not FMIN, so ties and
// NaNs keep the old C value exactly like the scalar `if w < c` — FMIN
// would return -0 over +0 and propagate NaN, diverging bitwise.
//
//go:noescape
func panelVecF32(c, a, b *float32, t int)

// stripVecF32 is the NEON computing-block strip: C = min(C, A ⊗ B) for
// a 4×4 C, a 4×k A band and a k×4 B band at row stride `stride` (k ≥ 1)
// — the Table I program with the k loop count taken from an argument.
//
//go:noescape
func stripVecF32(c, a, b *float32, stride, k int)
