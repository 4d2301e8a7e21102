//go:build amd64

package kernel

// AVX2 and AVX-512 band kernels (band_amd64.s): C = min(C, A ⊗ B) for a
// 4×cols C, a 4×k A band and a k×cols B band at row stride `stride`,
// with k ≥ 1 and cols a positive multiple of CB no wider than the
// stride. bandF32 and bandF64 are their only callers, and their guard is
// the kernels' whole memory-safety contract. Stubs are //go:noescape:
// they only read and write through the passed pointers for the guarded
// extent and never retain them, so the blocks stay stack/arena-
// allocatable. The npdplint hotpath analyzer accepts body-less
// //go:noescape stubs as leaves of the closed call universe.

// bandAVX2F32 is the AVX2 float32 band: per 8-column pass, four YMM
// registers hold a 4×8 block of C across the whole k sweep; a 4-wide XMM
// tail covers cols ≡ 4 (mod 8). At cols = 4 only the tail runs: Table
// I's program with the k loop count taken from an argument.
//
//go:noescape
func bandAVX2F32(c, a, b *float32, stride, cols, k int)

// bandAVX2F64 is the AVX2 float64 band: per 8-column pass, eight YMM
// registers (four doubles each) hold a 4×8 block of C across the whole k
// sweep; a 4-wide YMM tail covers cols ≡ 4 (mod 8).
//
//go:noescape
func bandAVX2F64(c, a, b *float64, stride, cols, k int)

// bandAVX512F32 is the AVX-512 float32 band: each pass keeps a 4×32
// block of C in eight ZMM accumulators (two per row) for the whole k
// sweep; opmasks cover the columns of the last pass, so nothing past a
// row's cols-th element is read or written.
//
//go:noescape
func bandAVX512F32(c, a, b *float32, stride, cols, k int)

// bandAVX512F64 is bandAVX512F32 at double width: a pass covers 4×16
// doubles, eight lanes per ZMM register.
//
//go:noescape
func bandAVX512F64(c, a, b *float64, stride, cols, k int)

// closeAVX2F32 is the float32 closure kernel: the in-CB terms of a 4×4
// computing block of D, closeCB's work, with one CB row per XMM
// register. d, l and r point at the CB of D, L's diagonal CB and R's
// diagonal CB, each 4×4 at row stride `stride`. closeF32 is its only
// caller; it runs at the AVX2 and AVX-512 levels.
//
//go:noescape
func closeAVX2F32(d, l, r *float32, stride int)

// closeAVX2F64 is closeAVX2F32 at double width, one CB row per YMM
// register.
//
//go:noescape
func closeAVX2F64(d, l, r *float64, stride int)
