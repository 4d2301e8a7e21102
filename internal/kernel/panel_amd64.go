//go:build amd64

package kernel

// AVX2 and AVX-512 kernels (panel_amd64.s). Stubs are //go:noescape: they only read
// and write through the passed pointers for the caller-guarded t×t (or
// strip) extent and never retain them, so the blocks stay
// stack/arena-allocatable. The npdplint hotpath analyzer accepts
// body-less //go:noescape stubs as leaves of the closed call universe.

// haveVecASM gates dispatch: this GOARCH ships the assembly kernels.
const haveVecASM = true

// haveVecF64ASM gates float64 dispatch: AVX2 also carries the 4×f64
// panel and strip.
const haveVecF64ASM = true

// haveBandASM gates the band dispatch: the AVX-512 band kernels live
// here, and run where detection reports "avx512".
const haveBandASM = true

// panelVecF32 is the AVX2 4×t panel product: C = min(C, A ⊗ B) over
// t×t row-major float32 blocks, t a positive multiple of CB. Register
// layout: 4 rows × 8 columns of C accumulate in four YMM registers
// across the full k sweep (one load/store of C per 4×8 panel tile, t
// fused add+min updates per element in between); a 4-wide XMM tail
// covers t ≡ 4 (mod 8). Bit-identical to MulMinPlus (see
// PanelMinPlusF32's dispatch comment).
//
//go:noescape
func panelVecF32(c, a, b *float32, t int)

// stripVecF32 is the AVX2 computing-block strip on XMM registers:
// C = min(C, A ⊗ B) for a 4×4 C, a 4×k A band and a k×4 B band at row
// stride `stride` (k ≥ 1) — the Table I program with the k loop count
// taken from an argument. C's four rows load once, take k add+min
// updates each, and store once.
//
//go:noescape
func stripVecF32(c, a, b *float32, stride, k int)

// panelVecF64 is the AVX2 4×t panel product over t×t row-major float64
// blocks, t a positive multiple of CB. Four rows × 8 columns of C
// accumulate in eight YMM registers (four doubles each) across the full
// k sweep; a 4-wide tail covers t ≡ 4 (mod 8). Bit-identical to
// MulMinPlus (see PanelMinPlusF64's dispatch comment).
//
//go:noescape
func panelVecF64(c, a, b *float64, t int)

// stripVecF64 is stripVecF32 at double width: each of C's four rows is
// one YMM register across the k updates.
//
//go:noescape
func stripVecF64(c, a, b *float64, stride, k int)

// bandVecF32 is the AVX-512 band product: C = min(C, A ⊗ B) for a 4×cols
// C, a 4×k A band and a k×cols B band at row stride `stride` (k ≥ 1,
// cols ≥ 1). Each pass keeps a 4×32 block of C in eight ZMM
// accumulators (two per row) for the whole k sweep; opmasks cover the
// columns of the last pass, so nothing past a row's cols-th element is
// read or written. Bit-identical to the strip kernels over the same
// columns (see PanelMinPlusF32's dispatch comment).
//
//go:noescape
func bandVecF32(c, a, b *float32, stride, cols, k int)

// bandVecF64 is bandVecF32 at double width: a pass covers 4×16 doubles,
// eight lanes per ZMM register.
//
//go:noescape
func bandVecF64(c, a, b *float64, stride, cols, k int)
