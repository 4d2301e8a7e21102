package kernel

import "cellnpdp/internal/simd"

// Vector-kernel dispatch state. The hot-path kernels cannot call
// internal/simd's detection functions per invocation (the //npdp:hotpath
// closed call universe admits only annotated functions and assembly
// stubs), so the result of detection is cached here once, at package
// init, as a plain bool the dispatchers read. simd's init runs first
// (kernel imports simd), so the CELLNPDP_FORCE_SCALAR environment
// variable is already folded in.

// vecCapable records whether this process could ever run the assembly
// kernels: the GOARCH has them and the hardware + environment allow it.
// Immutable after init.
var vecCapable = haveVecASM && simd.VectorAvailable()

// vecEnabled is the live dispatch switch. It starts at vecCapable and is
// only changed by SetVectorEnabled, which tests use to force the pure-Go
// path; it must not be flipped while solves are running.
var vecEnabled = vecCapable

// bandCapable records whether the host runs the AVX-512 band kernels
// (bandVecF32, bandVecF64). Immutable after init.
var bandCapable = haveBandASM && vecCapable && simd.VectorISA() == "avx512"

// bandEnabled is the AVX-512 half of the dispatch switch: band dispatch
// needs it and vecEnabled. It starts at bandCapable and changes only
// through the package's tests, which clear it to run the AVX2 bodies on
// an AVX-512 host; no option or environment variable reaches it.
var bandEnabled = bandCapable

// VectorEnabled reports whether the panel and stage-2 dispatchers
// currently send conforming blocks to the GOARCH vector assembly: both
// widths on AVX-512 (the band kernels) and AVX2, float32 on NEON (NEON
// float64 keeps the Go kernels).
func VectorEnabled() bool { return vecEnabled }

// VectorISA names the instruction set the vector kernels use when
// enabled: "avx512" or "avx2" (float32 and float64), "neon" (float32
// only), or "none".
func VectorISA() string {
	switch {
	case !vecEnabled:
		return "none"
	case bandCapable && !bandEnabled:
		return "avx2"
	}
	return simd.VectorISA()
}

// SetVectorEnabled forces the dispatchers onto the pure-Go fallback
// (false) or restores vector dispatch (true, a no-op on hardware without
// the ISA or in CELLNPDP_FORCE_SCALAR processes). It returns a restore
// function and must not race with running solves:
//
//	defer kernel.SetVectorEnabled(false)()
func SetVectorEnabled(on bool) (restore func()) {
	prev := vecEnabled
	vecEnabled = on && vecCapable
	return func() { vecEnabled = prev }
}

// stripF32 is the float32 strip dispatch: the GOARCH assembly strip
// when vector dispatch is on and the slices hold every element it
// touches (C's four rows, A's four k-wide rows, B's k rows, all 4 wide
// at row stride `stride`), the Go strip otherwise. The guard is the
// assembly's whole memory-safety contract, so an out-of-range strip
// reaches the Go body and panics like any Go access.
//
//npdp:hotpath
func stripF32(c, a, b []float32, stride, k int) {
	if vecEnabled && k > 0 && stride >= CB &&
		len(c) >= 3*stride+CB && len(a) >= 3*stride+k && len(b) >= (k-1)*stride+CB {
		stripVecF32(&c[0], &a[0], &b[0], stride, k)
		return
	}
	strip(c, a, b, stride, k)
}

// stripF64 is stripF32 at double width: the AVX2 strip where the GOARCH
// has one (haveVecF64ASM) and vector dispatch is on, the Go strip
// otherwise. The guard is the same memory-safety contract.
//
//npdp:hotpath
func stripF64(c, a, b []float64, stride, k int) {
	if haveVecF64ASM && vecEnabled && k > 0 && stride >= CB &&
		len(c) >= 3*stride+CB && len(a) >= 3*stride+k && len(b) >= (k-1)*stride+CB {
		stripVecF64(&c[0], &a[0], &b[0], stride, k)
		return
	}
	strip(c, a, b, stride, k)
}

// bandF32 is the float32 band dispatch: C = min(C, A ⊗ B) for C's four
// rows over cols columns, a 4×k A band and a k×cols B band at row
// stride `stride`, cols a positive multiple of CB. On AVX-512 it is one
// bandVecF32 call when the slices hold every element the band touches;
// the guard is the assembly's whole memory-safety contract, because its
// masked loads and stores suppress faults, so an over-wide band would
// read and write past C's row instead of panicking. Elsewhere it runs
// stripF32 over each 4-column group, in column order: every cell sees
// the same terms in the same ascending k either way.
//
//npdp:hotpath
func bandF32(c, a, b []float32, stride, cols, k int) {
	if haveBandASM && vecEnabled && bandEnabled && k > 0 && cols > 0 && stride >= cols &&
		len(c) >= 3*stride+cols && len(a) >= 3*stride+k && len(b) >= (k-1)*stride+cols {
		bandVecF32(&c[0], &a[0], &b[0], stride, cols, k)
		return
	}
	for j := 0; j < cols; j += CB {
		stripF32(c[j:], a, b[j:], stride, k)
	}
}

// bandF64 is bandF32 at double width, on bandVecF64 and stripF64.
//
//npdp:hotpath
func bandF64(c, a, b []float64, stride, cols, k int) {
	if haveBandASM && vecEnabled && bandEnabled && k > 0 && cols > 0 && stride >= cols &&
		len(c) >= 3*stride+cols && len(a) >= 3*stride+k && len(b) >= (k-1)*stride+cols {
		bandVecF64(&c[0], &a[0], &b[0], stride, cols, k)
		return
	}
	for j := 0; j < cols; j += CB {
		stripF64(c[j:], a, b[j:], stride, k)
	}
}
