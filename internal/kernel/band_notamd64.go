//go:build !amd64

package kernel

// Only amd64 has the band and closure kernels: on this GOARCH their
// dispatchers compile their calls out (runtime.GOARCH is a constant)
// or, on GOARCHes without any vector kernel, never reach them
// (detection leaves the live level at Go). The stubs below keep the
// dispatchers compiling and panic loudly if a future edit ever breaks
// the gating.

//npdp:hotpath
func bandAVX2F32(c, a, b *float32, stride, cols, k int) { panic(errNoVecASM) }

//npdp:hotpath
func bandAVX2F64(c, a, b *float64, stride, cols, k int) { panic(errNoVecASM) }

//npdp:hotpath
func bandAVX512F32(c, a, b *float32, stride, cols, k int) { panic(errNoVecASM) }

//npdp:hotpath
func bandAVX512F64(c, a, b *float64, stride, cols, k int) { panic(errNoVecASM) }

//npdp:hotpath
func closeAVX2F32(d, l, r *float32, stride int) { panic(errNoVecASM) }

//npdp:hotpath
func closeAVX2F64(d, l, r *float64, stride int) { panic(errNoVecASM) }
