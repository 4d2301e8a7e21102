//go:build !arm64

package kernel

// Only arm64 has the NEON strip: on this GOARCH bandF32 compiles its
// call out (runtime.GOARCH is a constant), so the stub below is
// unreachable. It keeps the dispatcher compiling and panics loudly if a
// future edit ever breaks the gating.

//npdp:hotpath
func stripNEONF32(c, a, b *float32, stride, k int) { panic(errNoVecASM) }
