//go:build !amd64 && !arm64

package kernel

// This GOARCH has no hand-written vector kernels: dispatch is disabled
// at init (vecCapable is false), so the stubs below are unreachable.
// They exist to keep the dispatchers compiling on every platform and
// panic loudly if a future edit ever breaks the gating.

// haveVecASM gates dispatch: no assembly kernels on this GOARCH.
const haveVecASM = false

//npdp:hotpath
func panelVecF32(c, a, b *float32, t int) {
	panic("kernel: panelVecF32 called on a GOARCH without vector kernels")
}

//npdp:hotpath
func stripVecF32(c, a, b *float32, stride, k int) {
	panic("kernel: stripVecF32 called on a GOARCH without vector kernels")
}
