//go:build !amd64

package kernel

import "errors"

// Only amd64 has float64 and band kernels: on this GOARCH their
// dispatch is compiled out (haveVecF64ASM and haveBandASM are false), so
// the stubs below are unreachable. They keep the dispatchers compiling
// and panic loudly if a future edit ever breaks the gating.

// haveVecF64ASM gates float64 dispatch: no float64 assembly here.
const haveVecF64ASM = false

// haveBandASM gates the AVX-512 band dispatch: no band assembly here.
const haveBandASM = false

// errNoVecASM is the stubs' panic value. A package-level error keeps
// the panic's argument from escaping, so the stubs add nothing to the
// codegen gate's baseline.
var errNoVecASM = errors.New("kernel: amd64-only vector kernel called on another GOARCH")

//npdp:hotpath
func panelVecF64(c, a, b *float64, t int) { panic(errNoVecASM) }

//npdp:hotpath
func stripVecF64(c, a, b *float64, stride, k int) { panic(errNoVecASM) }

//npdp:hotpath
func bandVecF32(c, a, b *float32, stride, cols, k int) { panic(errNoVecASM) }

//npdp:hotpath
func bandVecF64(c, a, b *float64, stride, cols, k int) { panic(errNoVecASM) }
