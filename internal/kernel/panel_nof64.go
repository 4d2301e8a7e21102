//go:build !amd64

package kernel

import "errors"

// Only the AVX2 kernels have a float64 form: on this GOARCH float64
// dispatch is compiled out (haveVecF64ASM is false), so the stubs below
// are unreachable. They keep the dispatchers compiling and panic loudly
// if a future edit ever breaks the gating.

// haveVecF64ASM gates float64 dispatch: no float64 assembly here.
const haveVecF64ASM = false

// errNoVecF64 is the stubs' panic value. A package-level error keeps
// the panic's argument from escaping, so the stubs add nothing to the
// codegen gate's baseline.
var errNoVecF64 = errors.New("kernel: float64 vector kernel called on a GOARCH without one")

//npdp:hotpath
func panelVecF64(c, a, b *float64, t int) { panic(errNoVecF64) }

//npdp:hotpath
func stripVecF64(c, a, b *float64, stride, k int) { panic(errNoVecF64) }
