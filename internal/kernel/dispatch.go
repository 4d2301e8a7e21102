package kernel

import (
	"errors"
	"runtime"

	"cellnpdp/internal/simd"
)

// Vector-kernel dispatch state. The hot-path kernels cannot call
// internal/simd's detection functions per invocation (the //npdp:hotpath
// closed call universe admits only annotated functions and assembly
// stubs), so the result of detection is cached here once, at package
// init, as the level the dispatchers read. simd's init runs first
// (kernel imports simd), so the CELLNPDP_FORCE_SCALAR environment
// variable is already folded in.

// isa is a dispatch level: the instruction set bandF32 and bandF64 send
// guarded bands to.
type isa uint8

const (
	isaGo isa = iota // the Go strips and panel
	isaNEON
	isaAVX2
	isaAVX512
)

// isaNames names each level as VectorISA reports it.
var isaNames = [...]string{isaGo: "none", isaNEON: "neon", isaAVX2: "avx2", isaAVX512: "avx512"}

// detected is the widest level this process can run: the GOARCH has its
// kernels and the hardware and environment allow them. Immutable after
// init.
var detected = func() isa {
	for l, name := range isaNames {
		if name == simd.VectorISA() {
			return isa(l)
		}
	}
	return isaGo
}()

// live is the level the dispatchers run. It starts at detected and is
// changed only by SetVectorEnabled and by the package's tests, which set
// every level the host has (AVX2 on an AVX-512 host included); no option
// or environment variable reaches a level between detected and Go. It
// must not change while solves are running.
var live = detected

// errNoVecASM is the panic value of the GOARCH stubs that stand in for
// another GOARCH's kernels. A package-level error keeps the panic's
// argument from escaping, so the stubs add nothing to the codegen gate's
// baseline.
var errNoVecASM = errors.New("kernel: vector kernel called on a GOARCH without it")

// VectorEnabled reports whether the panel and stage-2 dispatchers
// currently send conforming blocks to the GOARCH vector assembly: both
// widths on AVX-512 and AVX2, float32 on NEON (NEON float64 keeps the Go
// kernels).
func VectorEnabled() bool { return live != isaGo }

// VectorISA names the instruction set the vector kernels use when
// enabled: "avx512" or "avx2" (float32 and float64), "neon" (float32
// only), or "none".
func VectorISA() string { return isaNames[live] }

// SetVectorEnabled forces the dispatchers onto the pure-Go fallback
// (false) or restores vector dispatch (true, a no-op on hardware without
// the ISA or in CELLNPDP_FORCE_SCALAR processes). It returns a restore
// function and must not race with running solves:
//
//	defer kernel.SetVectorEnabled(false)()
func SetVectorEnabled(on bool) (restore func()) {
	prev := live
	live = isaGo
	if on {
		live = detected
	}
	return func() { live = prev }
}

// bandF32 is the float32 band dispatch, the one entry point of the
// band kernels: C = min(C, A ⊗ B) for C's four rows over cols columns,
// a 4×k A band and a k×cols B band at row stride `stride`, cols a
// positive multiple of CB. When the live level is a vector level and
// the slices hold every element the band touches, it runs that level's
// kernel: the AVX-512 band for cols > CB and the AVX2 band otherwise on
// AVX-512 (a 4-column band runs faster on the AVX2 band's 4-wide tail
// than in one masked ZMM pass), the AVX2 band on AVX2, the NEON strip
// per 4-column group on NEON. Elsewhere it runs the Go strip per
// 4-column group, in column order: every cell sees the same terms in the
// same ascending k either way. The guard is the assembly's whole
// memory-safety contract — the AVX2 tail has no mask and the AVX-512
// masks suppress faults — so an out-of-range band reaches the Go body
// and panics like any Go access.
//
//npdp:hotpath
func bandF32(c, a, b []float32, stride, cols, k int) {
	if live != isaGo && k > 0 && cols > 0 && cols%CB == 0 && stride >= cols &&
		len(c) >= 3*stride+cols && len(a) >= 3*stride+k && len(b) >= (k-1)*stride+cols {
		if runtime.GOARCH == "arm64" {
			for j := 0; j < cols; j += CB {
				stripNEONF32(&c[j], &a[0], &b[j], stride, k)
			}
			return
		}
		pc, pa, pb := &c[0], &a[0], &b[0]
		if live == isaAVX512 && cols > CB {
			bandAVX512F32(pc, pa, pb, stride, cols, k)
		} else {
			bandAVX2F32(pc, pa, pb, stride, cols, k)
		}
		return
	}
	for j := 0; j < cols; j += CB {
		strip(c[j:], a, b[j:], stride, k)
	}
}

// bandF64 is bandF32 at double width, on the AVX-512 and AVX2 float64
// bands. NEON has no float64 kernel, so arm64 runs the Go strips.
//
//npdp:hotpath
func bandF64(c, a, b []float64, stride, cols, k int) {
	if runtime.GOARCH == "amd64" && live != isaGo && k > 0 && cols > 0 && cols%CB == 0 && stride >= cols &&
		len(c) >= 3*stride+cols && len(a) >= 3*stride+k && len(b) >= (k-1)*stride+cols {
		pc, pa, pb := &c[0], &a[0], &b[0]
		if live == isaAVX512 && cols > CB {
			bandAVX512F64(pc, pa, pb, stride, cols, k)
		} else {
			bandAVX2F64(pc, pa, pb, stride, cols, k)
		}
		return
	}
	for j := 0; j < cols; j += CB {
		strip(c[j:], a, b[j:], stride, k)
	}
}

// closeF32 is the float32 closure dispatch: it runs the in-CB terms of
// CB (p,q) of a t×t block D, whose L terms read L's diagonal CB (p,p)
// and whose R terms read rows 0..2 of R's diagonal CB (q,q). On amd64 at
// a vector level (AVX2 or AVX-512), when d and l hold their whole CB and
// r those three rows, it runs the closure kernel; elsewhere closeCB. The
// guard is the kernel's whole memory-safety contract, as bandF32's is
// for the bands: the kernel has no bounds checks, so a block that does
// not fit reaches closeCB and panics like any Go access.
//
//npdp:hotpath
func closeF32(d, l, r []float32, t, p, q int) {
	dc, lc, rc := p*CB*t+q*CB, p*CB*t+p*CB, q*CB*t+q*CB
	if runtime.GOARCH == "amd64" && live != isaGo && t >= CB &&
		len(d) >= dc+3*t+CB && len(l) >= lc+3*t+CB && len(r) >= rc+2*t+CB {
		closeAVX2F32(&d[dc], &l[lc], &r[rc], t)
		return
	}
	closeCB(d, l, r, t, p, q)
}

// closeF64 is closeF32 at double width, on closeAVX2F64.
//
//npdp:hotpath
func closeF64(d, l, r []float64, t, p, q int) {
	dc, lc, rc := p*CB*t+q*CB, p*CB*t+p*CB, q*CB*t+q*CB
	if runtime.GOARCH == "amd64" && live != isaGo && t >= CB &&
		len(d) >= dc+3*t+CB && len(l) >= lc+3*t+CB && len(r) >= rc+2*t+CB {
		closeAVX2F64(&d[dc], &l[lc], &r[rc], t)
		return
	}
	closeCB(d, l, r, t, p, q)
}
