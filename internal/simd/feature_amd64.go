//go:build amd64

package simd

// x86 vector detection per the Intel SDM. The OS must have enabled the
// register state an instruction set uses (CPUID.1:ECX.OSXSAVE, then the
// XCR0 state bits read with XGETBV) before the CPUID feature bit means
// the instructions are safe to execute:
//
//   - AVX2: CPUID.1:ECX.AVX and CPUID.(7,0):EBX.AVX2, with XCR0 bits 1
//     and 2 (SSE and AVX state).
//   - AVX-512: additionally CPUID.(7,0):EBX.AVX512F, with XCR0 bits 5,
//     6 and 7 (opmask, ZMM_Hi256 and Hi16_ZMM state).
//
// The band kernels use AVX512F alone (masks are built with baseline
// shifts and KMOVW), so no other AVX-512 subset is probed. GOAMD64=v1
// binaries still run the detection: the kernels are hand assembly, not
// compiler-generated, so the microarchitecture level the Go compiler
// targets is irrelevant to them.

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX=0 (reads XCR0).
func xgetbv() (eax, edx uint32)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0 uint32
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv() // XGETBV faults unless the OS set CR4.OSXSAVE
	}
	_, ebx7, _, _ := cpuid(7, 0)
	vectorISAName = x86ISA(ecx1, ebx7, xcr0)
	hasVector = vectorISAName != "none"
}

// CPUID and XCR0 bits the detection reads.
const (
	cpuidOSXSAVE = 1 << 27 // CPUID.1:ECX
	cpuidAVX     = 1 << 28 // CPUID.1:ECX
	cpuidAVX2    = 1 << 5  // CPUID.(7,0):EBX
	cpuidAVX512F = 1 << 16 // CPUID.(7,0):EBX
	xcr0AVX      = 0x06    // SSE and AVX state
	xcr0AVX512   = 0xE6    // SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state
)

// x86ISA names the widest vector ISA the kernels may use given CPUID
// leaf 1's ECX, leaf (7,0)'s EBX and XCR0 (0 when OSXSAVE is clear, so
// XGETBV was never executed): "avx512", "avx2" or "none". It is a pure
// function of the three words so the decision table can be tested on
// any host.
func x86ISA(ecx1, ebx7, xcr0 uint32) string {
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 ||
		xcr0&xcr0AVX != xcr0AVX || ebx7&cpuidAVX2 == 0 {
		return "none"
	}
	if ebx7&cpuidAVX512F != 0 && xcr0&xcr0AVX512 == xcr0AVX512 {
		return "avx512"
	}
	return "avx2"
}
