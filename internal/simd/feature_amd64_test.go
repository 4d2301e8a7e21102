//go:build amd64

package simd

import "testing"

// The x86 detection decision over (leaf-1 ECX, leaf-7 EBX, XCR0): every
// feature bit and every OS state bit the kernels depend on must be
// present, and a missing AVX-512 piece must fall back to AVX2, never
// past it.
func TestX86ISADecision(t *testing.T) {
	const (
		ecxOK   = cpuidOSXSAVE | cpuidAVX
		ebxAVX2 = cpuidAVX2
		ebx512  = cpuidAVX2 | cpuidAVX512F
	)
	for _, c := range []struct {
		name            string
		ecx1, ebx7, xcr uint32
		want            string
	}{
		{"avx512 full state", ecxOK, ebx512, 0xE7, "avx512"},
		{"avx512 exact state bits", ecxOK, ebx512, 0xE6, "avx512"},
		{"avx512f without opmask state", ecxOK, ebx512, 0xE6 &^ (1 << 5), "avx2"},
		{"avx512f without ZMM_Hi256 state", ecxOK, ebx512, 0xE6 &^ (1 << 6), "avx2"},
		{"avx512f without Hi16_ZMM state", ecxOK, ebx512, 0xE6 &^ (1 << 7), "avx2"},
		{"avx512f with AVX state only", ecxOK, ebx512, 0x07, "avx2"},
		{"avx2 only", ecxOK, ebxAVX2, 0x07, "avx2"},
		{"avx2 host with ZMM state enabled", ecxOK, ebxAVX2, 0xE7, "avx2"},
		{"avx512f without avx2", ecxOK, cpuidAVX512F, 0xE7, "none"},
		{"no OSXSAVE", cpuidAVX, ebx512, 0, "none"},
		{"no AVX bit", cpuidOSXSAVE, ebx512, 0xE7, "none"},
		{"YMM state not enabled", ecxOK, ebx512, 0x03, "none"},
		{"SSE state not enabled", ecxOK, ebx512, 0xE5, "none"},
		{"nothing", 0, 0, 0, "none"},
	} {
		if got := x86ISA(c.ecx1, c.ebx7, c.xcr); got != c.want {
			t.Errorf("%s: x86ISA(%#x, %#x, %#x) = %q, want %q", c.name, c.ecx1, c.ebx7, c.xcr, got, c.want)
		}
	}
}
