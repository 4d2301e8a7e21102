package simd

import (
	"os"
	"strings"
	"testing"
)

// The kernel's own view of the CPU (/proc/cpuinfo lists a flag only when
// the CPU has it and the kernel enabled its register state) must agree
// with detection. Without this check a detection regression would
// silently fall back to a narrower ISA while every bit-identity test
// still passed.
func TestDetectionMatchesCPUInfo(t *testing.T) {
	if forced {
		t.Skip("vector fallback forced")
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = make(map[string]bool)
			for _, f := range strings.Fields(val) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	want := "none"
	switch {
	case flags["avx512f"] && flags["avx2"]:
		want = "avx512"
	case flags["avx2"]:
		want = "avx2"
	}
	if got := VectorISA(); got != want {
		t.Fatalf("VectorISA() = %q, but /proc/cpuinfo flags imply %q", got, want)
	}
}
