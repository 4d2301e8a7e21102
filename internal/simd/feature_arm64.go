//go:build arm64

package simd

// Advanced SIMD (NEON) is a mandatory part of the AArch64 base profile
// Go targets, so there is nothing to probe: every arm64 host the binary
// can run on has the 4-lane single-precision datapath the NEON kernels
// use. The forced-fallback switch in feature.go still applies.

func init() {
	vectorISAName = "neon"
	hasVector = true
}
