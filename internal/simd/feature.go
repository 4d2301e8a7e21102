package simd

import "os"

// Runtime CPU-feature detection for the real vector kernels
// (internal/kernel's GOARCH-specific assembly). The emulated Table I
// instruction stream elsewhere in this package models the paper's SPU;
// this file answers the narrower question the dispatchers need at run
// time: does the host actually have the 16-lane (AVX-512), 8-lane (AVX2)
// or 4-lane (NEON) min-plus datapath the assembly targets?
//
// Detection runs once at package init, and so does the one way to force
// the pure-Go fallback process-wide: the CELLNPDP_FORCE_SCALAR
// environment variable (CI's forced-scalar race pass sets it). The
// answers never change after init; internal/kernel caches them then.
// Tests that run both paths in one process switch internal/kernel's
// dispatch instead (kernel.SetVectorEnabled).

// ForceScalarEnv is the environment variable that, when set to a
// non-empty value other than "0", disables the vector kernels for the
// whole process.
const ForceScalarEnv = "CELLNPDP_FORCE_SCALAR"

// hasVector reports the raw detection result for this GOARCH and
// vectorISAName names the detected instruction set (both set by the
// per-arch init in feature_amd64.go and feature_arm64.go; other GOARCHes
// have no vector kernels and keep the zero values). Neither changes
// after init.
var (
	hasVector     bool
	vectorISAName = "none"
)

// forced reports whether ForceScalarEnv forces the fallback. Set once,
// at init.
var forced = os.Getenv(ForceScalarEnv) != "" && os.Getenv(ForceScalarEnv) != "0"

// VectorISA names the widest vector instruction set the kernels may
// use: "avx512" (AVX512F with the OS saving ZMM and opmask state),
// "avx2", "neon", or "none" (unsupported hardware or forced fallback).
func VectorISA() string {
	if !hasVector || forced {
		return "none"
	}
	return vectorISAName
}
