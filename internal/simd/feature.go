package simd

import (
	"os"
	"sync/atomic"
)

// Runtime CPU-feature detection for the real vector kernels
// (internal/kernel's GOARCH-specific assembly). The emulated Table I
// instruction stream elsewhere in this package models the paper's SPU;
// this file answers the narrower question the dispatchers need at run
// time: does the host actually have the 16-lane (AVX-512), 8-lane (AVX2)
// or 4-lane (NEON) min-plus datapath the assembly targets?
//
// Detection runs once at package init. Tests and operators can force the
// pure-Go fallback two ways: the CELLNPDP_FORCE_SCALAR environment
// variable (read at init, so it covers whole-process runs like the CI
// race suite) and SetForceFallback (scoped, for tests that exercise both
// paths in one process).

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

// forced is 1 when the fallback is forced (env or SetForceFallback).
var forced atomic.Int32

func init() {
	if v := os.Getenv(ForceScalarEnv); v != "" && v != "0" {
		forced.Store(1)
	}
}

// VectorAvailable reports whether the GOARCH-specific vector kernels may
// be used: the hardware supports them and the fallback is not forced.
func VectorAvailable() bool {
	return hasVector && forced.Load() == 0
}

// VectorISA names the widest vector instruction set the kernels would
// use: "avx512" (AVX512F with the OS saving ZMM and opmask state),
// "avx2", "neon", or "none" (unsupported hardware or forced fallback).
func VectorISA() string {
	if !VectorAvailable() {
		return "none"
	}
	return vectorISAName
}

// SetForceFallback forces (or un-forces) the pure-Go fallback and
// returns a restore function. Tests use it to drive both paths:
//
//	defer simd.SetForceFallback(true)()
//
// It layers on top of the environment variable: restoring never
// un-forces an env-forced process.
func SetForceFallback(force bool) (restore func()) {
	prev := forced.Load()
	if force {
		forced.Store(1)
	} else if os.Getenv(ForceScalarEnv) == "" || os.Getenv(ForceScalarEnv) == "0" {
		forced.Store(0)
	}
	return func() { forced.Store(prev) }
}
