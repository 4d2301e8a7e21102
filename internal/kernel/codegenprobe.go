package kernel

// Codegen-gate probes. The hot-path kernels are generic and this package
// never instantiates them itself — the engines do — so compiling the
// package alone with -gcflags='-m -d=ssa/check_bce/debug=1' would emit no
// escape-analysis or bounds-check diagnostics for their bodies, and the
// gate (scripts/codegen_gate.sh) would vacuously pass. These probes pin
// the two element widths the engines actually run (the paper's single-
// and double-precision split), forcing the compiler to materialize both
// instantiations in-package; their diagnostics are then attributed to
// kernel.go/panel.go lines and land inside the annotated ranges the gate
// diffs. The probes are never called at run time.

func codegenProbeF32(c, a, b []float32, t int) Stats {
	Step4x4(c, a, b, t)
	// The vector-dispatch layer: the panel dispatcher and its generic
	// Go fallback (PanelMinPlus), called directly — on GOARCHes with
	// assembly bands the dispatcher sends conforming tiles to the band
	// dispatch, and without this call the fallback's diagnostics could
	// vanish from the gate while it still guards every ragged tile (the
	// non-vacuous check in the gate backs this up).
	st := MulMinPlus(c, a, b, t)
	st.Add(PanelMinPlus(c, a, b, t))
	st.Add(PanelMinPlusF32(c, a, b, t))
	// Stage 2: the float32 bodies on the float32 band dispatch, and the
	// band dispatch on its own.
	stage2OffDiagF32(c, a, b, t)
	stage2DiagF32(c, t)
	bandF32(c, a, b, t, t, t)
	return st
}

func codegenProbeF64(c, a, b []float64, t int) Stats {
	Step4x4(c, a, b, t)
	st := MulMinPlus(c, a, b, t)
	// The float64 dispatch: the panel dispatcher, its generic Go
	// fallback (PanelMinPlus), the stage-2 bodies on bandF64, and the
	// band dispatch on its own.
	st.Add(PanelMinPlus(c, a, b, t))
	st.Add(PanelMinPlusF64(c, a, b, t))
	stage2OffDiagF64(c, a, b, t)
	stage2DiagF64(c, t)
	bandF64(c, a, b, t, t, t)
	return st
}

// Referencing the probes keeps unused-function linters quiet without
// giving them a runtime caller.
var (
	_ = codegenProbeF32
	_ = codegenProbeF64
)
