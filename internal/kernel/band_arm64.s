//go:build arm64

#include "textflag.h"

// NEON min-plus strip. Semantics contract (the bit-identity invariant):
// every C element must follow the exact scalar update chain
//
//	for k ascending: w = a[r][k] + b[k][j]; if w < c { c = w }
//
// NEON FMIN does NOT implement that chain: it returns -0 over +0 and
// propagates NaN, both of which diverge bitwise from the scalar strict
// `<`. Instead each update is FCMGT (old > w, false on NaN and ties)
// followed by BIT (insert w where the mask is set), which keeps the old
// C value on ties and NaNs exactly like `if w < c { c = w }`.
//
// The Go assembler has no mnemonics for vector FADD/FCMGT, so those two
// are WORD-encoded with fixed register assignments; each WORD carries
// the decoded instruction in its comment. VLD1/VST1/VDUP/VBIT assemble
// natively. Register roles:
//
//	R0 c base   R1 a base   R2 b base   R3 stride   R4 stride bytes
//	R8..R11  c row pointers                      R12 b[k] pointer
//	R13..R16 a row k-pointers                    R17 k countdown
//	V0..V3 4×4 C accumulators   V4 b[k][0..4)
//	V5 w = s + bv   V6 compare mask   V7 broadcast a[i][k]
//
// The caller (bandF32) runs the strip on each 4-column group of a
// guarded band: k >= 1 and every touched element is in bounds — there
// are no bounds checks here.

// func stripNEONF32(c, a, b *float32, stride, k int)
//
// One computing-block strip: the Table I program (loads, splats, adds,
// compare-selects, stores) as real SIMD, with the k loop count taken
// from an argument. C's four rows are loaded once, take k updates each,
// and are stored once.
TEXT ·stripNEONF32(SB), NOSPLIT, $0-40
	MOVD c+0(FP), R0
	MOVD a+8(FP), R1
	MOVD b+16(FP), R2
	MOVD stride+24(FP), R3
	MOVD k+32(FP), R17     // k countdown
	LSL  $2, R3, R4        // stride bytes

	MOVD R0, R8
	ADD  R4, R8, R9
	ADD  R4, R9, R10
	ADD  R4, R10, R11
	VLD1 (R8), [V0.S4]
	VLD1 (R9), [V1.S4]
	VLD1 (R10), [V2.S4]
	VLD1 (R11), [V3.S4]
	MOVD R2, R12
	MOVD R1, R13
	ADD  R4, R13, R14
	ADD  R4, R14, R15
	ADD  R4, R15, R16
strip_k:
	VLD1 (R12), [V4.S4]
	ADD  R4, R12

	FMOVS (R13), F7
	ADD  $4, R13
	VDUP V7.S[0], V7.S4
	WORD $0x4E24D4E5       // FADD  V5.4S, V7.4S, V4.4S
	WORD $0x6EA5E406       // FCMGT V6.4S, V0.4S, V5.4S
	VBIT V6.B16, V5.B16, V0.B16

	FMOVS (R14), F7
	ADD  $4, R14
	VDUP V7.S[0], V7.S4
	WORD $0x4E24D4E5       // FADD  V5.4S, V7.4S, V4.4S
	WORD $0x6EA5E426       // FCMGT V6.4S, V1.4S, V5.4S
	VBIT V6.B16, V5.B16, V1.B16

	FMOVS (R15), F7
	ADD  $4, R15
	VDUP V7.S[0], V7.S4
	WORD $0x4E24D4E5       // FADD  V5.4S, V7.4S, V4.4S
	WORD $0x6EA5E446       // FCMGT V6.4S, V2.4S, V5.4S
	VBIT V6.B16, V5.B16, V2.B16

	FMOVS (R16), F7
	ADD  $4, R16
	VDUP V7.S[0], V7.S4
	WORD $0x4E24D4E5       // FADD  V5.4S, V7.4S, V4.4S
	WORD $0x6EA5E466       // FCMGT V6.4S, V3.4S, V5.4S
	VBIT V6.B16, V5.B16, V3.B16

	SUB  $1, R17
	CBNZ R17, strip_k

	VST1 [V0.S4], (R8)
	VST1 [V1.S4], (R9)
	VST1 [V2.S4], (R10)
	VST1 [V3.S4], (R11)
	RET
