//go:build amd64

#include "textflag.h"

// Band kernels: C[4×cols] = min(C, A[4×k] ⊗ B[k×cols]) at a row stride,
// the one min-plus product primitive, on AVX2 and on AVX-512. Semantics contract
// (the bit-identity invariant): every C element must follow the exact
// scalar update chain
//
//	for k ascending: w = a[r][k] + b[k][j]; if w < c { c = w }
//
// VMINPS implements `src1 < src2 ? src1 : src2` (ties and NaN keep
// src2), so with src1 = w and src2 = c the keep-old-on-ties/NaN behavior
// matches the scalar strict `<` exactly, including ±0. Go assembly lists
// AVX operands reversed from Intel: `VMINPS Y0, Y5, Y0` is Intel
// `vminps ymm0, ymm5, ymm0`, i.e. Y0 = (Y5 < Y0) ? Y5 : Y0.
//
// The callers (bandF32, bandF64 in dispatch.go) guarantee: k >= 1, cols
// is a positive multiple of 4 no wider than the row stride, and C's four
// rows, A's four k-wide rows and B's k rows are in bounds — there are no
// bounds checks here.

// func bandAVX2F32(c, a, b *float32, stride, cols, k int)
//
// The AVX2 float32 band: 4×8 YMM passes while 8 columns remain, then a
// 4-wide XMM tail for cols ≡ 4 (mod 8) — at cols = 4 the tail alone,
// Table I's program with the k loop count taken from an argument.
//
// Register plan:
//	DI  c base (rows 0..3)             SI  a base
//	DX  b base                         CX  cols
//	R8  row stride in bytes            R9  k    R10 j    R11 k count
//	R14 c column base (rows 0,1)       R12 c column base (rows 2,3)
//	AX  a row 0 k-pointer              R13 a row 2 k-pointer
//	BX  b[k][j] pointer
//	Y0..Y3 4×8 C accumulators   Y4 b[k][j..j+8)   Y5..Y8 scratch
TEXT ·bandAVX2F32(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ stride+24(FP), R8
	MOVQ cols+32(FP), CX
	MOVQ k+40(FP), R9
	SHLQ $2, R8           // stride bytes
	XORQ R10, R10         // j = 0

colloop8:                     // 8-wide columns while j+8 <= cols
	LEAQ 8(R10), AX
	CMPQ AX, CX
	JG   coltail

	LEAQ (DI)(R10*4), R14 // &c[0][j]
	LEAQ (R14)(R8*2), R12 // &c[2][j]
	VMOVUPS (R14), Y0
	VMOVUPS (R14)(R8*1), Y1
	VMOVUPS (R12), Y2
	VMOVUPS (R12)(R8*1), Y3
	LEAQ (DX)(R10*4), BX  // &b[0][j]
	MOVQ SI, AX           // &a[0][0]
	LEAQ (SI)(R8*2), R13  // &a[2][0]
	XORQ R11, R11         // k = 0
kloop8:
	VMOVUPS (BX), Y4              // b[k][j..j+8)
	VBROADCASTSS (AX), Y5         // a[0][k]
	VADDPS Y4, Y5, Y5             // w0 = s0 + bv
	VMINPS Y0, Y5, Y0             // c0 = w0 < c0 ? w0 : c0
	VBROADCASTSS (AX)(R8*1), Y6   // a[1][k]
	VADDPS Y4, Y6, Y6
	VMINPS Y1, Y6, Y1
	VBROADCASTSS (R13), Y7        // a[2][k]
	VADDPS Y4, Y7, Y7
	VMINPS Y2, Y7, Y2
	VBROADCASTSS (R13)(R8*1), Y8  // a[3][k]
	VADDPS Y4, Y8, Y8
	VMINPS Y3, Y8, Y3
	ADDQ $4, AX
	ADDQ $4, R13
	ADDQ R8, BX                   // next b row
	INCQ R11
	CMPQ R11, R9
	JL   kloop8
	VMOVUPS Y0, (R14)
	VMOVUPS Y1, (R14)(R8*1)
	VMOVUPS Y2, (R12)
	VMOVUPS Y3, (R12)(R8*1)
	ADDQ $8, R10
	JMP  colloop8

coltail:                      // 4-wide tail: cols ≡ 4 (mod 8) leaves one
	CMPQ R10, CX
	JGE  done
	LEAQ (DI)(R10*4), R14
	LEAQ (R14)(R8*2), R12
	VMOVUPS (R14), X0
	VMOVUPS (R14)(R8*1), X1
	VMOVUPS (R12), X2
	VMOVUPS (R12)(R8*1), X3
	LEAQ (DX)(R10*4), BX
	MOVQ SI, AX
	LEAQ (SI)(R8*2), R13
	XORQ R11, R11
kloop4:
	VMOVUPS (BX), X4
	VBROADCASTSS (AX), X5
	VADDPS X4, X5, X5
	VMINPS X0, X5, X0
	VBROADCASTSS (AX)(R8*1), X6
	VADDPS X4, X6, X6
	VMINPS X1, X6, X1
	VBROADCASTSS (R13), X7
	VADDPS X4, X7, X7
	VMINPS X2, X7, X2
	VBROADCASTSS (R13)(R8*1), X8
	VADDPS X4, X8, X8
	VMINPS X3, X8, X3
	ADDQ $4, AX
	ADDQ $4, R13
	ADDQ R8, BX
	INCQ R11
	CMPQ R11, R9
	JL   kloop4
	VMOVUPS X0, (R14)
	VMOVUPS X1, (R14)(R8*1)
	VMOVUPS X2, (R12)
	VMOVUPS X3, (R12)(R8*1)
	ADDQ $4, R10
	JMP  coltail

done:
	VZEROUPPER
	RET

// Double-precision kernels: the same update chain at four float64 lanes
// per YMM register. VMINPD has VMINPS's src1<src2?src1:src2 semantics,
// so with src1 = w and src2 = c ties, ±0 and NaN keep the old C value
// exactly like the scalar `if w < c`. A computing-block row of four
// doubles is one YMM register, where the float32 kernels need half of
// one.

// func bandAVX2F64(c, a, b *float64, stride, cols, k int)
//
// The AVX2 float64 band: 4×8 passes in eight YMM registers while 8
// columns remain, then a 4-wide YMM tail for cols ≡ 4 (mod 8).
//
// Register plan:
//	DI  c base (rows 0..3)             SI  a base
//	DX  b base                         CX  cols
//	R8  row stride in bytes            R9  k    R10 j    R11 k count
//	R14 c column base (rows 0,1)       R12 c column base (rows 2,3)
//	AX  a row 0 k-pointer              R13 a row 2 k-pointer
//	BX  b[k][j] pointer
//	Y0..Y7 4×8 C accumulators: row i, columns j..j+3 in Y(2i) and
//	       j+4..j+7 in Y(2i+1)
//	Y8, Y9 b[k][j..j+8)   Y10..Y13 splats of a[0..3][k]   Y14, Y15 sums
TEXT ·bandAVX2F64(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ stride+24(FP), R8
	MOVQ cols+32(FP), CX
	MOVQ k+40(FP), R9
	SHLQ $3, R8           // stride bytes
	XORQ R10, R10         // j = 0

f64colloop8:                  // 8-wide columns while j+8 <= cols
	LEAQ 8(R10), AX
	CMPQ AX, CX
	JG   f64coltail

	LEAQ (DI)(R10*8), R14 // &c[0][j]
	LEAQ (R14)(R8*2), R12 // &c[2][j]
	VMOVUPD (R14), Y0
	VMOVUPD 32(R14), Y1
	VMOVUPD (R14)(R8*1), Y2
	VMOVUPD 32(R14)(R8*1), Y3
	VMOVUPD (R12), Y4
	VMOVUPD 32(R12), Y5
	VMOVUPD (R12)(R8*1), Y6
	VMOVUPD 32(R12)(R8*1), Y7
	LEAQ (DX)(R10*8), BX  // &b[0][j]
	MOVQ SI, AX           // &a[0][0]
	LEAQ (SI)(R8*2), R13  // &a[2][0]
	XORQ R11, R11         // k = 0
f64kloop8:
	VMOVUPD (BX), Y8              // b[k][j..j+4)
	VMOVUPD 32(BX), Y9            // b[k][j+4..j+8)
	VBROADCASTSD (AX), Y10        // a[0][k]
	VADDPD Y8, Y10, Y14           // w = s0 + bv
	VMINPD Y0, Y14, Y0            // c = w < c ? w : c
	VADDPD Y9, Y10, Y15
	VMINPD Y1, Y15, Y1
	VBROADCASTSD (AX)(R8*1), Y11  // a[1][k]
	VADDPD Y8, Y11, Y14
	VMINPD Y2, Y14, Y2
	VADDPD Y9, Y11, Y15
	VMINPD Y3, Y15, Y3
	VBROADCASTSD (R13), Y12       // a[2][k]
	VADDPD Y8, Y12, Y14
	VMINPD Y4, Y14, Y4
	VADDPD Y9, Y12, Y15
	VMINPD Y5, Y15, Y5
	VBROADCASTSD (R13)(R8*1), Y13 // a[3][k]
	VADDPD Y8, Y13, Y14
	VMINPD Y6, Y14, Y6
	VADDPD Y9, Y13, Y15
	VMINPD Y7, Y15, Y7
	ADDQ $8, AX
	ADDQ $8, R13
	ADDQ R8, BX                   // next b row
	INCQ R11
	CMPQ R11, R9
	JL   f64kloop8
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, 32(R14)
	VMOVUPD Y2, (R14)(R8*1)
	VMOVUPD Y3, 32(R14)(R8*1)
	VMOVUPD Y4, (R12)
	VMOVUPD Y5, 32(R12)
	VMOVUPD Y6, (R12)(R8*1)
	VMOVUPD Y7, 32(R12)(R8*1)
	ADDQ $8, R10
	JMP  f64colloop8

f64coltail:                   // 4-wide tail: cols ≡ 4 (mod 8) leaves one
	CMPQ R10, CX
	JGE  f64done
	LEAQ (DI)(R10*8), R14
	LEAQ (R14)(R8*2), R12
	VMOVUPD (R14), Y0
	VMOVUPD (R14)(R8*1), Y1
	VMOVUPD (R12), Y2
	VMOVUPD (R12)(R8*1), Y3
	LEAQ (DX)(R10*8), BX
	MOVQ SI, AX
	LEAQ (SI)(R8*2), R13
	XORQ R11, R11
f64kloop4:
	VMOVUPD (BX), Y4
	VBROADCASTSD (AX), Y5
	VADDPD Y4, Y5, Y5
	VMINPD Y0, Y5, Y0
	VBROADCASTSD (AX)(R8*1), Y6
	VADDPD Y4, Y6, Y6
	VMINPD Y1, Y6, Y1
	VBROADCASTSD (R13), Y7
	VADDPD Y4, Y7, Y7
	VMINPD Y2, Y7, Y2
	VBROADCASTSD (R13)(R8*1), Y8
	VADDPD Y4, Y8, Y8
	VMINPD Y3, Y8, Y3
	ADDQ $8, AX
	ADDQ $8, R13
	ADDQ R8, BX
	INCQ R11
	CMPQ R11, R9
	JL   f64kloop4
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, (R14)(R8*1)
	VMOVUPD Y2, (R12)
	VMOVUPD Y3, (R12)(R8*1)
	ADDQ $4, R10
	JMP  f64coltail

f64done:
	VZEROUPPER
	RET

// AVX-512 band kernels: the same band and update chain as the AVX2
// kernels above at 16 float32 or 8 float64 lanes per ZMM register. The
// register plan is bandAVX2F64's at twice the width:
//
//	Z0..Z7   C accumulators: row i, columns j..j+L in Z(2i) and
//	         j+L..j+2L in Z(2i+1) (L = 16 float32 or 8 float64 lanes)
//	Z8, Z9   b[k][j..j+2L)
//	Z10..Z13 splats of a[0..3][k]
//	Z14, Z15 sums
//
// so one pass holds a 4×32 float32 or 4×16 float64 block of C in
// registers for the whole k sweep. Each pass builds opmasks from the
// columns left: K1 covers the first ZMM of every row, K2 the second.
// Full passes set every bit; the last pass of a ragged width clears the
// bits past cols, and the zero-masking loads (VMOVUPx.Z) and masked
// stores neither read nor write those lanes, so the kernels touch no
// memory past C's row, B's row or the slices' ends. The masks
// are built with baseline shifts and KMOVW (16 bits, of which the
// float64 ops read the low 8), so the kernels need AVX512F alone.
// Operand order is the AVX2 kernels': VMINPx Z0, Z14, Z0 is
// Z0 = (Z14 < Z0) ? Z14 : Z0, w as src1 and c as src2.
//
// Register plan (general purpose):
//	DI  c base   SI  a base   DX  b base   R8  stride in bytes
//	R9  cols     R10 k        R11 j        CX  rem, then k count
//	R14 &c[0][j] R12 &c[2][j] AX  a row 0 k-pointer
//	R13 a row 2 k-pointer     BX  b[k][j] pointer
//
// The callers send them bands wider than 4 columns: a 4-column band
// runs faster on the AVX2 kernels' 4-wide tail than in one masked pass.

// func bandAVX512F32(c, a, b *float32, stride, cols, k int)
TEXT ·bandAVX512F32(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ stride+24(FP), R8
	MOVQ cols+32(FP), R9
	MOVQ k+40(FP), R10
	SHLQ $2, R8           // stride bytes
	XORQ R11, R11         // j = 0

b32pass:                      // one 32-column pass per iteration
	CMPQ R11, R9
	JGE  b32done
	MOVQ R9, CX
	SUBQ R11, CX          // rem = cols - j
	MOVL $0xFFFF, AX      // K1 bits: columns j..j+16
	MOVL $0xFFFF, BX      // K2 bits: columns j+16..j+32
	CMPQ CX, $32
	JGE  b32masks
	CMPQ CX, $16
	JGE  b32hi
	MOVL $1, AX
	SHLL CX, AX
	DECL AX               // K1 = (1 << rem) - 1
	XORL BX, BX           // K2 = 0
	JMP  b32masks
b32hi:
	SUBQ $16, CX
	MOVL $1, BX
	SHLL CX, BX
	DECL BX               // K2 = (1 << (rem - 16)) - 1
b32masks:
	KMOVW AX, K1
	KMOVW BX, K2
	LEAQ (DI)(R11*4), R14 // &c[0][j]
	LEAQ (R14)(R8*2), R12 // &c[2][j]
	VMOVUPS.Z (R14), K1, Z0
	VMOVUPS.Z 64(R14), K2, Z1
	VMOVUPS.Z (R14)(R8*1), K1, Z2
	VMOVUPS.Z 64(R14)(R8*1), K2, Z3
	VMOVUPS.Z (R12), K1, Z4
	VMOVUPS.Z 64(R12), K2, Z5
	VMOVUPS.Z (R12)(R8*1), K1, Z6
	VMOVUPS.Z 64(R12)(R8*1), K2, Z7
	LEAQ (DX)(R11*4), BX  // &b[0][j]
	MOVQ SI, AX           // &a[0][0]
	LEAQ (SI)(R8*2), R13  // &a[2][0]
	MOVQ R10, CX          // k steps
b32k:
	VMOVUPS.Z (BX), K1, Z8        // b[k][j..j+16)
	VMOVUPS.Z 64(BX), K2, Z9      // b[k][j+16..j+32)
	VBROADCASTSS (AX), Z10        // a[0][k]
	VADDPS Z8, Z10, Z14           // w = a[0][k] + b[k][j..]
	VMINPS Z0, Z14, Z0            // c = w < c ? w : c
	VADDPS Z9, Z10, Z15
	VMINPS Z1, Z15, Z1
	VBROADCASTSS (AX)(R8*1), Z11  // a[1][k]
	VADDPS Z8, Z11, Z14
	VMINPS Z2, Z14, Z2
	VADDPS Z9, Z11, Z15
	VMINPS Z3, Z15, Z3
	VBROADCASTSS (R13), Z12       // a[2][k]
	VADDPS Z8, Z12, Z14
	VMINPS Z4, Z14, Z4
	VADDPS Z9, Z12, Z15
	VMINPS Z5, Z15, Z5
	VBROADCASTSS (R13)(R8*1), Z13 // a[3][k]
	VADDPS Z8, Z13, Z14
	VMINPS Z6, Z14, Z6
	VADDPS Z9, Z13, Z15
	VMINPS Z7, Z15, Z7
	ADDQ $4, AX
	ADDQ $4, R13
	ADDQ R8, BX                   // next b row
	DECQ CX
	JNZ  b32k
	VMOVUPS Z0, K1, (R14)
	VMOVUPS Z1, K2, 64(R14)
	VMOVUPS Z2, K1, (R14)(R8*1)
	VMOVUPS Z3, K2, 64(R14)(R8*1)
	VMOVUPS Z4, K1, (R12)
	VMOVUPS Z5, K2, 64(R12)
	VMOVUPS Z6, K1, (R12)(R8*1)
	VMOVUPS Z7, K2, 64(R12)(R8*1)
	ADDQ $32, R11
	JMP  b32pass

b32done:
	VZEROUPPER
	RET

// func bandAVX512F64(c, a, b *float64, stride, cols, k int)
//
// bandAVX512F32 at double width: 8 lanes per ZMM, 16 columns per pass.
TEXT ·bandAVX512F64(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ stride+24(FP), R8
	MOVQ cols+32(FP), R9
	MOVQ k+40(FP), R10
	SHLQ $3, R8           // stride bytes
	XORQ R11, R11         // j = 0

b64pass:                      // one 16-column pass per iteration
	CMPQ R11, R9
	JGE  b64done
	MOVQ R9, CX
	SUBQ R11, CX          // rem = cols - j
	MOVL $0xFF, AX        // K1 bits: columns j..j+8
	MOVL $0xFF, BX        // K2 bits: columns j+8..j+16
	CMPQ CX, $16
	JGE  b64masks
	CMPQ CX, $8
	JGE  b64hi
	MOVL $1, AX
	SHLL CX, AX
	DECL AX               // K1 = (1 << rem) - 1
	XORL BX, BX           // K2 = 0
	JMP  b64masks
b64hi:
	SUBQ $8, CX
	MOVL $1, BX
	SHLL CX, BX
	DECL BX               // K2 = (1 << (rem - 8)) - 1
b64masks:
	KMOVW AX, K1
	KMOVW BX, K2
	LEAQ (DI)(R11*8), R14 // &c[0][j]
	LEAQ (R14)(R8*2), R12 // &c[2][j]
	VMOVUPD.Z (R14), K1, Z0
	VMOVUPD.Z 64(R14), K2, Z1
	VMOVUPD.Z (R14)(R8*1), K1, Z2
	VMOVUPD.Z 64(R14)(R8*1), K2, Z3
	VMOVUPD.Z (R12), K1, Z4
	VMOVUPD.Z 64(R12), K2, Z5
	VMOVUPD.Z (R12)(R8*1), K1, Z6
	VMOVUPD.Z 64(R12)(R8*1), K2, Z7
	LEAQ (DX)(R11*8), BX  // &b[0][j]
	MOVQ SI, AX           // &a[0][0]
	LEAQ (SI)(R8*2), R13  // &a[2][0]
	MOVQ R10, CX          // k steps
b64k:
	VMOVUPD.Z (BX), K1, Z8        // b[k][j..j+8)
	VMOVUPD.Z 64(BX), K2, Z9      // b[k][j+8..j+16)
	VBROADCASTSD (AX), Z10        // a[0][k]
	VADDPD Z8, Z10, Z14           // w = a[0][k] + b[k][j..]
	VMINPD Z0, Z14, Z0            // c = w < c ? w : c
	VADDPD Z9, Z10, Z15
	VMINPD Z1, Z15, Z1
	VBROADCASTSD (AX)(R8*1), Z11  // a[1][k]
	VADDPD Z8, Z11, Z14
	VMINPD Z2, Z14, Z2
	VADDPD Z9, Z11, Z15
	VMINPD Z3, Z15, Z3
	VBROADCASTSD (R13), Z12       // a[2][k]
	VADDPD Z8, Z12, Z14
	VMINPD Z4, Z14, Z4
	VADDPD Z9, Z12, Z15
	VMINPD Z5, Z15, Z5
	VBROADCASTSD (R13)(R8*1), Z13 // a[3][k]
	VADDPD Z8, Z13, Z14
	VMINPD Z6, Z14, Z6
	VADDPD Z9, Z13, Z15
	VMINPD Z7, Z15, Z7
	ADDQ $8, AX
	ADDQ $8, R13
	ADDQ R8, BX                   // next b row
	DECQ CX
	JNZ  b64k
	VMOVUPD Z0, K1, (R14)
	VMOVUPD Z1, K2, 64(R14)
	VMOVUPD Z2, K1, (R14)(R8*1)
	VMOVUPD Z3, K2, 64(R14)(R8*1)
	VMOVUPD Z4, K1, (R12)
	VMOVUPD Z5, K2, 64(R12)
	VMOVUPD Z6, K1, (R12)(R8*1)
	VMOVUPD Z7, K2, 64(R12)(R8*1)
	ADDQ $16, R11
	JMP  b64pass

b64done:
	VZEROUPPER
	RET

// Closure kernels: the in-CB terms of one 4×4 computing block of D
// (closeCB in stage2.go), with one CB row per register, XMM for
// float32 and YMM for float64. d, l and r point at the CB of D, L's
// diagonal CB and R's diagonal CB, each 4×4 at the row stride. All
// four D rows are loaded up front and stored at the end; rows run
// bottom-up, so a row's L terms read the rows below it from registers,
// already final, and the row itself (k = a) as it was loaded.
//
//	L terms: for k = a..3 ascending, x = min(splat(l[a][k]) + d[k], x).
//	R steps: for j = 0, 1, 2, x = min(splat(x[j]) + rv[j], x), where
//	         rv[j] is row j of R's diagonal CB with +Inf in lanes 0..j.
//
// The +Inf lanes are how a step leaves the lanes it must not touch
// (cells with b ≤ j) alone: splat + Inf is +Inf, or NaN when the splat
// is -Inf or NaN, and w < c never holds for either, so VMINPx keeps c
// bit for bit. The other lanes take their k = q·4+j term in ascending j,
// each from a splat of the lane already final, so every cell sees the
// scalar chain's terms in its order. closeF32 and closeF64 guarantee
// that D's and L's CBs and rows 0..2 of R's lie in bounds.
//
// Register plan:
//	DI  d    SI  l    DX  r    R8  stride bytes    R9  3·stride bytes
//	AX  +Inf bits
//	X0..X3 / Y0..Y3  D rows 0..3     X4..X6 / Y4..Y6  rv[0..2]
//	X7 / Y7  +Inf splat              X8, X9 / Y8, Y9  scratch

// CLOSEL32 applies one L term to the row in x: splat the float32 at
// lm, add the D row dk, and keep the smaller (w < x ? w : x).
#define CLOSEL32(lm, dk, x) \
	VBROADCASTSS lm, X8; \
	VADDPS       dk, X8, X8; \
	VMINPS       x, X8, x

// CLOSER32 applies the three R steps to the row in x.
#define CLOSER32(x) \
	VPERMILPS $0x00, x, X9; \
	VADDPS    X4, X9, X9; \
	VMINPS    x, X9, x; \
	VPERMILPS $0x55, x, X9; \
	VADDPS    X5, X9, X9; \
	VMINPS    x, X9, x; \
	VPERMILPS $0xAA, x, X9; \
	VADDPS    X6, X9, X9; \
	VMINPS    x, X9, x

// func closeAVX2F32(d, l, r *float32, stride int)
TEXT ·closeAVX2F32(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ l+8(FP), SI
	MOVQ r+16(FP), DX
	MOVQ stride+24(FP), R8
	SHLQ $2, R8                        // stride bytes
	LEAQ (R8)(R8*2), R9                // 3·stride bytes
	MOVL $0x7F800000, AX               // +Inf
	VMOVD AX, X7
	VBROADCASTSS X7, X7
	VBLENDPS $0x0E, (DX), X7, X4       // (+Inf, r01, r02, r03)
	VBLENDPS $0x0C, (DX)(R8*1), X7, X5 // (+Inf, +Inf, r12, r13)
	VBLENDPS $0x08, (DX)(R8*2), X7, X6 // (+Inf, +Inf, +Inf, r23)
	VMOVUPS (DI), X0
	VMOVUPS (DI)(R8*1), X1
	VMOVUPS (DI)(R8*2), X2
	VMOVUPS (DI)(R9*1), X3
	CLOSEL32(12(SI)(R9*1), X3, X3)     // row 3: k = 3
	CLOSER32(X3)
	CLOSEL32(8(SI)(R8*2), X2, X2)      // row 2: k = 2, 3
	CLOSEL32(12(SI)(R8*2), X3, X2)
	CLOSER32(X2)
	CLOSEL32(4(SI)(R8*1), X1, X1)      // row 1: k = 1, 2, 3
	CLOSEL32(8(SI)(R8*1), X2, X1)
	CLOSEL32(12(SI)(R8*1), X3, X1)
	CLOSER32(X1)
	CLOSEL32((SI), X0, X0)             // row 0: k = 0, 1, 2, 3
	CLOSEL32(4(SI), X1, X0)
	CLOSEL32(8(SI), X2, X0)
	CLOSEL32(12(SI), X3, X0)
	CLOSER32(X0)
	VMOVUPS X0, (DI)
	VMOVUPS X1, (DI)(R8*1)
	VMOVUPS X2, (DI)(R8*2)
	VMOVUPS X3, (DI)(R9*1)
	RET

// CLOSEL64 is CLOSEL32 at double width.
#define CLOSEL64(lm, dk, x) \
	VBROADCASTSD lm, Y8; \
	VADDPD       dk, Y8, Y8; \
	VMINPD       x, Y8, x

// CLOSER64 is CLOSER32 at double width: VPERMPD splats a lane across
// both 128-bit halves.
#define CLOSER64(x) \
	VPERMPD $0x00, x, Y9; \
	VADDPD  Y4, Y9, Y9; \
	VMINPD  x, Y9, x; \
	VPERMPD $0x55, x, Y9; \
	VADDPD  Y5, Y9, Y9; \
	VMINPD  x, Y9, x; \
	VPERMPD $0xAA, x, Y9; \
	VADDPD  Y6, Y9, Y9; \
	VMINPD  x, Y9, x

// func closeAVX2F64(d, l, r *float64, stride int)
TEXT ·closeAVX2F64(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ l+8(FP), SI
	MOVQ r+16(FP), DX
	MOVQ stride+24(FP), R8
	SHLQ $3, R8                        // stride bytes
	LEAQ (R8)(R8*2), R9                // 3·stride bytes
	MOVQ $0x7FF0000000000000, AX       // +Inf
	VMOVQ AX, X7
	VBROADCASTSD X7, Y7
	VBLENDPD $0x0E, (DX), Y7, Y4       // (+Inf, r01, r02, r03)
	VBLENDPD $0x0C, (DX)(R8*1), Y7, Y5 // (+Inf, +Inf, r12, r13)
	VBLENDPD $0x08, (DX)(R8*2), Y7, Y6 // (+Inf, +Inf, +Inf, r23)
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R8*1), Y1
	VMOVUPD (DI)(R8*2), Y2
	VMOVUPD (DI)(R9*1), Y3
	CLOSEL64(24(SI)(R9*1), Y3, Y3)     // row 3: k = 3
	CLOSER64(Y3)
	CLOSEL64(16(SI)(R8*2), Y2, Y2)     // row 2: k = 2, 3
	CLOSEL64(24(SI)(R8*2), Y3, Y2)
	CLOSER64(Y2)
	CLOSEL64(8(SI)(R8*1), Y1, Y1)      // row 1: k = 1, 2, 3
	CLOSEL64(16(SI)(R8*1), Y2, Y1)
	CLOSEL64(24(SI)(R8*1), Y3, Y1)
	CLOSER64(Y1)
	CLOSEL64((SI), Y0, Y0)             // row 0: k = 0, 1, 2, 3
	CLOSEL64(8(SI), Y1, Y0)
	CLOSEL64(16(SI), Y2, Y0)
	CLOSEL64(24(SI), Y3, Y0)
	CLOSER64(Y0)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)
	VMOVUPD Y2, (DI)(R8*2)
	VMOVUPD Y3, (DI)(R9*1)
	VZEROUPPER
	RET
