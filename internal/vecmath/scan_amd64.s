#include "textflag.h"

// func dot4rows(p, rows []float32, acc *[16]float32)
//
// Scores the four rows rows[k·d:(k+1)·d], k = 0…3, against p, where
// d = len(p) is a positive multiple of 4 and len(rows) ≥ 4·d (ScanDot
// checks both). Row k's 4-lane accumulator X(4+k) is stored to
// acc[4k:4k+4]. Lane j of it is Dot's accumulator s_j: element i of the
// row lands in lane i mod 4, and each step rounds the product and the sum
// to float32 separately (MULPS then ADDPS, never FMA), just as Dot's
// `s_j += a[i]*b[i]` does.
TEXT ·dot4rows(SB), NOSPLIT, $0-56
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ rows_base+24(FP), DI
	MOVQ acc+48(FP), AX

	MOVQ CX, DX
	SHLQ $2, DX          // row stride in bytes
	LEAQ (DI)(DX*1), R8  // row 1
	LEAQ (R8)(DX*1), R9  // row 2
	LEAQ (R9)(DX*1), R10 // row 3
	SHRQ $2, CX          // 4-float steps
	XORQ BX, BX          // byte offset into p and every row
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

loop:
	MOVUPS (SI)(BX*1), X0
	MOVUPS (DI)(BX*1), X1
	MULPS  X0, X1
	ADDPS  X1, X4
	MOVUPS (R8)(BX*1), X2
	MULPS  X0, X2
	ADDPS  X2, X5
	MOVUPS (R9)(BX*1), X3
	MULPS  X0, X3
	ADDPS  X3, X6
	MOVUPS (R10)(BX*1), X8
	MULPS  X0, X8
	ADDPS  X8, X7
	ADDQ   $16, BX
	DECQ   CX
	JNZ    loop

	MOVUPS X4, 0(AX)
	MOVUPS X5, 16(AX)
	MOVUPS X6, 32(AX)
	MOVUPS X7, 48(AX)
	RET
