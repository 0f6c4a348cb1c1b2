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

// func dotQ8x4(p []int16, rows []int8, acc *[16]int32)
//
// Scores the four int8 rows rows[k·d:(k+1)·d], k = 0…3, against the
// int16 probe p, where d = len(p) is a positive multiple of 16 and
// len(rows) ≥ 4·d (scanQ8Blocks checks both). Each step loads 16 probe
// words and 16 bytes of each row, sign-extends the bytes to words
// (PUNPCKxBW with itself, then PSRAW $8: SSE2 has no PMOVSXBW), and
// multiplies with PMADDWD (Go: PMADDWL), which adds adjacent int16
// products into int32 lanes. Row k's four int32 lanes X(4+k) are stored
// to acc[4k:4k+4].
TEXT ·dotQ8x4(SB), NOSPLIT, $0-56
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ rows_base+24(FP), DI
	MOVQ acc+48(FP), AX

	LEAQ (DI)(CX*1), R8  // row 1: the row stride is d bytes
	LEAQ (R8)(CX*1), R9  // row 2
	LEAQ (R9)(CX*1), R10 // row 3
	SHRQ $4, CX          // 16-element steps
	XORQ BX, BX          // element offset: bytes into the rows, words into p
	PXOR X4, X4
	PXOR X5, X5
	PXOR X6, X6
	PXOR X7, X7

q8loop:
	MOVOU (SI)(BX*2), X0   // p[j:j+8]
	MOVOU 16(SI)(BX*2), X1 // p[j+8:j+16]

	MOVOU     (DI)(BX*1), X2
	MOVO      X2, X3
	PUNPCKLBW X2, X2
	PUNPCKHBW X3, X3
	PSRAW     $8, X2
	PSRAW     $8, X3
	PMADDWL   X0, X2
	PMADDWL   X1, X3
	PADDL     X2, X4
	PADDL     X3, X4

	MOVOU     (R8)(BX*1), X2
	MOVO      X2, X3
	PUNPCKLBW X2, X2
	PUNPCKHBW X3, X3
	PSRAW     $8, X2
	PSRAW     $8, X3
	PMADDWL   X0, X2
	PMADDWL   X1, X3
	PADDL     X2, X5
	PADDL     X3, X5

	MOVOU     (R9)(BX*1), X2
	MOVO      X2, X3
	PUNPCKLBW X2, X2
	PUNPCKHBW X3, X3
	PSRAW     $8, X2
	PSRAW     $8, X3
	PMADDWL   X0, X2
	PMADDWL   X1, X3
	PADDL     X2, X6
	PADDL     X3, X6

	MOVOU     (R10)(BX*1), X2
	MOVO      X2, X3
	PUNPCKLBW X2, X2
	PUNPCKHBW X3, X3
	PSRAW     $8, X2
	PSRAW     $8, X3
	PMADDWL   X0, X2
	PMADDWL   X1, X3
	PADDL     X2, X7
	PADDL     X3, X7

	ADDQ $16, BX
	DECQ CX
	JNZ  q8loop

	MOVOU X4, 0(AX)
	MOVOU X5, 16(AX)
	MOVOU X6, 32(AX)
	MOVOU X7, 48(AX)
	RET

// func dotQ8x4AVX2(p []int16, rows []int8, acc *[16]int32)
//
// dotQ8x4 with one 256-bit step per 16 elements: VPMOVSXBW sign-extends
// 16 row bytes to words in one instruction, VPMADDWD multiplies them with
// the 16 probe words into eight int32 lanes, and VPADDD adds those into
// row k's accumulator Y(4+k). The upper 128-bit half of each accumulator
// is added onto the lower before the store, so acc receives four int32
// lanes per row, as from dotQ8x4. Only scanQ8Blocks calls it, and only
// when hasAVX2 is set.
TEXT ·dotQ8x4AVX2(SB), NOSPLIT, $0-56
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ rows_base+24(FP), DI
	MOVQ acc+48(FP), AX

	LEAQ  (DI)(CX*1), R8  // row 1: the row stride is d bytes
	LEAQ  (R8)(CX*1), R9  // row 2
	LEAQ  (R9)(CX*1), R10 // row 3
	SHRQ  $4, CX          // 16-element steps
	XORQ  BX, BX          // element offset: bytes into the rows, words into p
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

avx2loop:
	VMOVDQU (SI)(BX*2), Y0 // p[j:j+16]

	VPMOVSXBW (DI)(BX*1), Y1
	VPMADDWD  Y0, Y1, Y1
	VPADDD    Y1, Y4, Y4

	VPMOVSXBW (R8)(BX*1), Y2
	VPMADDWD  Y0, Y2, Y2
	VPADDD    Y2, Y5, Y5

	VPMOVSXBW (R9)(BX*1), Y3
	VPMADDWD  Y0, Y3, Y3
	VPADDD    Y3, Y6, Y6

	VPMOVSXBW (R10)(BX*1), Y8
	VPMADDWD  Y0, Y8, Y8
	VPADDD    Y8, Y7, Y7

	ADDQ $16, BX
	DECQ CX
	JNZ  avx2loop

	VEXTRACTI128 $1, Y4, X0
	VPADDD       X0, X4, X4
	VMOVDQU      X4, 0(AX)
	VEXTRACTI128 $1, Y5, X1
	VPADDD       X1, X5, X5
	VMOVDQU      X5, 16(AX)
	VEXTRACTI128 $1, Y6, X2
	VPADDD       X2, X6, X6
	VMOVDQU      X6, 32(AX)
	VEXTRACTI128 $1, Y7, X3
	VPADDD       X3, X7, X7
	VMOVDQU      X7, 48(AX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() (eax uint32)
//
// The low word of XCR0, the register in which the OS enables the
// processor state it saves on a context switch.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
