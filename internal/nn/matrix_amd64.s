#include "textflag.h"

// func tile4x8(d, a, b []float64, k, n int)
//
// The AVX form of the Go tiles over four rows and eight columns: Y0-Y7 hold
// the 32 sums, row r's columns 0-3 in Y(2r) and 4-7 in Y(2r+1), for the whole
// k loop. Each k loads b's row k (b[k*n : k*n+8]) and broadcasts a[r*k+k] of
// every row, and adds every product into its own lane with one VMULPD and one
// VADDPD, which round per lane exactly as the scalar MULSD and ADDSD do: never
// a fused multiply-add. The operands go in the order the scalar and SSE2 forms
// use — b first in the product, the sum first in the add — so even a NaN
// result carries the same payload. The caller has sliced d, a and b to
// length, so nothing here reads past a slice.
TEXT ·tile4x8(SB), NOSPLIT, $0-88
	MOVQ d_base+0(FP), DI
	MOVQ a_base+24(FP), R8
	MOVQ b_base+48(FP), DX
	MOVQ k+72(FP), CX
	MOVQ n+80(FP), BX
	SHLQ $3, BX // b's and d's row stride in bytes

	LEAQ (R8)(CX*8), R10  // a's row 1
	LEAQ (R10)(CX*8), R11 // a's row 2
	LEAQ (R11)(CX*8), R12 // a's row 3

	MOVQ    DI, SI
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	ADDQ    BX, SI
	VMOVUPD 0(SI), Y2
	VMOVUPD 32(SI), Y3
	ADDQ    BX, SI
	VMOVUPD 0(SI), Y4
	VMOVUPD 32(SI), Y5
	ADDQ    BX, SI
	VMOVUPD 0(SI), Y6
	VMOVUPD 32(SI), Y7

	XORQ  AX, AX
	TESTQ CX, CX
	JEQ   done

loop:
	VMOVUPD      0(DX), Y8
	VMOVUPD      32(DX), Y9
	VBROADCASTSD (R8)(AX*8), Y10
	VBROADCASTSD (R10)(AX*8), Y11
	VBROADCASTSD (R11)(AX*8), Y12
	VBROADCASTSD (R12)(AX*8), Y13

	VMULPD Y10, Y8, Y14
	VADDPD Y14, Y0, Y0
	VMULPD Y10, Y9, Y14
	VADDPD Y14, Y1, Y1

	VMULPD Y11, Y8, Y14
	VADDPD Y14, Y2, Y2
	VMULPD Y11, Y9, Y14
	VADDPD Y14, Y3, Y3

	VMULPD Y12, Y8, Y14
	VADDPD Y14, Y4, Y4
	VMULPD Y12, Y9, Y14
	VADDPD Y14, Y5, Y5

	VMULPD Y13, Y8, Y14
	VADDPD Y14, Y6, Y6
	VMULPD Y13, Y9, Y14
	VADDPD Y14, Y7, Y7

	ADDQ BX, DX
	INCQ AX
	CMPQ AX, CX
	JLT  loop

done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    BX, DI
	VMOVUPD Y2, 0(DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    BX, DI
	VMOVUPD Y4, 0(DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    BX, DI
	VMOVUPD Y6, 0(DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func cpuidECX() uint32
TEXT ·cpuidECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
