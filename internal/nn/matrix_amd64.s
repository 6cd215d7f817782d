#include "textflag.h"

// func tile2x8(d0, d1, a0, a1, b []float64, n int)
//
// The packed SSE2 form of tile2x4 over eight columns: X0-X3 hold d0[0:8] and
// X4-X7 hold d1[0:8], two sums each, for the whole k loop. Each k broadcasts
// a0[k] and a1[k], loads b's row k (b[k*n : k*n+8]) and adds every product
// into its own lane with one MULPD and one ADDPD, which round per lane exactly
// as the scalar MULSD and ADDSD do. The caller has sliced d0, d1 and a1 to
// length and b to end at (len(a0)-1)*n+8, so nothing here reads past a slice.
// Both dst rows are loaded before the loop and stored after it, so d0 and d1
// may be the same row, with a0 and a1 equal.
TEXT ·tile2x8(SB), NOSPLIT, $0-128
	MOVQ d0_base+0(FP), DI
	MOVQ d1_base+24(FP), SI
	MOVQ a0_base+48(FP), R8
	MOVQ a0_len+56(FP), CX
	MOVQ a1_base+72(FP), R9
	MOVQ b_base+96(FP), DX
	MOVQ n+120(FP), BX
	SHLQ $3, BX // b's row stride in bytes

	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVUPD 0(SI), X4
	MOVUPD 16(SI), X5
	MOVUPD 32(SI), X6
	MOVUPD 48(SI), X7

	XORQ AX, AX
	TESTQ CX, CX
	JEQ  done

loop:
	MOVSD    (R8)(AX*8), X8
	UNPCKLPD X8, X8 // a0[k] in both lanes
	MOVSD    (R9)(AX*8), X9
	UNPCKLPD X9, X9 // a1[k] in both lanes
	MOVUPD   0(DX), X10
	MOVUPD   16(DX), X11
	MOVUPD   32(DX), X12
	MOVUPD   48(DX), X13

	MOVAPD X10, X14
	MULPD  X8, X14
	ADDPD  X14, X0
	MULPD  X9, X10
	ADDPD  X10, X4

	MOVAPD X11, X14
	MULPD  X8, X14
	ADDPD  X14, X1
	MULPD  X9, X11
	ADDPD  X11, X5

	MOVAPD X12, X14
	MULPD  X8, X14
	ADDPD  X14, X2
	MULPD  X9, X12
	ADDPD  X12, X6

	MOVAPD X13, X14
	MULPD  X8, X14
	ADDPD  X14, X3
	MULPD  X9, X13
	ADDPD  X13, X7

	ADDQ BX, DX
	INCQ AX
	CMPQ AX, CX
	JLT  loop

done:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 0(SI)
	MOVUPD X5, 16(SI)
	MOVUPD X6, 32(SI)
	MOVUPD X7, 48(SI)
	RET
