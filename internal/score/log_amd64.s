#include "textflag.h"

// The batched logarithm (DESIGN §28): math.Log's amd64 implementation
// ($GOROOT/src/math/log_amd64.s) four lanes at a time. Every lane performs
// that file's operations, in its order and on the same operands, with the
// packed form of each scalar SSE2 instruction, so every lane rounds as the
// scalar code does. The special cases are the scalar code's branches, taken
// as blends after the main path: ±0 → −Inf, negative → NaN, +Inf and NaN
// → x.
//
#include "log_amd64.h"

// func logAVX2(t *logTable, dst, src *float64, n int)
TEXT ·logAVX2(SB), NOSPLIT, $0-32
	MOVQ t+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX

loop:
	CMPQ CX, $4
	JLT  tail
	VMOVUPD (SI), Y0
	LOG4
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  loop

tail:
	// The last 1–3 inputs run as one padded group: the lanes past n are
	// neither loaded nor stored.
	TESTQ CX, CX
	JEQ   done
	MOVQ  $4, DX
	SUBQ  CX, DX
	VMOVDQU    672(AX)(DX*8), Y15
	VMASKMOVPD (SI), Y15, Y0
	LOG4
	VMASKMOVPD Y1, Y15, (DI)

done:
	VZEROUPPER
	RET
