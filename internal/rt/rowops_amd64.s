// The wide row loops: rowops.go's arithmetic primitives, four doubles per
// instruction (AVX2). Selection, contracts and the reason two of the Go
// loops have no loop of their own here are in rowops_amd64.go.

#include "textflag.h"

// Registers in every loop: DI dst, SI the first row, DX the second, CX n,
// AX the element index, BX a loop bound, Y15 the scalar in every lane.
//
// A form is how four elements (F4, at byte offset off, into R) or one (F1,
// into X0) are computed. OP's first source — the operand whose payload a
// NaN∘NaN pair returns — is the register loaded first.

// row ∘ row
#define RR4(OP, off, R) VMOVUPD off(SI)(AX*8), R; OP off(DX)(AX*8), R, R
#define RR1(OP)         VMOVSD (SI)(AX*8), X0; OP (DX)(AX*8), X0, X0
// row ∘ scalar
#define RS4(OP, off, R) VMOVUPD off(SI)(AX*8), R; OP Y15, R, R
#define RS1(OP)         VMOVSD (SI)(AX*8), X0; OP X15, X0, X0
// scalar ∘ row
#define SR4(OP, off, R) OP off(SI)(AX*8), Y15, R
#define SR1(OP)         OP (SI)(AX*8), X15, X0
// (row * scalar) ∘ row: two rounded operations, never an FMA
#define AX4(OP, off, R) VMOVUPD off(SI)(AX*8), R; VMULPD Y15, R, R; OP off(DX)(AX*8), R, R
#define AX1(OP)         VMOVSD (SI)(AX*8), X0; VMULSD X15, X0, X0; OP (DX)(AX*8), X0, X0
// fn(row)
#define UN4(OP, off, R) OP off(SI)(AX*8), R
#define UN1(OP)         OP (SI)(AX*8), X0, X0

// ROW is the body of every primitive: eight elements per iteration in two
// vectors, then at most one vector of four, then at most three single
// elements. Each element is loaded once and stored once, in index order
// within a vector's reach, so dst may be either source row. Both loops start
// a 64-byte line, which aligns the function to 64 bytes too, so no byte of a
// primitive moves within its line when the linker moves the function: the
// eight-wide loop is longer than 32 bytes, and at 16 doubles a primitive
// whose loop straddled a line cost up to 20 % more a row (EXPERIMENTS.md,
// "Short rows in the wide loops").
#define ROW(F4, F1, PD, SD) \
	XORL AX, AX; \
	MOVQ CX, BX; \
	ANDQ $-8, BX; \
	JEQ  four; \
	PCALIGN $64; \
eight: \
	F4(PD, 0, Y0); \
	F4(PD, 32, Y1); \
	VMOVUPD Y0, (DI)(AX*8); \
	VMOVUPD Y1, 32(DI)(AX*8); \
	ADDQ $8, AX; \
	CMPQ AX, BX; \
	JLT  eight; \
four: \
	MOVQ CX, BX; \
	ANDQ $-4, BX; \
	CMPQ AX, BX; \
	JGE  ones; \
	F4(PD, 0, Y0); \
	VMOVUPD Y0, (DI)(AX*8); \
	ADDQ $4, AX; \
ones: \
	CMPQ AX, CX; \
	JGE  done; \
	PCALIGN $64; \
one: \
	F1(SD); \
	VMOVSD X0, (DI)(AX*8); \
	INCQ AX; \
	CMPQ AX, CX; \
	JLT  one; \
done: \
	VZEROUPPER; \
	RET

#define ARGS2 MOVQ dst+0(FP), DI; MOVQ xs+8(FP), SI; MOVQ n+16(FP), CX
#define ARGSV MOVQ dst+0(FP), DI; MOVQ xs+8(FP), SI; VBROADCASTSD v+16(FP), Y15; MOVQ n+24(FP), CX
#define ARGS3 MOVQ dst+0(FP), DI; MOVQ xs+8(FP), SI; MOVQ ys+16(FP), DX; MOVQ n+24(FP), CX
#define MASK(bits) MOVQ bits, BX; VMOVQ BX, X15; VBROADCASTSD X15, Y15

// func addRR(dst, xs, ys *float64, n int)
TEXT ·addRR(SB), NOSPLIT, $0-32
	ARGS3
	ROW(RR4, RR1, VADDPD, VADDSD)

// func subRR(dst, xs, ys *float64, n int)
TEXT ·subRR(SB), NOSPLIT, $0-32
	ARGS3
	ROW(RR4, RR1, VSUBPD, VSUBSD)

// func mulRR(dst, xs, ys *float64, n int)
TEXT ·mulRR(SB), NOSPLIT, $0-32
	ARGS3
	ROW(RR4, RR1, VMULPD, VMULSD)

// func divRR(dst, xs, ys *float64, n int)
TEXT ·divRR(SB), NOSPLIT, $0-32
	ARGS3
	ROW(RR4, RR1, VDIVPD, VDIVSD)

// func addRS(dst, xs *float64, v float64, n int)
TEXT ·addRS(SB), NOSPLIT, $0-32
	ARGSV
	ROW(RS4, RS1, VADDPD, VADDSD)

// func subRS(dst, xs *float64, v float64, n int)
TEXT ·subRS(SB), NOSPLIT, $0-32
	ARGSV
	ROW(RS4, RS1, VSUBPD, VSUBSD)

// func mulRS(dst, xs *float64, v float64, n int)
TEXT ·mulRS(SB), NOSPLIT, $0-32
	ARGSV
	ROW(RS4, RS1, VMULPD, VMULSD)

// func divRS(dst, xs *float64, v float64, n int)
TEXT ·divRS(SB), NOSPLIT, $0-32
	ARGSV
	ROW(RS4, RS1, VDIVPD, VDIVSD)

// func subSR(dst, xs *float64, v float64, n int)
TEXT ·subSR(SB), NOSPLIT, $0-32
	ARGSV
	ROW(SR4, SR1, VSUBPD, VSUBSD)

// func divSR(dst, xs *float64, v float64, n int)
TEXT ·divSR(SB), NOSPLIT, $0-32
	ARGSV
	ROW(SR4, SR1, VDIVPD, VDIVSD)

// func axpyAdd(dst, xs, ys *float64, n int, v float64)
TEXT ·axpyAdd(SB), NOSPLIT, $0-40
	ARGS3
	VBROADCASTSD v+32(FP), Y15
	ROW(AX4, AX1, VADDPD, VADDSD)

// func axpySub(dst, xs, ys *float64, n int, v float64)
TEXT ·axpySub(SB), NOSPLIT, $0-40
	ARGS3
	VBROADCASTSD v+32(FP), Y15
	ROW(AX4, AX1, VSUBPD, VSUBSD)

// func negR(dst, xs *float64, n int)
TEXT ·negR(SB), NOSPLIT, $0-24
	ARGS2
	MASK($0x8000000000000000)
	ROW(RS4, RS1, VXORPD, VXORPD)

// func absR(dst, xs *float64, n int)
TEXT ·absR(SB), NOSPLIT, $0-24
	ARGS2
	MASK($0x7fffffffffffffff)
	ROW(RS4, RS1, VANDPD, VANDPD)

// func sqrtR(dst, xs *float64, n int)
TEXT ·sqrtR(SB), NOSPLIT, $0-24
	ARGS2
	ROW(UN4, UN1, VSQRTPD, VSQRTSD)

// func hasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7, EBX bit 5), the OS has
// enabled XSAVE and AVX (leaf 1, ECX bits 27 and 28) and XCR0 says it saves
// the XMM and YMM halves across context switches (bits 1 and 2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
no:
	RET
