// AVX2 kernels of the negative-sampling step (trainPair). They perform
// the float32 operations of the portable Go loops in the same order —
// Dot's four-lane accumulation reduced as (s0+s2)+(s1+s3) with a scalar
// tail, and separate multiplies and adds, never FMA, because the Go
// loops round every product — so a pair trained through them leaves
// the same bits behind. The speed comes from doing independent work
// side by side: six rows' dots in one loop, eight lanes of an update at
// once, every row of the pair prefetched before the first is read.
//
// Callers must gate on useAVX2 (see sgns_amd64.go) and pass only rows
// inside syn1; these routines execute AVX2 instructions and address
// memory unconditionally.

//go:build amd64 && !purego

#include "textflag.h"

// ROWPTR sets reg to the address of the block's i-th row, or of its
// first row when fewer than i+1 rows are left (AX), so the loop below
// always runs six rows wide and the surplus dots are simply not stored.
// DI is the token cursor, CX the row stride in bytes, DX the arena
// base, R14 zero.
#define ROWPTR(i, reg) \
	MOVQ    $i, reg; \
	CMPQ    AX, $i; \
	CMOVQLE R14, reg; \
	MOVLQSX (DI)(reg*4), reg; \
	IMULQ   CX, reg; \
	ADDQ    DX, reg

// DOTSTEP4 folds four lanes of two rows into their shared accumulator,
// row lo in the low half and row hi in the high half, against the four
// input lanes Y6 holds in both halves: each product is rounded, then
// added, as `s += a[i] * b[i]` is.
#define DOTSTEP4(lo, hi, tmp, xtmp, acc) \
	VMOVUPS     (lo)(DX*1), xtmp; \
	VINSERTF128 $1, (hi)(DX*1), tmp, tmp; \
	VMULPS      Y6, tmp, tmp; \
	VADDPS      tmp, acc, acc

// DOTSTEP1 folds one element of the scalar tail into a row's sum.
#define DOTSTEP1(row, tmp, acc) \
	VMULSS (row)(DX*1), X6, tmp; \
	VADDSS tmp, acc, acc

// REDUCE leaves (s0+s2)+(s1+s3) in lane 0 of acc.
#define REDUCE(acc, tmp) \
	VMOVHLPS  acc, acc, tmp; \
	VADDPS    tmp, acc, acc; \
	VMOVSHDUP acc, tmp; \
	VADDSS    tmp, acc, acc

// func sgnsPrefetch(syn1 *float32, toks *int32, n, dim int)
//
// Requests every cache line of rows toks[0:n] of syn1. The sampled rows
// are scattered over the arena, and their first loads otherwise
// dominate the step.
TEXT ·sgnsPrefetch(SB), NOSPLIT, $0-32
	MOVQ  syn1+0(FP), DX
	MOVQ  toks+8(FP), DI
	MOVQ  n+16(FP), AX
	MOVQ  dim+24(FP), CX
	SHLQ  $2, CX
	XORQ  R8, R8
	TESTQ AX, AX
	JE    pfdone

pfrow:
	MOVLQSX (DI)(R8*4), R9
	IMULQ   CX, R9
	ADDQ    DX, R9            // first byte of the row
	LEAQ    -1(R9)(CX*1), R10 // its last byte

pfline:
	PREFETCHT0 (R9)
	ADDQ       $64, R9
	CMPQ       R9, R10
	JBE        pfline
	PREFETCHT0 (R10) // rows are not line-aligned: the last line may start past the cursor
	INCQ       R8
	CMPQ       R8, AX
	JLT        pfrow

pfdone:
	RET

// func sgnsDots(in, syn1 *float32, toks *int32, f *float32, n, dim int)
//
// f[j] = Dot(in[:dim], row toks[j] of syn1) for j in [0, n), bit for
// bit.
TEXT ·sgnsDots(SB), NOSPLIT, $0-48
	MOVQ  in+0(FP), SI
	MOVQ  toks+16(FP), DI
	MOVQ  f+24(FP), BX
	MOVQ  n+32(FP), AX
	XORQ  R14, R14
	TESTQ AX, AX
	JE    ddone

dblock:
	// Six rows per pass. Each row keeps Dot's own four-lane accumulator,
	// two rows to a 256-bit register, so one multiply and one add serve
	// two rows and the three add chains overlap: the speed comes from
	// the rows being independent, never from a wider sum per row.
	MOVQ syn1+8(FP), DX
	MOVQ dim+40(FP), CX
	SHLQ $2, CX
	ROWPTR(0, R8)
	ROWPTR(1, R9)
	ROWPTR(2, R10)
	ROWPTR(3, R11)
	ROWPTR(4, R12)
	ROWPTR(5, R13)
	VXORPS Y0, Y0, Y0 // rows 0 | 1
	VXORPS Y1, Y1, Y1 // rows 2 | 3
	VXORPS Y2, Y2, Y2 // rows 4 | 5
	XORQ   DX, DX   // byte offset into in and every row
	ANDQ   $-16, CX // bytes the four-lane loop covers
	JE     dreduce

dlanes:
	VBROADCASTF128 (SI)(DX*1), Y6
	DOTSTEP4(R8, R9, Y7, X7, Y0)
	DOTSTEP4(R10, R11, Y8, X8, Y1)
	DOTSTEP4(R12, R13, Y9, X9, Y2)
	ADDQ           $16, DX
	CMPQ           DX, CX
	JLT            dlanes

dreduce:
	// Rows 0..5 end up in lane 0 of X0, X3, X1, X4, X2, X5.
	VEXTRACTF128 $1, Y0, X3
	VEXTRACTF128 $1, Y1, X4
	VEXTRACTF128 $1, Y2, X5
	REDUCE(X0, X7)
	REDUCE(X3, X8)
	REDUCE(X1, X9)
	REDUCE(X4, X10)
	REDUCE(X2, X11)
	REDUCE(X5, X12)
	MOVQ dim+40(FP), CX
	SHLQ $2, CX
	CMPQ DX, CX
	JGE  dstore

dtail:
	VMOVSS (SI)(DX*1), X6
	DOTSTEP1(R8, X7, X0)
	DOTSTEP1(R9, X8, X3)
	DOTSTEP1(R10, X9, X1)
	DOTSTEP1(R11, X10, X4)
	DOTSTEP1(R12, X11, X2)
	DOTSTEP1(R13, X12, X5)
	ADDQ   $4, DX
	CMPQ   DX, CX
	JLT    dtail

dstore:
	VMOVSS X0, (BX)
	CMPQ   AX, $1
	JLE    ddone
	VMOVSS X3, 4(BX)
	CMPQ   AX, $2
	JLE    ddone
	VMOVSS X1, 8(BX)
	CMPQ   AX, $3
	JLE    ddone
	VMOVSS X4, 12(BX)
	CMPQ   AX, $4
	JLE    ddone
	VMOVSS X2, 16(BX)
	CMPQ   AX, $5
	JLE    ddone
	VMOVSS X5, 20(BX)
	ADDQ   $24, DI
	ADDQ   $24, BX
	SUBQ   $6, AX
	JG     dblock

ddone:
	VZEROUPPER
	RET

// func sgnsUpdate(in, syn1 *float32, toks *int32, gs, grad *float32, n, dim int)
//
// For j in [0, n), in order, with out = row toks[j] of syn1:
//
//	grad[d] += gs[j] * out[d]; out[d] += gs[j] * in[d]
//
// the fused pass of the Go loop (out's pre-update value feeds grad),
// eight lanes at a time, a four-lane step and a scalar tail.
TEXT ·sgnsUpdate(SB), NOSPLIT, $0-56
	MOVQ  in+0(FP), SI
	MOVQ  syn1+8(FP), R8
	MOVQ  toks+16(FP), DI
	MOVQ  gs+24(FP), BX
	MOVQ  grad+32(FP), R9
	MOVQ  n+40(FP), AX
	MOVQ  dim+48(FP), R10
	SHLQ  $2, R10  // row bytes
	MOVQ  R10, R11
	ANDQ  $-32, R11 // bytes the eight-lane loop covers
	TESTQ AX, AX
	JE    udone

urow:
	MOVLQSX      (DI), R12
	IMULQ        R10, R12
	ADDQ         R8, R12 // out
	VBROADCASTSS (BX), Y0
	XORQ         DX, DX
	TESTQ        R11, R11
	JE           ufour

ueight:
	VMOVUPS (R12)(DX*1), Y1
	VMULPS  Y1, Y0, Y2
	VADDPS  (R9)(DX*1), Y2, Y2
	VMOVUPS Y2, (R9)(DX*1)
	VMULPS  (SI)(DX*1), Y0, Y3
	VADDPS  Y3, Y1, Y1
	VMOVUPS Y1, (R12)(DX*1)
	ADDQ    $32, DX
	CMPQ    DX, R11
	JLT     ueight

ufour:
	LEAQ    16(DX), CX
	CMPQ    CX, R10
	JGT     uone
	VMOVUPS (R12)(DX*1), X1
	VMULPS  X1, X0, X2
	VADDPS  (R9)(DX*1), X2, X2
	VMOVUPS X2, (R9)(DX*1)
	VMULPS  (SI)(DX*1), X0, X3
	VADDPS  X3, X1, X1
	VMOVUPS X1, (R12)(DX*1)
	MOVQ    CX, DX

uone:
	CMPQ   DX, R10
	JGE    unext
	VMOVSS (R12)(DX*1), X1
	VMULSS X1, X0, X2
	VADDSS (R9)(DX*1), X2, X2
	VMOVSS X2, (R9)(DX*1)
	VMULSS (SI)(DX*1), X0, X3
	VADDSS X3, X1, X1
	VMOVSS X1, (R12)(DX*1)
	ADDQ   $4, DX
	JMP    uone

unext:
	ADDQ $4, DI
	ADDQ $4, BX
	DECQ AX
	JNZ  urow

udone:
	VZEROUPPER
	RET

// func addAVX2(dst, src *float32, dim int)
//
// dst[d] += src[d] for d in [0, dim): embed.Add, eight lanes at a time.
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ dim+16(FP), CX
	SHLQ $2, CX
	XORQ DX, DX

aeight:
	LEAQ    32(DX), AX
	CMPQ    AX, CX
	JGT     aone
	VMOVUPS (DI)(DX*1), Y0
	VADDPS  (SI)(DX*1), Y0, Y0
	VMOVUPS Y0, (DI)(DX*1)
	MOVQ    AX, DX
	JMP     aeight

aone:
	CMPQ   DX, CX
	JGE    adone
	VMOVSS (DI)(DX*1), X0
	VADDSS (SI)(DX*1), X0, X0
	VMOVSS X0, (DI)(DX*1)
	ADDQ   $4, DX
	JMP    aone

adone:
	VZEROUPPER
	RET
