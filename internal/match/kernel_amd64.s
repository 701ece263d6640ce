// AVX2/FMA scoring kernels for the match hot path. Each routine scores
// one (normalized) query against a block of contiguous arena rows,
// writing one score per row — the selection heaps consume the score
// buffer in Go. Dimensions are handled generically: a 16-lane main
// loop, an 8-lane step, and a scalar tail, so any Dim works; rows of
// typical dims (96, 64, 40) stay entirely in the vector loops.
//
// Callers must gate on useFMA (see kernel_amd64.go); these routines
// execute AVX2/FMA3 instructions unconditionally.

//go:build amd64 && !purego

#include "textflag.h"

// func dotRowsFMA(arena, q, out *float32, rows, dim int)
//
// out[r] = dot(arena[r*dim:(r+1)*dim], q[:dim]) for r in [0, rows).
TEXT ·dotRowsFMA(SB), NOSPLIT, $0-40
	MOVQ  arena+0(FP), DI
	MOVQ  q+8(FP), SI
	MOVQ  out+16(FP), DX
	MOVQ  rows+24(FP), CX
	MOVQ  dim+32(FP), R8
	TESTQ CX, CX
	JE    fdone

frow:
	MOVQ   SI, BX  // query cursor (the row cursor DI advances in place)
	MOVQ   R8, R11 // dims left in this row
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

fblk16:
	CMPQ    R11, $16
	JLT     fblk8
	VMOVUPS (DI), Y2
	VMOVUPS 32(DI), Y3
	VFMADD231PS (BX), Y2, Y0
	VFMADD231PS 32(BX), Y3, Y1
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $16, R11
	JMP     fblk16

fblk8:
	CMPQ    R11, $8
	JLT     freduce
	VMOVUPS (DI), Y2
	VFMADD231PS (BX), Y2, Y0
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $8, R11

freduce:
	// Horizontal sum of Y0+Y1 into the low lane of X0.
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0

	TESTQ  R11, R11
	JE     fstore
ftail:
	VMOVSS (DI), X2
	VFMADD231SS (BX), X2, X0
	ADDQ   $4, DI
	ADDQ   $4, BX
	DECQ   R11
	JNZ    ftail

fstore:
	VMOVSS X0, (DX)
	ADDQ   $4, DX
	DECQ   CX
	JNZ    frow

fdone:
	VZEROUPPER
	RET

// func dotPosFMA(arena *float32, pos *int32, q, out *float32, n, dim int, stop float32) int
//
// The scattered-position form of dotRowsFMA: out[j] = dot(arena row
// pos[j], q[:dim]) for j in [0, n), with the identical per-row
// accumulation order (so a row scores the same bits through either
// routine), stopping after the first row whose score exceeds stop.
// Returns that row's index j, or n when no score exceeded stop.
TEXT ·dotPosFMA(SB), NOSPLIT, $0-64
	MOVQ   arena+0(FP), R9
	MOVQ   pos+8(FP), R10
	MOVQ   q+16(FP), SI
	MOVQ   out+24(FP), DX
	MOVQ   n+32(FP), CX
	MOVQ   dim+40(FP), R8
	VMOVSS stop+48(FP), X5
	XORQ   AX, AX  // index of the row being scored
	TESTQ  CX, CX
	JE     pdone
	MOVQ   R8, R12
	SHLQ   $2, R12 // row stride in bytes

prow:
	MOVLQSX (R10)(AX*4), DI
	IMULQ   R12, DI
	ADDQ    R9, DI  // row cursor
	MOVQ    SI, BX  // query cursor
	MOVQ    R8, R11 // dims left in this row
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1

pblk16:
	CMPQ    R11, $16
	JLT     pblk8
	VMOVUPS (DI), Y2
	VMOVUPS 32(DI), Y3
	VFMADD231PS (BX), Y2, Y0
	VFMADD231PS 32(BX), Y3, Y1
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $16, R11
	JMP     pblk16

pblk8:
	CMPQ    R11, $8
	JLT     preduce
	VMOVUPS (DI), Y2
	VFMADD231PS (BX), Y2, Y0
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $8, R11

preduce:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0

	TESTQ  R11, R11
	JE     pstore
ptail:
	VMOVSS (DI), X2
	VFMADD231SS (BX), X2, X0
	ADDQ   $4, DI
	ADDQ   $4, BX
	DECQ   R11
	JNZ    ptail

pstore:
	VMOVSS   X0, (DX)(AX*4)
	VUCOMISS X5, X0 // flags of score ? stop; unordered clears "above"
	JA       pdone
	INCQ     AX
	CMPQ     AX, CX
	JLT      prow

pdone:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET
