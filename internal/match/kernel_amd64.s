// AVX2/FMA scoring kernels for the match hot path. Each routine scores
// one (normalized) query, or four, against a block of arena rows,
// writing one score per row and query — the selectors consume the
// score buffer in Go. Dimensions are handled generically: a 16-lane main
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

// func dotRows4FMA(arena, q, out *float32, rows, dim, stride int)
//
// out[j*stride+r] = dot(arena[r*dim:(r+1)*dim], q[j*dim:(j+1)*dim]) for
// j in [0, 4), r in [0, rows). Each row chunk is loaded once and
// multiplied into the four queries' accumulator pairs (Y4/Y5, Y6/Y7,
// Y8/Y9, Y10/Y11). The reduction is dotRowsFMA's, transposed: each
// pair is folded to four lanes as there, then three VHADDPS leave query
// j's ((x0+x1)+(x2+x3)) in lane j, and the scalar tail is one lane-wise
// FMA per dim. Every score so carries dotRowsFMA's bits for its query.
TEXT ·dotRows4FMA(SB), NOSPLIT, $0-48
	MOVQ  arena+0(FP), DI
	MOVQ  q+8(FP), SI
	MOVQ  out+16(FP), DX
	MOVQ  rows+24(FP), CX
	MOVQ  dim+32(FP), R8
	MOVQ  stride+40(FP), AX
	TESTQ CX, CX
	JE    qdone
	SHLQ  $2, AX  // out stride in bytes
	MOVQ  R8, R13
	SHLQ  $2, R13 // query stride in bytes

qrow:
	MOVQ   SI, BX           // query 0 cursor
	LEAQ   (SI)(R13*1), R9  // query 1 cursor
	LEAQ   (SI)(R13*2), R10 // query 2 cursor
	LEAQ   (R9)(R13*2), R12 // query 3 cursor
	MOVQ   R8, R11          // dims left in this row
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

qblk16:
	CMPQ        R11, $16
	JLT         qblk8
	VMOVUPS     (DI), Y2
	VMOVUPS     32(DI), Y3
	VFMADD231PS (BX), Y2, Y4
	VFMADD231PS 32(BX), Y3, Y5
	VFMADD231PS (R9), Y2, Y6
	VFMADD231PS 32(R9), Y3, Y7
	VFMADD231PS (R10), Y2, Y8
	VFMADD231PS 32(R10), Y3, Y9
	VFMADD231PS (R12), Y2, Y10
	VFMADD231PS 32(R12), Y3, Y11
	ADDQ        $64, DI
	ADDQ        $64, BX
	ADDQ        $64, R9
	ADDQ        $64, R10
	ADDQ        $64, R12
	SUBQ        $16, R11
	JMP         qblk16

qblk8:
	CMPQ        R11, $8
	JLT         qreduce
	VMOVUPS     (DI), Y2
	VFMADD231PS (BX), Y2, Y4
	VFMADD231PS (R9), Y2, Y6
	VFMADD231PS (R10), Y2, Y8
	VFMADD231PS (R12), Y2, Y10
	ADDQ        $32, DI
	ADDQ        $32, BX
	ADDQ        $32, R9
	ADDQ        $32, R10
	ADDQ        $32, R12
	SUBQ        $8, R11

qreduce:
	VADDPS       Y5, Y4, Y4
	VADDPS       Y7, Y6, Y6
	VADDPS       Y9, Y8, Y8
	VADDPS       Y11, Y10, Y10
	VEXTRACTF128 $1, Y4, X5
	VEXTRACTF128 $1, Y6, X7
	VEXTRACTF128 $1, Y8, X9
	VEXTRACTF128 $1, Y10, X11
	VADDPS       X5, X4, X4
	VADDPS       X7, X6, X6
	VADDPS       X9, X8, X8
	VADDPS       X11, X10, X10
	VHADDPS      X6, X4, X4 // query 0 pair sums, then query 1's
	VHADDPS      X10, X8, X8 // query 2 pair sums, then query 3's
	VHADDPS      X8, X4, X4 // lane j: query j's sum

	TESTQ R11, R11
	JE    qstore

qtail:
	VBROADCASTSS (DI), X2
	VMOVSS       (BX), X3
	VINSERTPS    $0x10, (R9), X3, X3
	VINSERTPS    $0x20, (R10), X3, X3
	VINSERTPS    $0x30, (R12), X3, X3
	VFMADD231PS  X3, X2, X4
	ADDQ         $4, DI
	ADDQ         $4, BX
	ADDQ         $4, R9
	ADDQ         $4, R10
	ADDQ         $4, R12
	DECQ         R11
	JNZ          qtail

qstore:
	VMOVSS     X4, (DX)
	VEXTRACTPS $1, X4, (DX)(AX*1)
	LEAQ       (DX)(AX*2), R9
	VEXTRACTPS $2, X4, (R9)
	VEXTRACTPS $3, X4, (R9)(AX*1)
	ADDQ       $4, DX
	DECQ       CX
	JNZ        qrow

qdone:
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
