//go:build amd64 && !purego

#include "textflag.h"

// func cpuidx(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidx(SB), NOSPLIT, $0-24
	MOVL  leaf+0(FP), AX
	MOVL  sub+4(FP), CX
	CPUID
	MOVL  AX, eax+8(FP)
	MOVL  BX, ebx+12(FP)
	MOVL  CX, ecx+16(FP)
	MOVL  DX, edx+20(FP)
	RET

// func xgetbv0() (lo, hi uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL   CX, CX
	XGETBV
	MOVL   AX, lo+0(FP)
	MOVL   DX, hi+4(FP)
	RET
