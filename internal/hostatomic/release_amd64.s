//go:build amd64 && !race

#include "textflag.h"

// An x86-64 store is a release store (TSO): a plain MOV.

TEXT ·StoreRel64(SB), NOSPLIT, $0-16
	MOVQ	p+0(FP), AX
	MOVQ	v+8(FP), BX
	MOVQ	BX, (AX)
	RET

TEXT ·StoreRel32(SB), NOSPLIT, $0-12
	MOVQ	p+0(FP), AX
	MOVL	v+8(FP), BX
	MOVL	BX, (AX)
	RET
