#include "textflag.h"

// func gather16(dst, src, kpad []float64)
//
// dst[m] = Σ_i src[i]·kpad[len(src)-1-i+m] for m = 0…15, each sum taken in
// ascending i from +0 with a separate multiply and add (VMULPD, VADDPD —
// never FMA: the scalar loop this replaces rounds twice per term, and the
// golden hashes are those sums). Sixteen destinations are four YMM
// accumulators; one source bin is one broadcast and four unaligned loads of
// the kernel, whose pointer walks down as the source index walks up.
// Requires len(dst) == 16 and len(kpad) == len(src)+15.
TEXT ·gather16(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ kpad_base+48(FP), DX
	LEAQ -8(DX)(CX*8), DX // &kpad[len(src)-1]
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ CX, CX
	JZ store

loop:
	VBROADCASTSD (SI), Y4
	VMULPD (DX), Y4, Y5
	VMULPD 32(DX), Y4, Y6
	VMULPD 64(DX), Y4, Y7
	VMULPD 96(DX), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $8, SI
	SUBQ $8, DX
	DECQ CX
	JNZ loop

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func osAVX2() bool
//
// CPUID.1:ECX says the CPU has AVX and the OS uses XSAVE, XCR0 that the OS
// saves the XMM and YMM state, CPUID.7:EBX that the CPU has AVX2.
TEXT ·osAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (27) and AVX (28)
	CMPL CX, $0x18000000
	JNE no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: SSE (1) and AVX (2) state
	CMPL AX, $6
	JNE no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX // AVX2 (5)
	JZ no
	MOVB $1, ret+0(FP)

no:
	RET
