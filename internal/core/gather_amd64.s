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

// func mixture8(sums *[8]float64, w []float64, rows *[8]*float64)
//
// sums[n] = Σ_j w[j]·rows[n][j] for the eight probes n, j = 0…len(w)-1,
// each sum taken in ascending j from +0 with a separate multiply and add
// (VMULPD, VADDPD — never FMA: the scalar loop this replaces rounds twice
// per term). A YMM lane is a probe: per block of four bins, each group of
// four probes is loaded as 2×2 halves ([a0 a1 c0 c1], [b0 b1 d0 d1], …) and
// unpacked so one register holds one bin of all four, which is multiplied
// by that bin's broadcast weight and added into the group's accumulator,
// bins in ascending order.
// Requires len(w) a positive multiple of 4 and len(w) readable entries
// behind every rows[n].
TEXT ·mixture8(SB), NOSPLIT, $0-40
	MOVQ sums+0(FP), DI
	MOVQ w_base+8(FP), SI
	MOVQ w_len+16(FP), CX
	MOVQ rows+32(FP), DX
	MOVQ 0(DX), R8
	MOVQ 8(DX), R9
	MOVQ 16(DX), R10
	MOVQ 24(DX), R11
	MOVQ 32(DX), R12
	MOVQ 40(DX), R13
	MOVQ 48(DX), AX
	MOVQ 56(DX), BX
	SHLQ $3, CX // bytes of w
	XORQ DX, DX // byte offset of the block
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

block:
	VBROADCASTSD 0(SI)(DX*1), Y2
	VBROADCASTSD 8(SI)(DX*1), Y3
	VBROADCASTSD 16(SI)(DX*1), Y4
	VBROADCASTSD 24(SI)(DX*1), Y5

	// Probes 0–3 (rows a…d in R8…R11) into Y0.
	VMOVUPD 0(R8)(DX*1), X6
	VINSERTF128 $1, 0(R10)(DX*1), Y6, Y6 // a0 a1 c0 c1
	VMOVUPD 0(R9)(DX*1), X7
	VINSERTF128 $1, 0(R11)(DX*1), Y7, Y7 // b0 b1 d0 d1
	VMOVUPD 16(R8)(DX*1), X8
	VINSERTF128 $1, 16(R10)(DX*1), Y8, Y8 // a2 a3 c2 c3
	VMOVUPD 16(R9)(DX*1), X9
	VINSERTF128 $1, 16(R11)(DX*1), Y9, Y9 // b2 b3 d2 d3
	VUNPCKLPD Y7, Y6, Y10                  // a0 b0 c0 d0
	VUNPCKHPD Y7, Y6, Y11                  // a1 b1 c1 d1
	VUNPCKLPD Y9, Y8, Y12                  // a2 b2 c2 d2
	VUNPCKHPD Y9, Y8, Y13                  // a3 b3 c3 d3
	VMULPD Y2, Y10, Y10
	VADDPD Y10, Y0, Y0
	VMULPD Y3, Y11, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y4, Y12, Y12
	VADDPD Y12, Y0, Y0
	VMULPD Y5, Y13, Y13
	VADDPD Y13, Y0, Y0

	// Probes 4–7 (R12, R13, AX, BX) into Y1.
	VMOVUPD 0(R12)(DX*1), X6
	VINSERTF128 $1, 0(AX)(DX*1), Y6, Y6
	VMOVUPD 0(R13)(DX*1), X7
	VINSERTF128 $1, 0(BX)(DX*1), Y7, Y7
	VMOVUPD 16(R12)(DX*1), X8
	VINSERTF128 $1, 16(AX)(DX*1), Y8, Y8
	VMOVUPD 16(R13)(DX*1), X9
	VINSERTF128 $1, 16(BX)(DX*1), Y9, Y9
	VUNPCKLPD Y7, Y6, Y10
	VUNPCKHPD Y7, Y6, Y11
	VUNPCKLPD Y9, Y8, Y12
	VUNPCKHPD Y9, Y8, Y13
	VMULPD Y2, Y10, Y10
	VADDPD Y10, Y1, Y1
	VMULPD Y3, Y11, Y11
	VADDPD Y11, Y1, Y1
	VMULPD Y4, Y12, Y12
	VADDPD Y12, Y1, Y1
	VMULPD Y5, Y13, Y13
	VADDPD Y13, Y1, Y1

	ADDQ $32, DX
	CMPQ DX, CX
	JB block

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
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
