//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAVX2FMA() bool
//
// CPUID.1:ECX must report FMA (bit 12), OSXSAVE (27) and AVX (28), XCR0
// must show the OS saving XMM and YMM state (bits 1 and 2), and
// CPUID.7.0:EBX must report AVX2 (bit 5).
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JCS  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
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

// func dotI8RowsAVX2(dst *int32, q, data *int8, ids *int32, nids, cols int)
//
// dst[j] = Σ_t q[t]·data[ids[j]·cols + t] for j < nids (nids ≥ 1). Bytes
// are sign-extended to int16 (VPMOVSXBW) and multiplied pairwise into
// int32 lanes (VPMADDWD), which is exact on the whole int8 domain: the
// largest pair sum is 2·128² = 2¹⁵. 32 columns per step in two
// accumulators; the last cols mod 32 columns are a scalar loop.
TEXT ·dotI8RowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), R8
	MOVQ q+8(FP), SI
	MOVQ data+16(FP), R9
	MOVQ ids+24(FP), R10
	MOVQ nids+32(FP), R11
	MOVQ cols+40(FP), DX
	MOVQ DX, R12
	ANDQ $~31, R12              // columns the vector body covers

i8row:
	MOVLQSX (R10), DI
	IMULQ   DX, DI
	ADDQ    R9, DI              // DI = &data[id*cols]
	VPXOR   Y0, Y0, Y0
	VPXOR   Y1, Y1, Y1
	XORQ    BX, BX              // column
	CMPQ    BX, R12
	JGE     i8sum

i8body:
	VPMOVSXBW (SI)(BX*1), Y2
	VPMOVSXBW (DI)(BX*1), Y3
	VPMOVSXBW 16(SI)(BX*1), Y4
	VPMOVSXBW 16(DI)(BX*1), Y5
	VPMADDWD  Y3, Y2, Y2
	VPMADDWD  Y5, Y4, Y4
	VPADDD    Y2, Y0, Y0
	VPADDD    Y4, Y1, Y1
	ADDQ      $32, BX
	CMPQ      BX, R12
	JLT       i8body

i8sum:
	VPADDD       Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	CMPQ         BX, DX
	JGE          i8store

i8tail:
	MOVBLSX (SI)(BX*1), CX
	MOVBLSX (DI)(BX*1), R13
	IMULL   R13, CX
	ADDL    CX, AX
	INCQ    BX
	CMPQ    BX, DX
	JLT     i8tail

i8store:
	MOVL AX, (R8)
	ADDQ $4, R8
	ADDQ $4, R10
	DECQ R11
	JNZ  i8row
	VZEROUPPER
	RET

// func dotF32RowsAVX2(dst *float32, q, data *float32, ids *int32, nids, cols int)
//
// The float32 form of dotI8RowsAVX2: 16 columns per step as two
// VFMADD231PS accumulators, the last cols mod 16 columns as scalar FMAs
// in a third, all three summed at the end. The summation order differs
// from dotF32Generic's; both sit inside the γ_n bound, which holds for
// any order, and fused multiply-adds only round less often.
TEXT ·dotF32RowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), R8
	MOVQ q+8(FP), SI
	MOVQ data+16(FP), R9
	MOVQ ids+24(FP), R10
	MOVQ nids+32(FP), R11
	MOVQ cols+40(FP), DX
	MOVQ DX, R12
	ANDQ $~15, R12              // columns the vector body covers

f32row:
	MOVLQSX (R10), DI
	IMULQ   DX, DI
	LEAQ    (R9)(DI*4), DI      // DI = &data[id*cols]
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  X2, X2, X2
	XORQ    BX, BX              // column
	CMPQ    BX, R12
	JGE     f32tailtest

f32body:
	VMOVUPS     (SI)(BX*4), Y3
	VMOVUPS     32(SI)(BX*4), Y4
	VFMADD231PS (DI)(BX*4), Y3, Y0
	VFMADD231PS 32(DI)(BX*4), Y4, Y1
	ADDQ        $16, BX
	CMPQ        BX, R12
	JLT         f32body

f32tailtest:
	CMPQ BX, DX
	JGE  f32sum

f32tail:
	VMOVSS      (SI)(BX*4), X3
	VFMADD231SS (DI)(BX*4), X3, X2
	INCQ        BX
	CMPQ        BX, DX
	JLT         f32tail

f32sum:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VMOVHLPS     X0, X0, X1
	VADDPS       X1, X0, X0
	VMOVSHDUP    X0, X1
	VADDSS       X1, X0, X0
	VADDSS       X2, X0, X0
	VMOVSS       X0, (R8)
	ADDQ         $4, R8
	ADDQ         $4, R10
	DECQ         R11
	JNZ          f32row
	VZEROUPPER
	RET
