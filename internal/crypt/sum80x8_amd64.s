#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// SIPROUND is one SipRound on the eight lanes of v0..v3 = Z0..Z3.
#define SIPROUND \
	VPADDQ  Z1, Z0, Z0;   \
	VPROLQ  $13, Z1, Z1;  \
	VPXORQ  Z0, Z1, Z1;   \
	VPROLQ  $32, Z0, Z0;  \
	VPADDQ  Z3, Z2, Z2;   \
	VPROLQ  $16, Z3, Z3;  \
	VPXORQ  Z2, Z3, Z3;   \
	VPADDQ  Z3, Z0, Z0;   \
	VPROLQ  $21, Z3, Z3;  \
	VPXORQ  Z0, Z3, Z3;   \
	VPADDQ  Z1, Z2, Z2;   \
	VPROLQ  $17, Z1, Z1;  \
	VPXORQ  Z2, Z1, Z1;   \
	VPROLQ  $32, Z2, Z2

// ABSORB gathers message word disp/8 of every lane into Z4 (base SI, lane
// byte offsets Z7) and absorbs it: v3 ^= m, two SipRounds, v0 ^= m. The
// gather clears its mask, so K1 is set to all ones before each one.
#define ABSORB(disp) \
	KXNORW     K1, K1, K1;          \
	VPGATHERQQ disp(SI)(Z7*1), K1, Z4; \
	VPXORQ     Z4, Z3, Z3;          \
	SIPROUND;                       \
	SIPROUND;                       \
	VPXORQ     Z4, Z0, Z0

// func sum80x8AVX512(key *Key, base *byte, off *[8]int, out *[8]uint64)
TEXT ·sum80x8AVX512(SB), NOSPLIT, $0-32
	MOVQ key+0(FP), AX
	MOVQ base+8(FP), SI
	MOVQ off+16(FP), BX
	MOVQ out+24(FP), DI

	VMOVDQU64 (BX), Z7

	// v0 = k0 ^ "somepseu", v1 = k1 ^ "dorandom",
	// v2 = k0 ^ "lygenera", v3 = k1 ^ "tedbytes".
	VPBROADCASTQ 0(AX), Z4
	VPBROADCASTQ 8(AX), Z5
	MOVQ         $0x736f6d6570736575, R8
	VPBROADCASTQ R8, Z0
	VPXORQ       Z4, Z0, Z0
	MOVQ         $0x646f72616e646f6d, R8
	VPBROADCASTQ R8, Z1
	VPXORQ       Z5, Z1, Z1
	MOVQ         $0x6c7967656e657261, R8
	VPBROADCASTQ R8, Z2
	VPXORQ       Z4, Z2, Z2
	MOVQ         $0x7465646279746573, R8
	VPBROADCASTQ R8, Z3
	VPXORQ       Z5, Z3, Z3

	ABSORB(0)
	ABSORB(8)
	ABSORB(16)
	ABSORB(24)
	ABSORB(32)
	ABSORB(40)
	ABSORB(48)
	ABSORB(56)
	ABSORB(64)
	ABSORB(72)

	// The final block of an 80-byte message is its length in the top byte.
	MOVQ         $0x5000000000000000, R8
	VPBROADCASTQ R8, Z6
	VPXORQ       Z6, Z3, Z3
	SIPROUND
	SIPROUND
	VPXORQ       Z6, Z0, Z0

	MOVQ         $0xff, R8
	VPBROADCASTQ R8, Z6
	VPXORQ       Z6, Z2, Z2
	SIPROUND
	SIPROUND
	SIPROUND
	SIPROUND

	// out = v0 ^ v1 ^ v2 ^ v3
	VPXORQ    Z1, Z0, Z0
	VPXORQ    Z3, Z2, Z2
	VPXORQ    Z2, Z0, Z0
	VMOVDQU64 Z0, (DI)
	VZEROUPPER
	RET
