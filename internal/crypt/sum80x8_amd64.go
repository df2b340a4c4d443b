package crypt

// haveAVX512 reports whether the CPU and the OS support the AVX-512
// instructions sum80x8AVX512 uses: AVX512F (512-bit adds, xors, rotates,
// shuffles, gathers and the 16-bit mask ops), with XSAVE enabled and the
// opmask and full ZMM state in XCR0. It is decided once, at start-up.
var haveAVX512 = detectAVX512()

func detectAVX512() bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		avx512f  = 1 << 16 // CPUID.(7,0):EBX
		zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 {
		return false
	}
	// XCR0 must enable SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state, or
	// the OS does not save the registers the kernel writes.
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx512f != 0
}

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0 (XGETBV with ECX = 0); call only when OSXSAVE is set.
func xgetbv() (eax, edx uint32)

// sum80x8AVX512 sets out[j] to the SipHash-2-4 MAC under *key of the
// 80 bytes at base+off[j], for all eight lanes, as one SIMD pass: lane j
// of Z0–Z3 is lane j's state, and each message word is gathered in place.
// Every lane's 80 bytes must be readable; Sum80x8 checks them.
//
//go:noescape
func sum80x8AVX512(key *Key, base *byte, off *[8]int, out *[8]uint64)
