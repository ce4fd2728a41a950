//go:build amd64

package f64

// cpuid and xgetbv are tiny assembly shims (cpu_amd64.s); the standard
// library's internal/cpu is not importable and this repository adds no
// dependencies, so feature detection is done directly.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// useAsm gates the AVX2 kernel bodies. The vector kernels are written
// against AVX2 (256-bit doubles plus register-source broadcasts), and
// the exp/tanh widenings follow the standard library's FMA-based
// assembly, so FMA must be present too. When any piece is missing the
// pure-Go kernels run instead — same bits, fewer lanes.
var useAsm = detectAsm()

func detectAsm() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	// The OS must have enabled XMM and YMM state saving (XCR0 bits 1-2)
	// for AVX registers to survive context switches.
	lo, _ := xgetbv()
	if lo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return b7&avx2Bit != 0
}

// Accelerated reports whether the AVX2 kernel bodies are active. It
// only describes the host (the benchmark ledger's fingerprint records
// it): every kernel dispatches internally, and no caller picks a path
// by it.
func Accelerated() bool { return useAsm }

// useAVX512 additionally gates the 512-bit widenings of the bulk
// kernels. They only change vector width, never per-element operation
// order, so they stay bit-identical to the AVX2 and Go bodies.
var useAVX512 = useAsm && detectAVX512()

func detectAVX512() bool {
	// The OS must save the opmask and ZMM register state (XCR0 bits 5-7)
	// in addition to XMM/YMM.
	lo, _ := xgetbv()
	if lo&0xe6 != 0xe6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx512fBit = 1 << 16
	return b7&avx512fBit != 0
}
