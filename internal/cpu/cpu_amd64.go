//go:build amd64 && !purego

package cpu

// AVX2 and FMA report that the CPU executes AVX2, respectively FMA3,
// and that the OS saves the YMM state either needs across context
// switches. Both are probed once at start-up.
var AVX2, FMA = detect()

// detect probes CPUID for AVX2 and FMA3 support and XGETBV for OS-level
// YMM state saving — the standard x86 feature-gating dance, done here
// directly so the kernels carry no external dependency.
func detect() (avx2, fma bool) {
	maxLeaf, _, _, _ := cpuidx(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	const (
		osxsaveBit = 1 << 27 // leaf 1 ECX: OS uses XSAVE
		avxBit     = 1 << 28 // leaf 1 ECX: AVX
		fmaBit     = 1 << 12 // leaf 1 ECX: FMA3
		avx2Bit    = 1 << 5  // leaf 7 EBX: AVX2
	)
	_, _, ecx1, _ := cpuidx(1, 0)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false, false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set: the OS restores
	// XMM and YMM registers across context switches.
	if lo, _ := xgetbv0(); lo&6 != 6 {
		return false, false
	}
	_, ebx7, _, _ := cpuidx(7, 0)
	return ebx7&avx2Bit != 0, ecx1&fmaBit != 0
}

// cpuidx executes the CPUID instruction for the given leaf/subleaf.
func cpuidx(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (XCR0).
func xgetbv0() (lo, hi uint32)
