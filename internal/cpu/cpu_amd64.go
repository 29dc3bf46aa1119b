package cpu

// The CPUID leaf 1 ECX bits of FMA3, OSXSAVE and AVX.
const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28

// hasYMM reports AVX and OSXSAVE (CPUID leaf 1 ECX bits 28, 27) with the
// XMM and YMM state enabled in XCR0.
func hasYMM() bool {
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// hasAVX2 reports AVX2 (CPUID leaf 7 EBX bit 5) with the YMM state saved.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 || !hasYMM() {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// hasFMA reports FMA3 (CPUID leaf 1 ECX bit 12) with the YMM state saved.
func hasFMA() bool {
	_, _, c, _ := cpuid(1, 0)
	return c&fma != 0 && hasYMM()
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (lo, hi uint32)
