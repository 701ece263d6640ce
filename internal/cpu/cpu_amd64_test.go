//go:build amd64 && !purego && linux

package cpu

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestProbeAgreesWithKernel cross-checks the CPUID/XGETBV probe against
// the feature flags the Linux kernel derived from the same registers.
func TestProbeAgreesWithKernel(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	t.Logf("AVX2 = %v, FMA = %v", AVX2, FMA)
	if want := slices.Contains(flags, "avx2"); AVX2 != want {
		t.Errorf("AVX2 = %v, kernel says avx2 = %v", AVX2, want)
	}
	if want := slices.Contains(flags, "fma"); FMA != want {
		t.Errorf("FMA = %v, kernel says fma = %v", FMA, want)
	}
}
