// Package cpu is the one place this module probes the processor: the
// assembly kernels of internal/match (AVX2 + FMA3 scoring) and
// internal/embed (AVX2 negative-sampling step) gate on its two flags
// instead of each carrying a copy of the CPUID/XGETBV sequence. Off
// amd64, and under the purego build tag, both flags are constant false
// and every caller takes its portable Go path.
package cpu
