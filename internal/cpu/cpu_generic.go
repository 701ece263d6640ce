//go:build !amd64 || purego

package cpu

// AVX2 and FMA are constant false off amd64 and under the purego tag:
// no assembly kernel is compiled in, so none may be selected.
const AVX2, FMA = false, false
