package fnv1a

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// serial is the reference the kernel is held to: the standard library's
// FNV-1a, one payload at a time.
func serial(payloads [][]byte) []uint64 {
	out := make([]uint64, len(payloads))
	for i, p := range payloads {
		h := fnv.New64a()
		h.Write(p)
		out[i] = h.Sum64()
	}
	return out
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestSumAndUpdateMatchStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 1000} {
		b := randBytes(rng, n)
		want := serial([][]byte{b})[0]
		if got := Sum(b); got != want {
			t.Errorf("Sum over %d bytes = %#x, want %#x", n, got, want)
		}
		if got := Update(Sum(b[:n/2]), b[n/2:]); got != want {
			t.Errorf("Update split at %d of %d bytes = %#x, want %#x", n/2, n, got, want)
		}
	}
	if Sum(nil) != Offset {
		t.Errorf("Sum(nil) = %#x, want the offset basis", Sum(nil))
	}
}

// TestFNV1aSectionsMatchesSerial holds Sums to the serial digest of
// every payload across the shapes that exercise its lane bookkeeping:
// fewer payloads than lanes, empty lanes, ties, and a long payload that
// outlives a queue of short ones.
func TestFNV1aSectionsMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lengths := func(ns ...int) [][]byte {
		out := make([][]byte, len(ns))
		for i, n := range ns {
			if n >= 0 {
				out[i] = randBytes(rng, n)
			}
		}
		return out
	}
	cases := map[string][][]byte{
		"nil slice":               nil,
		"nil payloads":            {nil, nil, nil, nil},
		"empty payloads":          lengths(0, 0, 0, 0, 0),
		"one byte":                lengths(1),
		"one byte each":           lengths(1, 1, 1, 1, 1, 1, 1),
		"nil among bytes":         lengths(-1, 5, -1, 9, 0, 1),
		"around 63/64":            lengths(62, 63, 64, 65, 63, 64, 127, 128, 129),
		"equal lengths":           lengths(64, 64, 64, 64, 64, 64),
		"one long, many short":    lengths(append([]int{100_000}, repeat(17, 40)...)...),
		"two long, many short":    lengths(append([]int{50_000, 49_999}, repeat(3, 30)...)...),
		"descending":              lengths(900, 700, 500, 300, 100, 50, 10, 1, 0),
		"ascending":               lengths(0, 1, 10, 50, 100, 300, 500, 700, 900),
		"serve_scan shape, small": lengths(13_800, 9_200, 4_600, 4_600, 1_900, 1_300, 300, 120, 64, 40, 8),
	}
	for n := 0; n <= 9; n++ {
		ns := make([]int, n)
		for i := range ns {
			ns[i] = rng.Intn(200)
		}
		cases[fmt.Sprintf("%d payloads", n)] = lengths(ns...)
	}
	for name, payloads := range cases {
		got, want := Sums(payloads), serial(payloads)
		if len(got) != len(want) {
			t.Fatalf("%s: %d sums for %d payloads", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: payload %d (%d bytes): sum %#x, want %#x", name, i, len(payloads[i]), got[i], want[i])
			}
		}
	}
}

func repeat(n, times int) []int {
	out := make([]int, times)
	for i := range out {
		out[i] = n
	}
	return out
}

// FuzzFNV1aSections cuts data into payloads at fuzzed points and holds
// Sums to the serial digest of each. cuts is read as little-endian
// uint16 offsets into data, so payloads may be empty, tied or nested in
// any order the fuzzer finds.
func FuzzFNV1aSections(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), []byte{3, 0, 9, 0, 9, 0, 40, 0})
	f.Add(make([]byte, 200), []byte{100, 0, 0, 0, 199, 0})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var payloads [][]byte
		prev := 0
		for len(cuts) >= 2 {
			at := int(binary.LittleEndian.Uint16(cuts))
			cuts = cuts[2:]
			if len(data) > 0 {
				at %= len(data) + 1
			} else {
				at = 0
			}
			if at < prev {
				payloads = append(payloads, data[at:prev])
			} else {
				payloads = append(payloads, data[prev:at])
			}
			prev = at
		}
		payloads = append(payloads, data[prev:])
		got, want := Sums(payloads), serial(payloads)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("payload %d of %d (%d bytes): sum %#x, want %#x", i, len(payloads), len(payloads[i]), got[i], want[i])
			}
		}
	})
}

// BenchmarkFNV1aSections digests payloads shaped like the serve_scan
// snapshot's sections (term arena, document arena, two segment arenas,
// then string tables and metadata), serially and through Sums.
func BenchmarkFNV1aSections(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var payloads [][]byte
	total := 0
	for _, n := range []int{13_800_000, 9_200_000, 4_600_000, 4_600_000, 190_000, 130_000, 130_000, 70_000, 70_000, 1_000, 200} {
		payloads = append(payloads, randBytes(rng, n))
		total += n
	}
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(total))
		for i := 0; i < b.N; i++ {
			for _, p := range payloads {
				benchSink ^= Sum(p)
			}
		}
	})
	b.Run("sums", func(b *testing.B) {
		b.SetBytes(int64(total))
		for i := 0; i < b.N; i++ {
			benchSink ^= Sums(payloads)[0]
		}
	})
}

// benchSink keeps the benchmarked digests live.
var benchSink uint64
