package match

import "testing"

// fpIndex builds a small flat index for fingerprint tests.
func fpIndex(t *testing.T, n, dim int) *Index {
	t.Helper()
	ids := make([]string, n)
	vecs := make([][]float32, n)
	for i := range ids {
		ids[i] = string(rune('a' + i))
		v := make([]float32, dim)
		v[i%dim] = 1
		vecs[i] = v
	}
	idx, err := NewIndex(ids, vecs, dim)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestFingerprintDistinguishesConfigurations(t *testing.T) {
	flat := fpIndex(t, 8, 4)
	if got, want := flat.Fingerprint(), fpIndex(t, 8, 4).Fingerprint(); got != want {
		t.Errorf("equal flat configurations disagree: %#x vs %#x", got, want)
	}
	other := fpIndex(t, 9, 4)
	if flat.Fingerprint() == other.Fingerprint() {
		t.Error("flat fingerprint ignores corpus size")
	}

	// Every kind tag must keep the kinds pairwise disjoint over the same
	// flat: a cache keyed on the fingerprint must never serve one kind's
	// results for another.
	hnsw := NewHNSW(flat, HNSWOptions{Seed: 1})
	fps := map[string]uint64{
		"flat": flat.Fingerprint(),
		"hnsw": hnsw.Fingerprint(),
	}
	seen := map[uint64]string{}
	for kind, fp := range fps {
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s and %s fingerprints collide: %#x", kind, prev, fp)
		}
		seen[fp] = kind
	}
	if NewHNSW(flat, HNSWOptions{Seed: 1}).Fingerprint() != hnsw.Fingerprint() {
		t.Error("equal HNSW configurations disagree")
	}
}
