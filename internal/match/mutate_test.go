package match

import (
	"fmt"
	"reflect"
	"testing"
)

// mutVecs builds n deterministic pseudo-random vectors.
func mutVecs(n, dim int, seed uint64) ([]string, [][]float32) {
	ids := make([]string, n)
	vecs := make([][]float32, n)
	rng := seed
	next := func() float32 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float32(rng%2000)/1000 - 1
	}
	for i := range ids {
		ids[i] = fmt.Sprintf("d%03d", i)
		v := make([]float32, dim)
		for d := range v {
			v[d] = next()
		}
		vecs[i] = v
	}
	return ids, vecs
}

// flatten packs vectors into one row-major arena.
func flatten(vecs [][]float32, dim int) []float32 {
	arena := make([]float32, len(vecs)*dim)
	for i, v := range vecs {
		copy(arena[i*dim:(i+1)*dim], v)
	}
	return arena
}

// TestFlatAppendRemoveMatchesRebuild: a flat index mutated by appends
// and removals must rank every query exactly like an index built fresh
// over the surviving vectors.
func TestFlatAppendRemoveMatchesRebuild(t *testing.T) {
	const dim = 24
	ids, vecs := mutVecs(60, dim, 7)
	idx, err := NewIndex(ids[:40], vecs[:40], dim)
	if err != nil {
		t.Fatal(err)
	}
	fpVirgin := idx.Fingerprint()
	if err := idx.Append(ids[40:], flatten(vecs[40:], dim)); err != nil {
		t.Fatal(err)
	}
	if idx.Fingerprint() == fpVirgin {
		t.Error("append did not change the fingerprint")
	}
	removed := []string{ids[3], ids[17], ids[45], ids[59]}
	fpAfterAppend := idx.Fingerprint()
	if got := idx.Remove(removed); got != len(removed) {
		t.Fatalf("Remove = %d, want %d", got, len(removed))
	}
	if idx.Remove(removed) != 0 {
		t.Error("double remove must be a no-op")
	}
	if idx.Fingerprint() == fpAfterAppend {
		t.Error("remove did not change the fingerprint")
	}
	if idx.Len() != 56 {
		t.Fatalf("Len = %d, want 56 live", idx.Len())
	}

	dead := map[string]bool{}
	for _, id := range removed {
		dead[id] = true
	}
	var survIDs []string
	var survVecs [][]float32
	for i, id := range ids {
		if !dead[id] {
			survIDs = append(survIDs, id)
			survVecs = append(survVecs, vecs[i])
		}
	}
	fresh, err := NewIndex(survIDs, survVecs, dim)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range vecs {
		for _, k := range []int{1, 5, 56, 100} {
			got := idx.TopK(q, k)
			want := fresh.TopK(q, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d k=%d: mutated index diverged from rebuild\ngot:  %v\nwant: %v", qi, k, got, want)
			}
		}
	}
	// Batch path agrees with itself and the rebuild.
	gotBatch := idx.TopKBatch(vecs[:10], 8)
	wantBatch := fresh.TopKBatch(vecs[:10], 8)
	if !reflect.DeepEqual(gotBatch, wantBatch) {
		t.Fatal("mutated batch kernel diverged from rebuild")
	}

	// A removed ID can be re-appended and then surfaces again.
	if err := idx.Append([]string{ids[3]}, flatten(vecs[3:4], dim)); err != nil {
		t.Fatal(err)
	}
	top := idx.TopK(vecs[3], 1)
	if len(top) != 1 || top[0].ID != ids[3] {
		t.Fatalf("re-appended doc not ranked first for its own vector: %v", top)
	}
	// Appending a live duplicate fails.
	if err := idx.Append([]string{ids[5]}, flatten(vecs[5:6], dim)); err == nil {
		t.Error("append of live duplicate must fail")
	}
}

// TestCloneIsolation: mutating a clone of a flat index must not change
// the original's rankings or fingerprint, nor those of an HNSW graph
// built over the original.
func TestCloneIsolation(t *testing.T) {
	const dim = 12
	ids, vecs := mutVecs(30, dim, 5)
	flat, err := NewIndex(ids[:20], vecs[:20], dim)
	if err != nil {
		t.Fatal(err)
	}
	hnsw := NewHNSW(flat, HNSWOptions{M: 4, Seed: 1})

	cf := flat.Clone()

	wantTop := flat.TopK(vecs[0], 5)
	wantHNSWTop := hnsw.TopK(vecs[0], 5)
	wantFP := []uint64{flat.Fingerprint(), hnsw.Fingerprint()}

	if err := cf.Append(ids[20:25], flatten(vecs[20:25], dim)); err != nil {
		t.Fatal(err)
	}
	if cf.Remove([]string{ids[1]}) != 1 {
		t.Fatal("clone remove failed")
	}

	if got := flat.TopK(vecs[0], 5); !reflect.DeepEqual(got, wantTop) {
		t.Error("original flat rankings changed after clone mutation")
	}
	if got := hnsw.TopK(vecs[0], 5); !reflect.DeepEqual(got, wantHNSWTop) {
		t.Error("original HNSW rankings changed after clone mutation")
	}
	if flat.Fingerprint() != wantFP[0] || hnsw.Fingerprint() != wantFP[1] {
		t.Error("original fingerprints changed after clone mutation")
	}
	if flat.Len() != 20 || hnsw.Len() != 20 {
		t.Errorf("original Len = %d flat, %d HNSW; want 20", flat.Len(), hnsw.Len())
	}
}

// TestRemoveBeyondK: removing enough documents that k exceeds the live
// count must shrink rankings instead of surfacing tombstones, on every
// path including blocking and TopKCombined.
func TestRemoveBeyondK(t *testing.T) {
	const dim = 8
	ids, vecs := mutVecs(6, dim, 9)
	idx, err := NewIndex(ids, vecs, dim)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewIndex(ids, vecs, dim)
	if err != nil {
		t.Fatal(err)
	}
	idx.Remove(ids[:4])
	got := idx.TopK(vecs[0], 6)
	if len(got) != 2 {
		t.Fatalf("TopK over 2 live docs returned %d results: %v", len(got), got)
	}
	for _, s := range got {
		if s.ID == ids[0] || s.ID == ids[1] || s.ID == ids[2] || s.ID == ids[3] {
			t.Fatalf("tombstoned doc surfaced: %v", got)
		}
	}
	comb, err := idx.TopKCombined(other, vecs[0], vecs[0], 0.5, 0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(comb) != 2 {
		t.Fatalf("TopKCombined over 2 live docs returned %d results: %v", len(comb), comb)
	}
}
