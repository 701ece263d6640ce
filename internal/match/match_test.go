package match

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func testIndex(t *testing.T) *Index {
	t.Helper()
	ids := []string{"t0", "t1", "t2"}
	vecs := [][]float32{
		{1, 0, 0},
		{0, 1, 0},
		{0.9, 0.1, 0},
	}
	idx, err := NewIndex(ids, vecs, 3)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestTopKOrdering(t *testing.T) {
	idx := testIndex(t)
	got := idx.TopK([]float32{1, 0, 0}, 3)
	if len(got) != 3 {
		t.Fatalf("TopK = %v", got)
	}
	if got[0].ID != "t0" || got[1].ID != "t2" || got[2].ID != "t1" {
		t.Errorf("order = %v %v %v", got[0].ID, got[1].ID, got[2].ID)
	}
	if got[0].Score < got[1].Score || got[1].Score < got[2].Score {
		t.Error("scores not descending")
	}
	if math.Abs(got[0].Score-1) > 1e-5 {
		t.Errorf("best score = %f, want ~1", got[0].Score)
	}
}

func TestTopKTruncates(t *testing.T) {
	idx := testIndex(t)
	if got := idx.TopK([]float32{1, 0, 0}, 2); len(got) != 2 {
		t.Errorf("TopK(2) = %d results", len(got))
	}
	if got := idx.TopK([]float32{1, 0, 0}, 10); len(got) != 3 {
		t.Errorf("TopK(10) = %d results, want all 3", len(got))
	}
	if got := idx.TopK([]float32{1, 0, 0}, 0); got != nil {
		t.Errorf("TopK(0) = %v, want nil", got)
	}
}

func TestTopKZeroQuery(t *testing.T) {
	idx := testIndex(t)
	got := idx.TopK([]float32{0, 0, 0}, 3)
	for _, s := range got {
		if s.Score != 0 {
			t.Errorf("zero query scored %f", s.Score)
		}
	}
}

func TestNilVectorsScoreZero(t *testing.T) {
	idx, err := NewIndex([]string{"a", "b"}, [][]float32{nil, {0, 1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := idx.TopK([]float32{0, 1}, 2)
	if got[0].ID != "b" || got[1].Score != 0 {
		t.Errorf("nil-vector handling wrong: %v", got)
	}
}

func TestNewIndexValidation(t *testing.T) {
	if _, err := NewIndex([]string{"a"}, nil, 2); err == nil {
		t.Error("want error on ids/vecs mismatch")
	}
}

func TestIndexAccessors(t *testing.T) {
	idx := testIndex(t)
	if idx.Len() != 3 || len(idx.IDs()) != 3 {
		t.Error("Len/IDs wrong")
	}
	if s := idx.Score([]float32{1, 0, 0}, 0); math.Abs(s-1) > 1e-5 {
		t.Errorf("Score = %f", s)
	}
	if s := idx.Score([]float32{0, 0, 0}, 0); s != 0 {
		t.Errorf("zero-query Score = %f", s)
	}
}

func TestTieBreakByID(t *testing.T) {
	ids := []string{"z", "a", "m"}
	vecs := [][]float32{{1, 0}, {1, 0}, {1, 0}}
	idx, err := NewIndex(ids, vecs, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := idx.TopK([]float32{1, 0}, 3)
	if got[0].ID != "a" || got[1].ID != "m" || got[2].ID != "z" {
		t.Errorf("tie order = %v", IDsOf(got))
	}
	// With k=2 the kept candidates must be the lexicographically smallest.
	got2 := idx.TopK([]float32{1, 0}, 2)
	if got2[0].ID != "a" || got2[1].ID != "m" {
		t.Errorf("tie order k=2 = %v", IDsOf(got2))
	}
}

func TestTopKCombined(t *testing.T) {
	ids := []string{"x", "y"}
	a, _ := NewIndex(ids, [][]float32{{1, 0}, {0, 1}}, 2)
	b, _ := NewIndex(ids, [][]float32{{0, 1}, {1, 0}}, 2)
	// Query favors "x" in a and "y" in b; equal weights tie them, so ID
	// order decides. Biasing weights flips the winner.
	got, err := a.TopKCombined(b, []float32{1, 0}, []float32{1, 0}, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != "x" {
		t.Errorf("equal-weight winner = %s", got[0].ID)
	}
	got, err = a.TopKCombined(b, []float32{1, 0}, []float32{1, 0}, 0.1, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != "y" {
		t.Errorf("b-weighted winner = %s, want y", got[0].ID)
	}
}

func TestTopKCombinedValidation(t *testing.T) {
	a, _ := NewIndex([]string{"x"}, [][]float32{{1}}, 1)
	b, _ := NewIndex([]string{"x", "y"}, [][]float32{{1}, {1}}, 1)
	if _, err := a.TopKCombined(b, []float32{1}, []float32{1}, 1, 1, 1); err == nil {
		t.Error("want error for size mismatch")
	}
	c, _ := NewIndex([]string{"z"}, [][]float32{{1}}, 1)
	if _, err := a.TopKCombined(c, []float32{1}, []float32{1}, 1, 1, 1); err == nil {
		t.Error("want error for ID mismatch")
	}
	if _, err := a.TopKCombined(nil, []float32{1}, []float32{1}, 1, 1, 1); err == nil {
		t.Error("want error for nil other")
	}
}

func TestTopKFuncAgainstFullSort(t *testing.T) {
	// Property: TopKFunc result equals sorting all scores descending and
	// truncating, for random score assignments, at k on both sides of
	// shortRun.
	f := func(raw []uint8, k8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ids := make([]string, len(raw))
		scores := make([]float64, len(raw))
		for i, r := range raw {
			ids[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
			scores[i] = float64(r % 16) // force ties
		}
		k := int(k8%80) + 1
		got := TopKFunc(ids, func(i int) float64 { return scores[i] }, k)

		type pair struct {
			id string
			s  float64
		}
		all := make([]pair, len(ids))
		for i := range ids {
			all[i] = pair{ids[i], scores[i]}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].s != all[j].s {
				return all[i].s > all[j].s
			}
			return all[i].id < all[j].id
		})
		want := k
		if want > len(all) {
			want = len(all)
		}
		if len(got) != want {
			return false
		}
		for i := 0; i < want; i++ {
			if got[i].ID != all[i].id || got[i].Score != all[i].s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIDsOf(t *testing.T) {
	got := IDsOf([]Scored{{ID: "a"}, {ID: "b"}})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("IDsOf = %v", got)
	}
}
