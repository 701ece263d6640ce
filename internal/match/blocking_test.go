package match

import (
	"fmt"
	"testing"
)

func blockFixture(t *testing.T) (*Index, *Blocker, []string) {
	t.Helper()
	texts := []string{
		"pulp fiction tarantino willis",
		"sixth sense shyamalan willis",
		"godfather coppola brando",
		"alien scott weaver",
	}
	ids := []string{"t0", "t1", "t2", "t3"}
	vecs := [][]float32{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
	idx, err := NewIndex(ids, vecs, 4)
	if err != nil {
		t.Fatal(err)
	}
	return idx, NewBlocker(texts), texts
}

func TestBlockerCandidates(t *testing.T) {
	_, b, _ := blockFixture(t)
	cands, ok := b.Candidates("a movie with willis")
	if !ok {
		t.Fatal("blocking failed on known token")
	}
	if len(cands) != 2 || cands[0] != 0 || cands[1] != 1 {
		t.Errorf("candidates = %v, want [0 1]", cands)
	}
	if _, ok := b.Candidates("nothing known here zzz"); ok {
		t.Error("unknown query must report !ok")
	}
	if len(b.postings) == 0 {
		t.Error("no tokens indexed")
	}
}

func TestBlockerStemskQueries(t *testing.T) {
	_, b, _ := blockFixture(t)
	// "aliens" stems to "alien" and must hit t3.
	cands, ok := b.Candidates("the aliens attack")
	if !ok || len(cands) != 1 || cands[0] != 3 {
		t.Errorf("stemmed candidates = %v ok=%v", cands, ok)
	}
}

func TestTopKBlockedSubset(t *testing.T) {
	idx, b, _ := blockFixture(t)
	// Query vector favors t2 overall, but the query text only blocks to
	// willis docs (t0, t1), so t2 cannot appear.
	got := idx.TopKBlocked(b, "review mentions willis", []float32{0, 0, 1, 0.5}, 4)
	if len(got) != 2 {
		t.Fatalf("blocked results = %v", got)
	}
	for _, s := range got {
		if s.ID == "t2" || s.ID == "t3" {
			t.Errorf("blocked ranking leaked %s", s.ID)
		}
	}
}

func TestTopKBlockedFallback(t *testing.T) {
	idx, b, _ := blockFixture(t)
	got := idx.TopKBlocked(b, "zzz qqq", []float32{0, 0, 1, 0}, 2)
	if len(got) != 2 || got[0].ID != "t2" {
		t.Errorf("fallback ranking = %v", got)
	}
}

func TestTopKBlockedAgreesOnFullBlock(t *testing.T) {
	// When every target is a candidate, blocked and full rankings agree.
	n := 50
	texts := make([]string, n)
	ids := make([]string, n)
	vecs := make([][]float32, n)
	for i := 0; i < n; i++ {
		texts[i] = fmt.Sprintf("shared token%d", i)
		ids[i] = fmt.Sprintf("d%d", i)
		vecs[i] = []float32{float32(i), 1}
	}
	idx, err := NewIndex(ids, vecs, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBlocker(texts)
	q := []float32{1, 0.1}
	full := idx.TopK(q, 10)
	blocked := idx.TopKBlocked(b, "the shared word", q, 10)
	if len(full) != len(blocked) {
		t.Fatalf("lengths differ: %d vs %d", len(full), len(blocked))
	}
	for i := range full {
		if full[i].ID != blocked[i].ID {
			t.Errorf("rank %d: %s vs %s", i, full[i].ID, blocked[i].ID)
		}
	}
}
