package tdmatch

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/tdmatch/tdmatch/internal/match"
)

// Tests for HNSW serving quality and persistence at the model level:
// the graph-searched beam must reach recall@10 >= 0.95 against the
// exact flat ranking on the seed IMDb dataset, the per-side IndexStats
// block must describe the graph, and a v6 snapshot must re-save
// byte-identically after a zero-copy bind.

// flatBaseline returns the exact ranking for a query against the other
// side: a flat index over the model's vectors of that corpus, in corpus
// order.
func (m *Model) flatBaseline(t *testing.T, docID string, k int) []Match {
	t.Helper()
	targets := m.second
	if m.sideOf(docID) == 2 {
		targets = m.first
	}
	ids := targets.IDs()
	vecs := make([][]float32, len(ids))
	for i, id := range ids {
		vecs[i] = m.Vector(id)
	}
	idx, err := match.NewIndex(ids, vecs, m.dim)
	if err != nil {
		t.Fatal(err)
	}
	q := m.Vector(docID)
	if q == nil {
		t.Fatalf("query %s has no vector", docID)
	}
	return idx.TopK(q, k)
}

// TestHNSWRecallOnIMDb is the graph-quality bar on the seed dataset
// with a beam narrow enough that the graph is actually searched (ef 24
// over a 60-row target index; the full-corpus delegation path would
// make this test vacuous).
func TestHNSWRecallOnIMDb(t *testing.T) {
	model := buildIMDbModel(t, func(cfg *Config) {
		cfg.Index = IndexHNSW
		cfg.HNSWM = 8
		cfg.HNSWEf = 24
		cfg.HNSWEfConstruct = 48
	})
	fi, si := model.IndexStats()
	for _, st := range []IndexStats{fi, si} {
		if st.Kind != "hnsw" {
			t.Fatalf("IndexStats kind = %q, want hnsw", st.Kind)
		}
		if st.LiveRows == 0 || st.AvgDegree <= 0 || st.Ef != 24 {
			t.Fatalf("IndexStats does not describe the graph: %+v", st)
		}
	}
	if fi.LiveRows <= 24 {
		t.Fatalf("first side holds %d rows <= ef 24: beam would delegate to the exact scan", fi.LiveRows)
	}
	hits, total := 0, 0
	for _, q := range model.second.IDs() {
		if model.vectors[q] == nil {
			continue
		}
		exact := map[string]struct{}{}
		for _, m := range model.flatBaseline(t, q, 10) {
			exact[m.ID] = struct{}{}
		}
		approx, err := model.TopK(q, 10)
		if err != nil {
			t.Fatalf("TopK(%s): %v", q, err)
		}
		for _, m := range approx {
			if _, ok := exact[m.ID]; ok {
				hits++
			}
		}
		total += len(exact)
	}
	if total == 0 {
		t.Fatal("no queries produced rankings")
	}
	recall := float64(hits) / float64(total)
	t.Logf("HNSW recall@10 on IMDb = %.3f over %d ranked slots", recall, total)
	if recall < 0.95 {
		t.Errorf("HNSW recall@10 = %.3f, want >= 0.95", recall)
	}
}

// TestHNSWV6ResaveByteIdentical pins the determinism contract of the
// graph sections: saving, binding zero-copy from the mapping, and
// saving again must reproduce the snapshot byte for byte — the seeded
// level generator and row-order insertion leave nothing to chance. The
// bound base must borrow its graph from the mapping (no rebuild at
// bind), and mutations must promote copy-on-write, leaving the file
// untouched.
func TestHNSWV6ResaveByteIdentical(t *testing.T) {
	model := buildV6TestModel(t, func(c *Config) {
		c.Index = IndexHNSW
		c.HNSWM = 4
		c.HNSWEf = 8
		c.HNSWEfConstruct = 16
	}, false)
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.v6")
	if err := model.SaveFileV6(pathA); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}

	movies, reviews := fixtureCorpora(t)
	loaded, err := LoadModelFile(pathA, movies, reviews)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := loaded.firstIdx.Base().(*match.HNSW)
	if !ok {
		t.Fatalf("base segment is %T, want *match.HNSW", loaded.firstIdx.Base())
	}
	if !h.Borrowed() {
		t.Error("v6-bound HNSW does not borrow the snapshot's graph sections")
	}
	if want := rankAllMatches(t, model); !reflect.DeepEqual(rankAllMatches(t, loaded), want) {
		t.Error("v6-bound HNSW rankings diverge from the live model")
	}

	pathB := filepath.Join(dir, "b.v6")
	if err := loaded.SaveFileV6(pathB); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("re-saving a v6-bound HNSW model changed the snapshot bytes")
	}

	// Mutations promote on the heap; the mapped file stays pristine.
	if err := loaded.Ingest([]IngestDoc{
		{Side: 2, ID: "reviews:hnsw-cow", Values: []string{"a fresh review of a crime epic"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Remove([]string{"reviews:p0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.TopK("reviews:hnsw-cow", 3); err != nil {
		t.Fatalf("ingested document not servable: %v", err)
	}
	after, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, after) {
		t.Fatal("mutating a v6-bound HNSW model wrote through to the snapshot file")
	}
}
