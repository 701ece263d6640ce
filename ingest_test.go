package tdmatch

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/tdmatch/tdmatch/internal/datasets"
	"github.com/tdmatch/tdmatch/internal/metrics"
)

// ingestTestConfig is smallConfig at Workers 1: the ingest tests run
// under -race in CI and hogwild training is deliberately racy, so they
// train serially (like the serving tests) and exercise concurrency at
// the serving layer instead.
func ingestTestConfig() Config {
	cfg := smallConfig()
	cfg.Workers = 1
	return cfg
}

// ingestDocOf converts a live document back into its IngestDoc form —
// the re-ingest half of the remove+ingest parity tests.
func ingestDocOf(m *Model, id string) IngestDoc {
	side := m.sideOf(id)
	c := m.first.c
	if side == 2 {
		c = m.second.c
	}
	doc, ok := c.Doc(id)
	if !ok {
		panic("ingestDocOf: unknown document " + id)
	}
	out := IngestDoc{Side: side, ID: id, Parent: doc.Parent}
	for _, v := range doc.Values {
		out.Values = append(out.Values, v.Text)
	}
	return out
}

func TestIngestWarmAddsServableDocument(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, ingestTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	err = model.Ingest([]IngestDoc{
		{Side: 2, ID: "reviews:new", Values: []string{"Tarantino crime dialogue with Willis in fiction"}},
		{Side: 1, ID: "movies:new", Values: []string{"Reservoir Dogs", "Tarantino", "Harvey Keitel", "R", "Crime"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if model.Staleness() != 2 {
		t.Errorf("staleness = %d, want 2", model.Staleness())
	}
	if model.Vector("reviews:new") == nil || model.Vector("movies:new") == nil {
		t.Fatal("ingested documents have no embedding")
	}
	// The new review must be servable as a query...
	matches, err := model.TopK("reviews:new", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 5 {
		t.Fatalf("TopK for ingested doc returned %d matches", len(matches))
	}
	// ...and as a target: with k covering the whole movie side it must
	// appear in a review's ranking.
	all, err := model.TopK("reviews:p0", model.first.Len())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, mt := range all {
		if mt.ID == "movies:new" {
			found = true
		}
	}
	if !found {
		t.Error("ingested movie absent from a corpus-covering ranking")
	}
	// The batch path keeps working after the mutation.
	for _, res := range model.TopKBatch([]string{"reviews:new", "movies:new"}, 3) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	// Validation failures leave the model untouched.
	if err := model.Ingest([]IngestDoc{{Side: 3, ID: "x"}}); err == nil {
		t.Error("side 3 must be rejected")
	}
	if err := model.Ingest([]IngestDoc{{Side: 1, ID: "movies:new"}}); err == nil {
		t.Error("duplicate ID must be rejected")
	}
	if err := model.Ingest([]IngestDoc{{Side: 1, ID: ""}}); err == nil {
		t.Error("empty ID must be rejected")
	}
	if err := model.Ingest([]IngestDoc{{Side: 1, ID: "movies:wide", Values: make([]string, 9)}}); err == nil {
		t.Error("too many table values must be rejected")
	}
	// IDs become graph labels at the next Compact — colliding with a
	// table attribute label is rejected before anything mutates.
	if err := model.Ingest([]IngestDoc{{Side: 1, ID: "movies/title", Values: []string{"x"}}}); err == nil {
		t.Error("attribute-label collision must be rejected")
	}
	if _, ok := model.first.c.Doc("movies/title"); ok {
		t.Error("rejected collision doc leaked into the corpus")
	}
}

// TestIngestRollsBackPartialBatch: a mid-batch corpus append failure
// (only the corpus can reject a bad taxonomy parent) must leave no
// trace of the earlier documents of the batch.
func TestIngestRollsBackPartialBatch(t *testing.T) {
	tax, err := NewTaxonomy("tax", []TaxonomyNode{
		{ID: "root", Text: "financial audit"},
		{ID: "child", Text: "risk assessment", Parent: "root"},
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := NewText("docs", []string{"the audit assessed financial risk"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Build(tax, docs, ingestTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	err = model.Ingest([]IngestDoc{
		{Side: 1, ID: "ok", Values: []string{"compliance"}, Parent: "root"},
		{Side: 1, ID: "bad", Values: []string{"orphan"}, Parent: "nosuch"},
	})
	if err == nil {
		t.Fatal("unknown parent must be rejected")
	}
	if _, ok := model.first.c.Doc("ok"); ok {
		t.Error("failed batch left its earlier document in the corpus")
	}
	if model.Staleness() != 0 {
		t.Errorf("failed batch bumped staleness to %d", model.Staleness())
	}
	// The batch succeeds once corrected, proving no stale leftovers.
	if err := model.Ingest([]IngestDoc{
		{Side: 1, ID: "ok", Values: []string{"compliance"}, Parent: "root"},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestIngestRejectsAttributeLabelID: a document ID equal to a table
// attribute label ("<corpus name>/<column>") would collide with the
// attribute node when the next Compact builds the graph, and a WAL
// replaying the ingest would repeat the failure on every restart. Built
// and snapshot-loaded models reject it alike, leave their corpora
// untouched, and compact afterwards.
func TestIngestRejectsAttributeLabelID(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	built, err := Build(movies, reviews, ingestTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.SaveV6(&buf); err != nil {
		t.Fatal(err)
	}
	m2, r2 := fixtureCorpora(t)
	loaded, err := LoadModel(&buf, m2, r2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model *Model
	}{{"built", built}, {"loaded", loaded}} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.model
			for _, d := range []IngestDoc{
				{Side: 1, ID: "movies/title", Values: []string{"Reservoir Dogs"}},
				{Side: 2, ID: "movies/genre", Values: []string{"a Tarantino crime story"}},
			} {
				if err := m.Ingest([]IngestDoc{d}); err == nil {
					t.Errorf("ingest of %q succeeded, want a collision error", d.ID)
				}
				if m.sideOf(d.ID) != 0 {
					t.Errorf("rejected document %q leaked into a corpus", d.ID)
				}
			}
			// A label-shaped ID that names no column is an ordinary ID.
			if err := m.Ingest([]IngestDoc{{Side: 2, ID: "movies/plot", Values: []string{"a Tarantino crime story"}}}); err != nil {
				t.Fatal(err)
			}
			if err := m.Compact(); err != nil {
				t.Fatalf("Compact after the rejected ingests: %v", err)
			}
			if _, err := m.TopK("movies/plot", 2); err != nil {
				t.Errorf("ingested document does not answer after Compact: %v", err)
			}
		})
	}
}

// TestIngestFoldBitIdenticalAfterRoundTrip: the documents a Build folds
// in get bit for bit the vectors its v6 reloads, mapped and streamed onto
// the heap, give them, so the term table a load adopts in place is the
// table the build gathered.
func TestIngestFoldBitIdenticalAfterRoundTrip(t *testing.T) {
	built := persistFixtureModel(t)
	path := filepath.Join(t.TempDir(), "m.v6")
	if err := built.SaveFileV6(path); err != nil {
		t.Fatal(err)
	}
	docs := []IngestDoc{
		{Side: 2, ID: "reviews:fold", Values: []string{"Willis returns in a Tarantino crime sequel"}},
		{Side: 1, ID: "movies:fold", Values: []string{"Die Hard", "McTiernan", "Bruce Willis", "R", "Action"}},
	}
	if err := built.Ingest(docs); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaders := map[string]func(first, second *Corpus) (*Model, error){
		"mmap": func(first, second *Corpus) (*Model, error) { return LoadModelFile(path, first, second) },
		"heap": func(first, second *Corpus) (*Model, error) { return LoadModel(bytes.NewReader(raw), first, second) },
	}
	sameBits := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
	for mode, load := range loaders {
		movies, reviews := fixtureCorpora(t)
		loaded, err := load(movies, reviews)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Ingest(docs); err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			want, got := built.Vector(d.ID), loaded.Vector(d.ID)
			if want == nil || !slices.EqualFunc(want, got, sameBits) {
				t.Errorf("%s: %s folds in as %v after the round trip, %v before", mode, d.ID, got, want)
			}
		}
	}
}

// TestCloneIngestLeavesOriginal pins clone isolation on the ingest path:
// an Ingest on a clone leaves the original's term vectors bit for bit
// as they were, since the serving layer saves and queries the original
// while its clone mutates.
func TestCloneIngestLeavesOriginal(t *testing.T) {
	model := persistFixtureModel(t)
	// termVectors returns the live table: copy it, or the comparison
	// below would read one slice twice.
	ids, live := model.termVectors()
	ids, before := slices.Clone(ids), slices.Clone(live)
	if len(before) == 0 {
		t.Fatal("built model has no term vectors")
	}
	work := model.clone()
	if err := work.Ingest([]IngestDoc{
		{Side: 2, ID: "reviews:clone", Values: []string{"Willis returns in a Tarantino crime sequel"}},
		{Side: 1, ID: "movies:clone", Values: []string{"Die Hard", "McTiernan", "Bruce Willis", "R", "Action"}},
	}); err != nil {
		t.Fatal(err)
	}
	afterIDs, after := model.termVectors()
	if !slices.Equal(ids, afterIDs) {
		t.Fatal("an ingest on a clone changed the original's term set")
	}
	changed := 0
	for i := range before {
		if math.Float32bits(before[i]) != math.Float32bits(after[i]) {
			changed++
		}
	}
	if changed > 0 {
		t.Errorf("an ingest on a clone changed %d of the original's %d term-vector floats", changed, len(before))
	}
	if model.sideOf("reviews:clone") != 0 || model.Vector("reviews:clone") != nil {
		t.Error("the clone's document leaked into the original")
	}
}

// TestIngestHeldOutQualityOnIMDb is the quality bar of fold-in ingest on
// documents no training saw: IMDb is built without every 10th query
// review, those reviews are ingested one per call, and their rankings
// are scored against ground truth — after the ingest, and again after
// Compact retrains over them.
func TestIngestHeldOutQualityOnIMDb(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s, err := datasets.IMDb(datasets.IMDbConfig{
				Seed: seed, Movies: 60, WithTitle: true, GeneralSentences: 150,
			})
			if err != nil {
				t.Fatal(err)
			}
			var held []string
			var docs []IngestDoc
			for i, q := range s.Queries {
				if i%10 != 0 {
					continue
				}
				doc, ok := s.Second.Doc(q)
				if !ok {
					t.Fatalf("query %s is not a review", q)
				}
				held = append(held, q)
				docs = append(docs, IngestDoc{Side: 2, ID: q, Values: []string{doc.Text()}})
			}
			s.Second.RemoveBatch(held)
			model, err := Build(&Corpus{c: s.First}, &Corpus{c: s.Second}, ingestTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range docs {
				if err := model.Ingest([]IngestDoc{d}); err != nil {
					t.Fatal(err)
				}
			}
			// MRR over the top 10, as the benchmark's quality metric scores
			// it; a held-out review that ranks nothing counts with
			// reciprocal rank 0.
			heldMRR := func() float64 {
				results := make(map[string][]string, len(held))
				for _, q := range held {
					matches, _ := model.TopK(q, 10)
					results[q] = nil
					for _, mt := range matches {
						results[q] = append(results[q], mt.ID)
					}
				}
				return metrics.EvaluateRanking(results, s.Truth, nil).MRR
			}
			ingested := heldMRR()
			if err := model.Compact(); err != nil {
				t.Fatal(err)
			}
			compacted := heldMRR()
			t.Logf("held-out MRR over %d reviews: %.3f after ingest, %.3f after Compact", len(held), ingested, compacted)
			if ingested < 0.5 {
				t.Errorf("held-out MRR after ingest = %.3f, want >= 0.5", ingested)
			}
			if compacted < 0.85 {
				t.Errorf("held-out MRR after Compact = %.3f, want >= 0.85", compacted)
			}
		})
	}
}

func TestRemoveDeletesDocument(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, ingestTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Remove([]string{"reviews:p0", "movies:t3"}); err != nil {
		t.Fatal(err)
	}
	if model.Staleness() != 2 {
		t.Errorf("staleness = %d, want 2", model.Staleness())
	}
	if _, err := model.TopK("reviews:p0", 3); err == nil {
		t.Error("removed document still answers queries")
	}
	// Removed docs never surface as targets, even with corpus-covering k.
	all, err := model.TopK("reviews:p1", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range all {
		if mt.ID == "movies:t3" {
			t.Error("removed movie still ranked")
		}
	}
	if err := model.Remove([]string{"nosuch:doc"}); err == nil {
		t.Error("unknown ID must be rejected")
	}
	// Remove + re-ingest brings the document back.
	if err := model.Ingest([]IngestDoc{
		{Side: 2, ID: "reviews:p0", Values: []string{"a comedy by Tarantino starring Willis with unforgettable dialogue"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := model.TopK("reviews:p0", 3); err != nil {
		t.Fatalf("re-ingested document not servable: %v", err)
	}
}

func TestCompactResetsStaleness(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, ingestTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Ingest([]IngestDoc{
		{Side: 2, ID: "reviews:new", Values: []string{"Coppola directs Brando in a crime epic"}},
	}); err != nil {
		t.Fatal(err)
	}
	if model.Staleness() != 1 {
		t.Fatalf("staleness = %d", model.Staleness())
	}
	if err := model.Compact(); err != nil {
		t.Fatal(err)
	}
	if model.Staleness() != 0 {
		t.Errorf("staleness after Compact = %d, want 0", model.Staleness())
	}
	// The compacted model fully retrained the ingested doc.
	matches, err := model.TopK("reviews:new", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("TopK after Compact: %v", matches)
	}
	// The delta chain survives compaction (a snapshot must still be
	// loadable against the pre-ingest corpus files).
	if len(model.deltas) != 1 {
		t.Errorf("delta chain length after Compact = %d, want 1", len(model.deltas))
	}
}

// TestIngestParityOnIMDb is the acceptance bar of the incremental
// path: on the seed IMDb dataset, removing a held-out slice and
// re-ingesting it must reproduce the from-scratch model's rankings at
// recall@10 >= 0.95 — the model pre-mutation IS a from-scratch build of
// the final corpus, since the mutation round-trips the content — across
// both serving index kinds.
func TestIngestParityOnIMDb(t *testing.T) {
	for _, kind := range []IndexKind{IndexFlat, IndexHNSW} {
		t.Run(kind.String(), func(t *testing.T) {
			model := buildIMDbModel(t, func(cfg *Config) {
				cfg.Index = kind
			})
			queries := append(append([]string(nil), model.first.IDs()...), model.second.IDs()...)
			const k = 10
			want := map[string][]string{}
			for _, q := range queries {
				if model.vectors[q] == nil {
					continue
				}
				matches, err := model.TopK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				ids := make([]string, len(matches))
				for i, mt := range matches {
					ids[i] = mt.ID
				}
				want[q] = ids
			}
			if len(want) < 100 {
				t.Fatalf("only %d live queries — fixture too small", len(want))
			}

			// Hold out a slice of both sides, remove it, re-ingest it.
			held := []string{
				model.first.IDs()[3], model.first.IDs()[17], model.first.IDs()[41],
				model.second.IDs()[0], model.second.IDs()[25], model.second.IDs()[80],
			}
			docs := make([]IngestDoc, len(held))
			for i, id := range held {
				docs[i] = ingestDocOf(model, id)
			}
			if err := model.Remove(held); err != nil {
				t.Fatal(err)
			}
			if err := model.Ingest(docs); err != nil {
				t.Fatal(err)
			}
			if model.Staleness() != 2*len(held) {
				t.Errorf("staleness = %d, want %d", model.Staleness(), 2*len(held))
			}

			hits, total := 0, 0
			for q, wantIDs := range want {
				got, err := model.TopK(q, k)
				if err != nil {
					t.Fatalf("TopK(%s) after remove+ingest: %v", q, err)
				}
				gotSet := map[string]struct{}{}
				for _, mt := range got {
					gotSet[mt.ID] = struct{}{}
				}
				for _, id := range wantIDs {
					if _, ok := gotSet[id]; ok {
						hits++
					}
				}
				total += len(wantIDs)
			}
			recall := float64(hits) / float64(total)
			t.Logf("%s: remove+ingest recall@10 = %.4f over %d ranked slots (%d queries)",
				kind, recall, total, len(want))
			if recall < 0.95 {
				t.Errorf("remove+ingest recall@10 = %.4f, want >= 0.95", recall)
			}
		})
	}
}

// TestIngestFoldOnLoadedModel: a snapshot-restored model ingests from
// the snapshot's term vectors and serves the new document.
func TestIngestFoldOnLoadedModel(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, ingestTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.SaveV6(&buf); err != nil {
		t.Fatal(err)
	}
	m2, r2 := fixtureCorpora(t)
	loaded, err := LoadModel(&buf, m2, r2)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.fold == nil {
		t.Fatal("the snapshot did not restore fold-in state")
	}
	if err := loaded.Ingest([]IngestDoc{
		{Side: 2, ID: "reviews:new", Values: []string{"Tarantino and Willis in a crime thriller"}},
	}); err != nil {
		t.Fatal(err)
	}
	matches, err := loaded.TopK("reviews:new", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Fatalf("fold-in TopK: %v", matches)
	}
	// The folded vector is term-driven: the top match should be one of
	// the Tarantino/Willis movies.
	if top := matches[0].ID; top != "movies:t1" && top != "movies:t0" {
		t.Logf("fold-in top match = %s (term-driven ranking)", top)
	}
	if loaded.Staleness() != 1 {
		t.Errorf("staleness = %d", loaded.Staleness())
	}
	// A document with only unknown terms gets no embedding but is
	// still removable.
	if err := loaded.Ingest([]IngestDoc{
		{Side: 2, ID: "reviews:alien", Values: []string{"zzz qqq xxx"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.TopK("reviews:alien", 2); err == nil {
		t.Error("document without known terms must fail TopK like an isolated one")
	}
	if err := loaded.Remove([]string{"reviews:alien"}); err != nil {
		t.Fatal(err)
	}
}

// TestSaveLoadDeltaChain: a snapshot saved after ingests and removals
// binds against the ORIGINAL (pre-ingest) corpora — the delta chain
// re-applies the mutations — and serves the ingested document with its
// saved vector.
func TestSaveLoadDeltaChain(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, ingestTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Ingest([]IngestDoc{
		{Side: 2, ID: "reviews:new", Values: []string{"Willis and Tarantino reunite for a crime caper"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := model.Remove([]string{"reviews:p3"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.SaveV6(&buf); err != nil {
		t.Fatal(err)
	}

	// Fresh corpora in their pre-ingest state.
	m2, r2 := fixtureCorpora(t)
	loaded, err := LoadModel(bytes.NewReader(buf.Bytes()), m2, r2)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Staleness() != 2 {
		t.Errorf("staleness = %d, want 2", loaded.Staleness())
	}
	if _, ok := r2.c.Doc("reviews:new"); !ok {
		t.Fatal("delta chain did not append the ingested document to the corpus")
	}
	if _, ok := r2.c.Doc("reviews:p3"); ok {
		t.Fatal("delta chain did not remove the deleted document from the corpus")
	}
	// The ingested document serves with its saved vector: rankings agree
	// with the in-process mutated model.
	wantMatches, err := model.TopK("reviews:new", 3)
	if err != nil {
		t.Fatal(err)
	}
	gotMatches, err := loaded.TopK("reviews:new", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantMatches {
		if wantMatches[i].ID != gotMatches[i].ID {
			t.Errorf("rank %d: %s vs %s", i, wantMatches[i].ID, gotMatches[i].ID)
		}
	}
	if _, err := loaded.TopK("reviews:p3", 3); err == nil {
		t.Error("document removed by the delta chain still answers queries")
	}
}

// TestIngestDeterministicSingleWorker pins the seed-determinism
// invariant on the ingest path: at Workers 1 and a fixed seed, two
// identical Build+Ingest runs must produce identical rankings for the
// ingested document (training is serial, and the fold-in is a sum in
// token order).
func TestIngestDeterministicSingleWorker(t *testing.T) {
	run := func() []Match {
		movies, reviews := fixtureCorpora(t)
		model, err := Build(movies, reviews, ingestTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := model.Ingest([]IngestDoc{
			{Side: 2, ID: "reviews:det", Values: []string{"Tarantino crime dialogue with Willis"}},
			{Side: 1, ID: "movies:det", Values: []string{"Reservoir Dogs", "Tarantino", "Harvey Keitel", "R", "Crime"}},
		}); err != nil {
			t.Fatal(err)
		}
		matches, err := model.TopK("reviews:det", 5)
		if err != nil {
			t.Fatal(err)
		}
		return matches
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ingest nondeterministic at rank %d: %v vs %v", i, a[i], b[i])
		}
	}
}
