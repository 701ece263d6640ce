package tdmatch

import (
	"fmt"
	"testing"

	"github.com/tdmatch/tdmatch/internal/match"
)

// Model-level tests for the segmented serving core: ingest batches pile
// up sealed segments, queries stay bit-identical to an exact scan over
// the live vectors, and Compact collapses the stack back to one base.

// TestSegmentedIngestStacksSegments drives enough ingests through
// a small auto-seal threshold to grow a multi-segment stack, and pins
// the invariants the stack must keep while it grows: live-doc
// accounting, bit-identity of TopK against a from-scratch flat index
// over the same live vectors, and single-segment collapse on Compact.
func TestSegmentedIngestStacksSegments(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	cfg := ingestTestConfig()
	cfg.SegmentMaxDocs = 2 // seal after every two delta docs
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 3; batch++ {
		docs := []IngestDoc{
			{Side: 2, ID: fmt.Sprintf("reviews:seg%da", batch),
				Values: []string{"Brando and Pacino in a mafia family saga"}},
			{Side: 2, ID: fmt.Sprintf("reviews:seg%db", batch),
				Values: []string{"Coppola directs a crime dynasty epic"}},
		}
		if err := model.Ingest(docs); err != nil {
			t.Fatal(err)
		}
	}
	_, second := model.SegmentStats()
	if second.Segments < 3 {
		t.Fatalf("second side has %d sealed segments after 3 sealing batches, want >= 3 (stats %+v)",
			second.Segments, second)
	}

	// Every ranking the stack serves must equal an exact flat scan over
	// the live vectors — the monolithic oracle.
	assertExactParity(t, model)

	// Removals of sealed rows land in the tombstone overlay, not storage.
	if err := model.Remove([]string{"reviews:seg0a", "reviews:seg1b"}); err != nil {
		t.Fatal(err)
	}
	_, second = model.SegmentStats()
	if second.Tombstones != 2 {
		t.Fatalf("tombstones = %d, want 2", second.Tombstones)
	}
	assertExactParity(t, model)

	// MatchAll funnels every query through the segmented TopKBatch
	// kernel; it must agree with the oracle-checked single-query path.
	for q, got := range model.MatchAll(false, 5) {
		want, err := model.TopK(q, 5)
		if err != nil {
			t.Fatalf("TopK(%s): %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("MatchAll(%s): %d results, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("MatchAll(%s) rank %d: got %v, want %v (batched vs single-query)",
					q, i, got[i], want[i])
			}
		}
	}

	if err := model.Compact(); err != nil {
		t.Fatal(err)
	}
	first, second := model.SegmentStats()
	if first.Segments != 1 || second.Segments != 1 || second.Tombstones != 0 || second.DeltaDocs != 0 {
		t.Fatalf("stack not collapsed by Compact: first %+v second %+v", first, second)
	}
	assertExactParity(t, model)
}

// TestIndexStatsCountDeltaTombstones ingests a side-2 document and
// removes it again: the removed row stays resident in the mutable delta
// as a delta-internal tombstone until Compact, and IndexStats.Rows must
// count it beside the live rows.
func TestIndexStatsCountDeltaTombstones(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, ingestTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	live := reviews.Len()
	if err := model.Ingest([]IngestDoc{{Side: 2, ID: "reviews:gone", Values: []string{"a Tarantino crime story"}}}); err != nil {
		t.Fatal(err)
	}
	if err := model.Remove([]string{"reviews:gone"}); err != nil {
		t.Fatal(err)
	}
	_, second := model.IndexStats()
	if resident := len(model.secondIdx.IDs()); second.Rows != resident || second.Rows != live+1 || second.LiveRows != live {
		t.Errorf("IndexStats = rows %d, live %d; want rows %d (resident IDs %d), live %d",
			second.Rows, second.LiveRows, live+1, resident, live)
	}
}

// assertExactParity checks TopK for every embedded document against a
// from-scratch flat index built over the model's live vectors.
func assertExactParity(t *testing.T, m *Model) {
	t.Helper()
	for side := 1; side <= 2; side++ {
		c := m.first
		if side == 2 {
			c = m.second
		}
		var ids []string
		for _, segIDs := range m.indexOf(side).SegmentManifest() {
			ids = append(ids, segIDs...)
		}
		arena := make([]float32, 0, len(ids)*m.dim)
		for _, id := range ids {
			row := make([]float32, m.dim)
			copy(row, m.vectors[id])
			arena = append(arena, row...)
		}
		flat, err := match.NewIndexArena(ids, arena, m.dim)
		if err != nil {
			t.Fatal(err)
		}
		queries := c.IDs()
		if len(queries) > 20 {
			queries = queries[:20]
		}
		for _, q := range queries {
			v := m.vectors[q]
			if v == nil {
				continue
			}
			got, err := m.TopK(q, 5)
			if err != nil {
				t.Fatalf("TopK(%s): %v", q, err)
			}
			want := flat.TopK(v, 5)
			if len(got) != len(want) {
				t.Fatalf("TopK(%s): %d results, want %d", q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("TopK(%s) rank %d: got %v, want %v (segmented vs flat oracle)",
						q, i, got[i], want[i])
				}
			}
		}
	}
}

// indexOf returns a side's serving index (test helper).
func (m *Model) indexOf(side int) *match.Segmented {
	if side == 1 {
		return m.secondIdx // side-1 queries rank side-2 documents
	}
	return m.firstIdx
}

// TestSegmentedWarmStartRecallOnIMDb is the model-level acceptance bar
// of the segmented core: on the seed IMDb dataset, removing a held-out
// slice and re-ingesting it in small batches — small enough that the
// auto-seal threshold piles up several sealed segments — must keep
// recall@10 >= 0.95 against the pre-mutation rankings.
func TestSegmentedWarmStartRecallOnIMDb(t *testing.T) {
	model := buildIMDbModel(t, func(cfg *Config) {
		cfg.SegmentMaxDocs = 2
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
	// One doc per Ingest call: with SegmentMaxDocs = 2 the deltas seal
	// every other call, growing a real multi-segment stack.
	for _, doc := range docs {
		if err := model.Ingest([]IngestDoc{doc}); err != nil {
			t.Fatal(err)
		}
	}
	first, second := model.SegmentStats()
	if first.Segments+second.Segments < 3 {
		t.Fatalf("expected a multi-segment stack, got first %+v second %+v", first, second)
	}

	hits, total := 0, 0
	for q, wantIDs := range want {
		got, err := model.TopK(q, k)
		if err != nil {
			t.Fatalf("TopK(%s): %v", q, err)
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
	t.Logf("segmented re-ingest recall@10 = %.4f over %d ranked slots", recall, total)
	if recall < 0.95 {
		t.Errorf("segmented re-ingest recall@10 = %.4f, want >= 0.95", recall)
	}
}

// TestStalenessSurvivesMidCompactionIngest is the regression test for
// the staleness accounting rewrite: with the old single counter, a
// compaction reset lost any ingest that landed between the compaction
// clone and the swap. The watermark accounting must keep counting it.
// The test replays the exact step sequence Server.Compact performs,
// deterministically.
func TestStalenessSurvivesMidCompactionIngest(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, ingestTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Ingest([]IngestDoc{
		{Side: 2, ID: "reviews:pre", Values: []string{"a mafia saga"}},
	}); err != nil {
		t.Fatal(err)
	}

	// Server.Compact step 1: clone the serving model, remember the fold
	// point, retrain the clone off to the side.
	work := model.clone()
	base := len(work.deltas)
	if err := work.Compact(); err != nil {
		t.Fatal(err)
	}

	// A client ingest lands on the serving model mid-compaction.
	mid := IngestDoc{Side: 2, ID: "reviews:mid", Values: []string{"Coppola crime epic"}}
	if err := model.Ingest([]IngestDoc{mid}); err != nil {
		t.Fatal(err)
	}

	// Server.Compact step 2: replay the deltas that landed after the
	// clone point onto the compacted model, then swap it in.
	for _, d := range model.deltas[base:] {
		if len(d.Added) > 0 {
			if err := work.Ingest(ingestDocsOfSaved(d.Added)); err != nil {
				t.Fatal(err)
			}
		}
		if len(d.Removed) > 0 {
			if err := work.Remove(d.Removed); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The mid-compaction ingest is NOT folded into the retrain: the
	// swapped-in model must still report it as stale. The old counter
	// reset reported 0 here.
	if got := work.Staleness(); got != 1 {
		t.Errorf("staleness after mid-compaction ingest replay = %d, want 1", got)
	}
	// And the replayed document serves.
	if _, err := work.TopK("reviews:mid", 2); err != nil {
		t.Errorf("replayed document not servable: %v", err)
	}
	// A quiescent compact still drains staleness to zero.
	if err := work.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := work.Staleness(); got != 0 {
		t.Errorf("staleness after quiescent Compact = %d, want 0", got)
	}
}

// TestServerCompactOnline exercises the serving-layer compaction end to
// end: ingest through the server, compact, and check the swap updated
// generation, compaction and staleness counters without dropping docs.
func TestServerCompactOnline(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, ingestTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(model, ServeConfig{CacheSize: 8})
	if err := srv.Ingest([]IngestDoc{
		{Side: 2, ID: "reviews:live", Values: []string{"Brando leads a crime family"}},
	}); err != nil {
		t.Fatal(err)
	}
	before := srv.Stats()
	if before.Staleness != 1 {
		t.Fatalf("staleness before compact = %d, want 1", before.Staleness)
	}
	docsBefore := len(srv.Model().Vectors())
	if err := srv.Compact(); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if after.Compactions != 1 {
		t.Errorf("compactions = %d, want 1", after.Compactions)
	}
	if after.Generation <= before.Generation {
		t.Errorf("generation = %d, want > %d (swap must bump it)", after.Generation, before.Generation)
	}
	if after.Staleness != 0 {
		t.Errorf("staleness after compact = %d, want 0", after.Staleness)
	}
	if got := len(srv.Model().Vectors()); got != docsBefore {
		t.Errorf("docs changed across compact: %d -> %d", docsBefore, got)
	}
	matches, err := srv.TopK("reviews:live", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Error("ingested document lost by compaction")
	}
}
