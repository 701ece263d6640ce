package tdmatch

import (
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/tdmatch/tdmatch/internal/match"
)

// writePersistFixtures regenerates the one committed snapshot fixture
// the current code can still write, v6hnsw.snap:
//
//	go test -run TestWritePersistFixtures -write-persist-fixtures
//
// Only needed when the fixture model changes.
var writePersistFixtures = flag.Bool("write-persist-fixtures", false,
	"regenerate testdata/persist/v6hnsw.snap")

// persistFixtureDir holds one committed snapshot per format version,
// all encoding the same trained model, plus a v4 snapshot with a live
// delta chain.
const persistFixtureDir = "testdata/persist"

// frozenPersistFixtures are committed snapshots the generator can no
// longer write. The gob ones are frozen because no gob writer remains:
// v1.gob–v5.gob encode one training of persistFixtureModel's
// configuration.
// legacy names the removed index kind a snapshot was saved with: the
// model v5.gob encodes, served through the IVF index (3 partitions, 1
// probe) or the SQ8 index (re-rank 6). The others hold vectors of the
// removed warm-start ingest: v4delta.gob and v5segments.gob those of
// its ingested documents, v6.snap term vectors that a warm ingest on a
// clone of the fixture model fine-tuned in place.
// -write-persist-fixtures must leave them byte for byte as they are.
var frozenPersistFixtures = []struct{ file, legacy string }{
	{"v1.gob", ""},
	{"v2.gob", ""},
	{"v3.gob", ""},
	{"v4.gob", ""},
	{"v5.gob", ""},
	{"v6ivf.snap", "ivf"},
	{"v5ivf.gob", "ivf"},
	{"v6sq8.snap", "sq8"},
	{"v5sq8.gob", "sq8"},
	{"v4delta.gob", ""},
	{"v5segments.gob", ""},
	{"v6.snap", ""},
}

// loadFrozenModel binds one frozen snapshot of persistFixtureDir to the
// fixture corpora.
func loadFrozenModel(t *testing.T, file string) *Model {
	t.Helper()
	movies, reviews := fixtureCorpora(t)
	m, err := LoadModelFile(filepath.Join(persistFixtureDir, file), movies, reviews)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// readGobFixture decodes one committed gob fixture of persistFixtureDir
// into its payload, for tests that tamper with it.
func readGobFixture(t *testing.T, file string) savedModel {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(persistFixtureDir, file))
	if err != nil {
		t.Fatal(err)
	}
	var sm savedModel
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&sm); err != nil {
		t.Fatal(err)
	}
	return sm
}

// persistFixtureModel trains the deterministic model the fixtures
// encode (Workers 1: the committed vectors must be reproducible).
func persistFixtureModel(t *testing.T) *Model {
	t.Helper()
	movies, reviews := fixtureCorpora(t)
	cfg := smallConfig()
	cfg.Workers = 1
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestWritePersistFixtures regenerates v6hnsw.snap; a no-op (skipped)
// without the -write-persist-fixtures flag.
func TestWritePersistFixtures(t *testing.T) {
	if !*writePersistFixtures {
		t.Skip("pass -write-persist-fixtures to regenerate")
	}
	frozen := map[string][]byte{}
	for _, fx := range frozenPersistFixtures {
		b, err := os.ReadFile(filepath.Join(persistFixtureDir, fx.file))
		if err != nil {
			t.Fatalf("frozen fixture %s missing: it cannot be regenerated: %v", fx.file, err)
		}
		frozen[fx.file] = b
	}
	defer func() {
		for file, want := range frozen {
			if got, err := os.ReadFile(filepath.Join(persistFixtureDir, file)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("frozen fixture %s was rewritten", file)
			}
		}
	}()

	// v6hnsw: the shared corpora served through the HNSW graph index — the
	// only fixture carrying graph sections (levels, CSR offsets,
	// adjacency), bound zero-copy via NewHNSWParts on load.
	if err := persistFixtureHNSWModel(t).SaveFileV6(filepath.Join(persistFixtureDir, "v6hnsw.snap")); err != nil {
		t.Fatal(err)
	}
}

// persistFixtureSegmentedModel builds a deterministic multi-segment
// model of the committed v5segments.gob's shape: tiny auto-seal
// threshold, three single-doc ingests (two seals), one sealed-row
// removal (a tombstone).
func persistFixtureSegmentedModel(t *testing.T) *Model {
	t.Helper()
	movies, reviews := fixtureCorpora(t)
	cfg := smallConfig()
	cfg.Workers = 1
	cfg.SegmentMaxDocs = 1
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range []string{
		"Brando leads a mafia family epic",
		"Coppola directs a crime dynasty",
		"Pacino inherits the family business",
	} {
		if err := model.Ingest([]IngestDoc{
			{Side: 2, ID: fmt.Sprintf("reviews:seg%d", i), Values: []string{text}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := model.Remove([]string{"reviews:seg1"}); err != nil {
		t.Fatal(err)
	}
	return model
}

// persistFixtureHNSWModel trains the deterministic HNSW fixture model:
// the shared corpora served through a graph narrow enough (M 4, ef 8)
// that the committed snapshot's adjacency sections are actually walked
// at query time rather than delegated to the exact scan.
func persistFixtureHNSWModel(t *testing.T) *Model {
	t.Helper()
	movies, reviews := fixtureCorpora(t)
	cfg := smallConfig()
	cfg.Workers = 1
	cfg.Index = IndexHNSW
	cfg.HNSWM = 4
	cfg.HNSWEf = 8
	cfg.HNSWEfConstruct = 16
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// checkMigrates writes model, bound from the gob snapshot snap, with
// SaveFileV6, reopens the file with OpenSnapshotFile and binds it to
// fresh fixture corpora: the migration a daemon's first checkpoint
// performs. The v6 file must report snap's Info apart from Version, and
// serve the rankings of model, scores included, from the same segment
// stack.
func checkMigrates(t *testing.T, snap *Snapshot, model *Model) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "migrated.snap")
	if err := model.SaveFileV6(path); err != nil {
		t.Fatal(err)
	}
	v6, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := snap.Info()
	want.Version = 6
	if got := v6.Info(); got != want {
		t.Errorf("migrated info = %+v, want %+v", got, want)
	}
	movies, reviews := fixtureCorpora(t)
	migrated, err := v6.Bind(movies, reviews)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rankAllMatches(t, migrated), rankAllMatches(t, model); !reflect.DeepEqual(got, want) {
		t.Errorf("migrated rankings diverge:\ngot:  %v\nwant: %v", got, want)
	}
	wf, ws := model.SegmentStats()
	if gf, gs := migrated.SegmentStats(); gf != wf || gs != ws {
		t.Errorf("migrated segment stats %+v/%+v, want %+v/%+v", gf, gs, wf, ws)
	}
}

// TestSnapshotBackCompat is the consolidated persistence back-compat
// coverage: every committed snapshot version (v1 per-document map, v2
// arena, v3 arena+re-rank field, v4 ingest payload, v5 segment manifests,
// v6 flat mmap layout) must load against the fixture corpora and serve
// identical TopK rankings — same documents, same order — since all of
// them encode the same trained vectors. Every gob fixture also migrates:
// rewritten as v6 it serves the same rankings (checkMigrates).
func TestSnapshotBackCompat(t *testing.T) {
	type ranked map[string][]string
	rankAll := func(t *testing.T, m *Model) ranked {
		t.Helper()
		out := ranked{}
		for _, q := range append(m.first.IDs(), m.second.IDs()...) {
			if m.Vector(q) == nil {
				continue
			}
			matches, err := m.TopK(q, 3)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]string, len(matches))
			for i, mt := range matches {
				ids[i] = mt.ID
			}
			out[q] = ids
		}
		return out
	}

	var baseline ranked
	var baselineFrom string
	for _, tc := range []struct {
		file    string
		version int
		ingest  bool // fold-in ingest must be available
	}{
		{"v1.gob", 1, false},
		{"v2.gob", 2, false},
		{"v3.gob", 3, false},
		{"v4.gob", 4, true},
		{"v5.gob", 5, true},
		{"v6.snap", 6, true},
	} {
		t.Run(tc.file, func(t *testing.T) {
			f, err := os.Open(filepath.Join(persistFixtureDir, tc.file))
			if err != nil {
				t.Fatalf("committed fixture missing (regenerate with -write-persist-fixtures): %v", err)
			}
			defer f.Close()
			snap, err := ReadSnapshot(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := snap.Info().Version; got != tc.version {
				t.Fatalf("fixture version = %d, want %d", got, tc.version)
			}
			movies, reviews := fixtureCorpora(t)
			model, err := snap.Bind(movies, reviews)
			if err != nil {
				t.Fatal(err)
			}
			got := rankAll(t, model)
			if len(got) == 0 {
				t.Fatal("no servable queries")
			}
			if baseline == nil {
				baseline, baselineFrom = got, tc.file
			} else if !reflect.DeepEqual(got, baseline) {
				t.Errorf("%s rankings diverge from %s", tc.file, baselineFrom)
			}
			if gotIngest := model.fold != nil; gotIngest != tc.ingest {
				t.Errorf("ingest support = %v, want %v", gotIngest, tc.ingest)
			}
			if tc.version < 6 {
				checkMigrates(t, snap, model)
			}
		})
	}

	// The delta-chain fixture additionally mutates the corpora at Bind
	// and serves the ingested document.
	t.Run("v4delta.gob", func(t *testing.T) {
		f, err := os.Open(filepath.Join(persistFixtureDir, "v4delta.gob"))
		if err != nil {
			t.Fatalf("committed fixture missing: %v", err)
		}
		defer f.Close()
		snap, err := ReadSnapshot(f)
		if err != nil {
			t.Fatal(err)
		}
		info := snap.Info()
		if info.DeltaDocs != 2 || info.Staleness != 2 {
			t.Errorf("delta fixture info = %+v, want 2 delta docs at staleness 2", info)
		}
		movies, reviews := fixtureCorpora(t)
		model, err := snap.Bind(movies, reviews)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := reviews.c.Doc("reviews:delta"); !ok {
			t.Error("delta-chain ingest not applied to the corpus")
		}
		if _, ok := reviews.c.Doc("reviews:p3"); ok {
			t.Error("delta-chain removal not applied to the corpus")
		}
		if _, err := model.TopK("reviews:delta", 3); err != nil {
			t.Errorf("ingested document not servable after load: %v", err)
		}
		if _, err := model.TopK("reviews:p3", 3); err == nil {
			t.Error("removed document still servable after load")
		}
		checkMigrates(t, snap, model)
	})

	// The HNSW fixture restores the graph index from its committed
	// sections — borrowed, not rebuilt — and serves rankings identical
	// to a live build with the same seed (the graph is deterministic, so
	// approximate results are still reproducible).
	t.Run("v6hnsw.snap", func(t *testing.T) {
		f, err := os.Open(filepath.Join(persistFixtureDir, "v6hnsw.snap"))
		if err != nil {
			t.Fatalf("committed fixture missing (regenerate with -write-persist-fixtures): %v", err)
		}
		defer f.Close()
		snap, err := ReadSnapshot(f)
		if err != nil {
			t.Fatal(err)
		}
		info := snap.Info()
		if info.Version != 6 || info.Index != IndexHNSW {
			t.Fatalf("fixture info = version %d index %v, want 6/hnsw", info.Version, info.Index)
		}
		if info.HNSWM != 4 || info.HNSWEf != 8 || info.HNSWEfConstruct != 16 {
			t.Errorf("fixture HNSW knobs = %d/%d/%d, want 4/8/16", info.HNSWM, info.HNSWEf, info.HNSWEfConstruct)
		}
		movies, reviews := fixtureCorpora(t)
		loaded, err := snap.Bind(movies, reviews)
		if err != nil {
			t.Fatal(err)
		}
		live := persistFixtureHNSWModel(t)
		for _, q := range append(loaded.first.IDs(), loaded.second.IDs()...) {
			if loaded.Vector(q) == nil {
				continue
			}
			got, err := loaded.TopK(q, 3)
			if err != nil {
				t.Fatalf("TopK(%s): %v", q, err)
			}
			want, err := live.TopK(q, 3)
			if err != nil {
				t.Fatalf("live TopK(%s): %v", q, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restored HNSW rankings diverge for %s:\ngot:  %v\nwant: %v", q, got, want)
			}
		}
	})

	// The multi-segment fixture must restore its saved segment
	// boundaries and serve rankings identical to an exact flat scan over
	// the vectors it stores (exact kinds: the stack is bit-equivalent to
	// monolithic).
	t.Run("v5segments.gob", func(t *testing.T) {
		f, err := os.Open(filepath.Join(persistFixtureDir, "v5segments.gob"))
		if err != nil {
			t.Fatalf("committed fixture missing (regenerate with -write-persist-fixtures): %v", err)
		}
		defer f.Close()
		snap, err := ReadSnapshot(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := snap.Info().Version; got != 5 {
			t.Fatalf("fixture version = %d, want 5", got)
		}
		movies, reviews := fixtureCorpora(t)
		loaded, err := snap.Bind(movies, reviews)
		if err != nil {
			t.Fatal(err)
		}
		_, second := loaded.SegmentStats()
		if second.Segments < 2 {
			t.Errorf("restored stack has %d sealed segments on side 2, want >= 2 (%+v)",
				second.Segments, second)
		}
		assertExactParity(t, loaded)
		if _, err := loaded.TopK("reviews:seg1", 3); err == nil {
			t.Error("tombstoned document still servable after load")
		}
		checkMigrates(t, snap, loaded)
	})
}

// TestLegacyIVFSnapshotsBindAsFlat: the frozen snapshots saved with a
// removed index kind (IVF or SQ8) bind as the exact flat scan over their
// stored vectors. Info reports flat and names the removed kind,
// IndexStats reports flat, and every full ranking equals a flat index
// built over the vectors the snapshot stores — where the saved
// one-probe IVF returned only its probed partition, and SQ8 only the
// candidates its int8 scan kept.
func TestLegacyIVFSnapshotsBindAsFlat(t *testing.T) {
	for _, fx := range frozenPersistFixtures {
		if fx.legacy == "" {
			continue
		}
		t.Run(fx.file, func(t *testing.T) {
			f, err := os.Open(filepath.Join(persistFixtureDir, fx.file))
			if err != nil {
				t.Fatalf("frozen fixture missing: %v", err)
			}
			defer f.Close()
			snap, err := ReadSnapshot(f)
			if err != nil {
				t.Fatal(err)
			}
			if info := snap.Info(); info.Index != IndexFlat || info.LegacyIndex != fx.legacy {
				t.Errorf("info = index %v, legacy %q; want flat, %q", info.Index, info.LegacyIndex, fx.legacy)
			}
			movies, reviews := fixtureCorpora(t)
			model, err := snap.Bind(movies, reviews)
			if err != nil {
				t.Fatal(err)
			}
			if fs, ss := model.IndexStats(); fs.Kind != "flat" || ss.Kind != "flat" {
				t.Errorf("IndexStats kinds = %q/%q, want flat/flat", fs.Kind, ss.Kind)
			}
			exact := func(c *Corpus) (*match.Index, int) {
				var ids []string
				var vecs [][]float32
				for _, id := range c.IDs() {
					if v := model.Vector(id); v != nil {
						ids = append(ids, id)
						vecs = append(vecs, v)
					}
				}
				idx, err := match.NewIndex(ids, vecs, model.dim)
				if err != nil {
					t.Fatal(err)
				}
				return idx, len(ids)
			}
			targets := map[*Corpus]*Corpus{movies: reviews, reviews: movies}
			for queries, other := range targets {
				idx, n := exact(other)
				for _, q := range queries.IDs() {
					v := model.Vector(q)
					if v == nil {
						continue
					}
					got, err := model.TopK(q, n)
					if err != nil {
						t.Fatal(err)
					}
					if want := idx.TopK(v, n); !reflect.DeepEqual(got, want) {
						t.Errorf("TopK(%s) = %v, want the exact scan %v", q, got, want)
					}
				}
			}
		})
	}
}
