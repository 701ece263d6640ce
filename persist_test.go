package tdmatch

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/tdmatch/tdmatch/internal/match"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.SaveV6(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf, movies, reviews)
	if err != nil {
		t.Fatal(err)
	}
	// Rankings must be identical.
	for _, q := range reviews.IDs() {
		orig, err := model.TopK(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.TopK(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(orig) != len(got) {
			t.Fatalf("lengths differ for %s", q)
		}
		for i := range orig {
			if orig[i].ID != got[i].ID {
				t.Errorf("%s rank %d: %s vs %s", q, i, orig[i].ID, got[i].ID)
			}
		}
	}
	// Vectors survive byte-exact.
	v1 := model.Vector("reviews:p0")
	v2 := loaded.Vector("reviews:p0")
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("vector changed in round trip")
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := model.SaveFileV6(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path, movies, reviews)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Vector("movies:t0") == nil {
		t.Error("loaded model lost tuple vector")
	}
	if _, err := LoadModelFile(filepath.Join(t.TempDir(), "missing.snap"), movies, reviews); err == nil {
		t.Error("want error for missing file")
	}
}

func TestSaveLoadRestoresIndexChoice(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	cfg := smallConfig()
	cfg.Index = IndexHNSW
	cfg.HNSWM = 2
	cfg.HNSWEfConstruct = 4
	// Deliberately a beam narrower than the corpus: approximate rankings
	// depend on the graph, so this only round-trips if the construction
	// seed is persisted too.
	cfg.HNSWEf = 1
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.SaveV6(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf, movies, reviews)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.cfg.Index != IndexHNSW || loaded.cfg.HNSWM != 2 || loaded.cfg.HNSWEf != 1 ||
		loaded.cfg.HNSWEfConstruct != 4 || loaded.cfg.Seed != cfg.Seed {
		t.Errorf("index config not restored: %+v", loaded.cfg)
	}
	// A parameter the snapshot readers refuse is refused at Build, so no
	// saved model is unreadable.
	over := cfg
	over.HNSWEf = maxHNSWKnob + 1
	if _, err := Build(movies, reviews, over); err == nil {
		t.Error("Build accepted an HNSW parameter the snapshot readers refuse")
	}
	if _, ok := loaded.firstIdx.Base().(*match.HNSW); !ok {
		t.Errorf("loaded serving index is %T, want *match.HNSW", loaded.firstIdx.Base())
	}
	// Approximate rankings must equal the trained model's: same seed,
	// same graph, same beam.
	for _, q := range reviews.IDs() {
		orig, err := model.TopK(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.TopK(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range orig {
			if orig[i].ID != got[i].ID {
				t.Errorf("%s rank %d: %s vs %s", q, i, orig[i].ID, got[i].ID)
			}
		}
	}
}

// TestSaveLoadSQ8SnapshotServesIdenticalRankings: the frozen gob
// snapshot saved with the removed SQ8 index (re-rank 6) loads onto a flat
// serving index and serves the rankings of v5.gob, the same training
// saved flat — scores included. A SaveV6/ReadSnapshot round trip of the
// loaded model keeps them and no longer names the removed kind.
func TestSaveLoadSQ8SnapshotServesIdenticalRankings(t *testing.T) {
	loaded := loadFrozenModel(t, "v5sq8.gob")
	if base, ok := loaded.firstIdx.Base().(*match.Index); !ok {
		t.Fatalf("loaded serving index is %T, want *match.Index", base)
	}
	flat := loadFrozenModel(t, "v5.gob")
	var buf bytes.Buffer
	if err := loaded.SaveV6(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info := snap.Info(); info.Index != IndexFlat || info.LegacyIndex != "" {
		t.Errorf("re-saved info = %+v, want flat with no legacy kind", info)
	}
	movies, reviews := fixtureCorpora(t)
	resaved, err := snap.Bind(movies, reviews)
	if err != nil {
		t.Fatal(err)
	}
	want := rankAllMatches(t, flat)
	if got := rankAllMatches(t, loaded); !reflect.DeepEqual(got, want) {
		t.Errorf("legacy SQ8 snapshot ranks differently from the flat one:\ngot:  %v\nwant: %v", got, want)
	}
	if got := rankAllMatches(t, resaved); !reflect.DeepEqual(got, want) {
		t.Errorf("re-saved legacy SQ8 model ranks differently from the flat one:\ngot:  %v\nwant: %v", got, want)
	}
}

func TestLoadModelArenaValidation(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(savedModel{
		Version: 2, Dim: 8, FirstName: "movies", SecondName: "reviews",
		VectorIDs: []string{"movies:t0"}, Arena: []float32{1, 2, 3},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf, movies, reviews); err == nil {
		t.Error("want error for arena/ids size mismatch")
	}
}

// Version-by-version load coverage lives in persist_compat_test.go
// (TestSnapshotBackCompat), which loads the committed v1–v6 fixtures
// and asserts identical rankings across formats.

func TestReadModelInfo(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	cfg := smallConfig()
	cfg.Index = IndexHNSW
	cfg.HNSWM = 4
	cfg.HNSWEf = 8
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := model.SaveFileV6(path); err != nil {
		t.Fatal(err)
	}
	info, err := ReadModelInfoFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := ModelInfo{
		Version: 6, Dim: cfg.Dim, FirstName: "movies", SecondName: "reviews",
		Docs: len(model.Vectors()), Index: IndexHNSW, HNSWM: 4, HNSWEf: 8,
	}
	if info != want {
		t.Errorf("info = %+v, want %+v", info, want)
	}
	if _, err := ReadModelInfoFile(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Error("want error for missing file")
	}
	if _, err := ReadModelInfo(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Error("want error for corrupt payload")
	}
}

func TestSnapshotDecodeOnceBindMatchesLoadModel(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.SaveV6(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info := snap.Info(); info.FirstName != "movies" || info.Docs != len(model.Vectors()) {
		t.Errorf("snapshot info = %+v", info)
	}
	bound, err := snap.Bind(movies, reviews)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(bytes.NewReader(buf.Bytes()), movies, reviews)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range reviews.IDs() {
		a, err := bound.TopK(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.TopK(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s rank %d: Bind %v vs LoadModel %v", q, i, a[i], b[i])
			}
		}
	}
	if _, err := snap.Bind(nil, nil); err == nil {
		t.Error("want error for nil corpora")
	}
	other, err := NewText("different", []string{"x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Bind(other, reviews); err == nil {
		t.Error("want error for mismatched corpus names")
	}
}

func TestLoadModelValidation(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.SaveV6(&buf); err != nil {
		t.Fatal(err)
	}
	// Wrong corpus names are rejected.
	other, err := NewText("different", []string{"x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bytes.NewReader(buf.Bytes()), other, reviews); err == nil {
		t.Error("want error for mismatched corpora")
	}
	// Nil corpora are rejected.
	if _, err := LoadModel(bytes.NewReader(buf.Bytes()), nil, nil); err == nil {
		t.Error("want error for nil corpora")
	}
	// Corrupt payload is rejected.
	if _, err := LoadModel(bytes.NewReader([]byte("not a gob")), movies, reviews); err == nil {
		t.Error("want error for corrupt payload")
	}
}
