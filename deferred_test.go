package tdmatch

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Tests for models bound without their corpora: Snapshot.BindFiles over
// a v6 snapshot that fingerprints its corpus files, queries that never
// read a corpus, and the first mutation that parses them.

// writeFixtureFiles writes fixtureCorpora as the files LoadCorpus reads
// back into the same documents and IDs.
func writeFixtureFiles(t testing.TB) (moviesPath, reviewsPath string) {
	t.Helper()
	dir := t.TempDir()
	moviesPath = filepath.Join(dir, "movies.csv")
	reviewsPath = filepath.Join(dir, "reviews.txt")
	movies := "title,director,star,rating,genre\n" +
		"The Sixth Sense,Shyamalan,Bruce Willis,PG,Thriller\n" +
		"Pulp Fiction,Tarantino,Bruce Willis,R,Drama\n" +
		"The Godfather,Coppola,Marlon Brando,R,Crime\n" +
		"Alien,Ridley Scott,Sigourney Weaver,R,Horror\n"
	reviews := "a comedy by Tarantino starring Willis with unforgettable dialogue\n" +
		"Willis sees dead people in this Shyamalan thriller about a sixth sense\n" +
		"Brando leads the godfather crime family in Coppola's masterpiece\n" +
		"Weaver fights the alien in deep space horror\n"
	if err := os.WriteFile(moviesPath, []byte(movies), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(reviewsPath, []byte(reviews), 0o644); err != nil {
		t.Fatal(err)
	}
	return moviesPath, reviewsPath
}

// fileBackedSnapshot trains a Workers 1 model on the fixture files,
// applies mutate to it (when not nil) and saves it as a v6 snapshot,
// which records the files' fingerprint and the mutations' delta chain.
func fileBackedSnapshot(t *testing.T, cfg Config, mutate func(*Model)) (moviesPath, reviewsPath, snapPath string) {
	t.Helper()
	moviesPath, reviewsPath = writeFixtureFiles(t)
	movies, err := LoadCorpus(moviesPath, "movies")
	if err != nil {
		t.Fatal(err)
	}
	reviews, err := LoadCorpus(reviewsPath, "reviews")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(m)
	}
	snapPath = filepath.Join(t.TempDir(), "model.v6")
	if err := m.SaveFileV6(snapPath); err != nil {
		t.Fatal(err)
	}
	return moviesPath, reviewsPath, snapPath
}

// bindEager loads the corpus files and binds the snapshot onto them.
func bindEager(t *testing.T, moviesPath, reviewsPath, snapPath string) *Model {
	t.Helper()
	movies, err := LoadCorpus(moviesPath, "movies")
	if err != nil {
		t.Fatal(err)
	}
	reviews, err := LoadCorpus(reviewsPath, "reviews")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModelFile(snapPath, movies, reviews)
	if err != nil {
		t.Fatal(err)
	}
	m.cfg.Workers = 1
	return m
}

// bindDeferred binds the snapshot through BindFiles and requires that it
// parsed nothing.
func bindDeferred(t *testing.T, moviesPath, reviewsPath, snapPath string) *Model {
	t.Helper()
	snap, err := OpenSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	m, note, err := snap.BindFiles(moviesPath, reviewsPath)
	if err != nil {
		t.Fatal(err)
	}
	if note != "corpora deferred (fingerprint match)" || m.deferred == nil || m.first != nil {
		t.Fatalf("BindFiles over matching files parsed them: %q", note)
	}
	m.cfg.Workers = 1
	return m
}

// countParses counts the corpus files readCorpora parses until the test
// ends.
func countParses(t *testing.T) *int {
	t.Helper()
	n := new(int)
	loadCorpusFile = func(path, name string) (*Corpus, error) {
		*n++
		return LoadCorpus(path, name)
	}
	t.Cleanup(func() { loadCorpusFile = LoadCorpus })
	return n
}

// saveV6Sum is the sha256 of the model's SaveV6 output.
func saveV6Sum(t *testing.T, m *Model) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.SaveV6(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestV6DeferredBindParity: a model bound without its corpora answers
// TopK, TopKBatch and MatchAll bit-identically to one bound onto the
// parsed corpora, and after the same Ingest, Remove and Compact at
// Workers 1 both save the same bytes. The snapshot carries a delta chain
// (one ingest, one removal), which the deferred model's first mutation
// applies to the files it parses, once; through a Server it parses them
// into the clone, and the served model stays deferred.
func TestV6DeferredBindParity(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 1
	moviesPath, reviewsPath, snapPath := fileBackedSnapshot(t, cfg, func(m *Model) {
		saved := []IngestDoc{{Side: 2, ID: "reviews:saved", Values: []string{"Weaver and Willis in a Scott horror thriller"}}}
		if err := m.Ingest(saved); err != nil {
			t.Fatal(err)
		}
		if err := m.Remove([]string{"movies:t3"}); err != nil {
			t.Fatal(err)
		}
	})
	eager := bindEager(t, moviesPath, reviewsPath, snapPath)
	lazy := bindDeferred(t, moviesPath, reviewsPath, snapPath)

	var ids []string
	for id := range eager.Vectors() {
		ids = append(ids, id)
	}
	for _, id := range ids {
		want, err := eager.TopK(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lazy.TopK(id, 3)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%s) = %v, %v; eager %v", id, got, err, want)
		}
	}
	if _, err := lazy.TopK("movies:nope", 3); err == nil || !strings.Contains(err.Error(), "unknown document") {
		t.Errorf("TopK of an unknown ID = %v, want unknown document", err)
	}
	batch := append(ids, "reviews:nope")
	if got, want := fmt.Sprint(lazy.TopKBatch(batch, 2)), fmt.Sprint(eager.TopKBatch(batch, 2)); got != want {
		t.Errorf("TopKBatch differs:\n got %s\nwant %s", got, want)
	}
	for _, fromSecond := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			if got, want := lazy.MatchAllWorkers(fromSecond, 3, workers), eager.MatchAllWorkers(fromSecond, 3, workers); !reflect.DeepEqual(got, want) {
				t.Errorf("MatchAllWorkers(%t, 3, %d) differs:\n got %v\nwant %v", fromSecond, workers, got, want)
			}
		}
	}
	if saveV6Sum(t, lazy) != saveV6Sum(t, eager) {
		t.Error("the deferred and the eager model save different bytes")
	}

	// Through a Server the mutation parses into the clone it swaps in.
	parses := countParses(t)
	srv := NewServer(lazy, ServeConfig{Workers: 1})
	defer srv.Close()
	late := []IngestDoc{{Side: 2, ID: "reviews:late", Values: []string{"Willis returns in a Tarantino crime drama"}}}
	if err := srv.Ingest(late); err != nil {
		t.Fatal(err)
	}
	if lazy.deferred == nil || lazy.first != nil {
		t.Error("Server.Ingest parsed the corpora into the served model")
	}
	if served := srv.Model(); served.deferred != nil || served.CorpusParseTime() <= 0 {
		t.Errorf("the swapped-in clone holds no parsed corpora (parse time %s)", served.CorpusParseTime())
	}
	if *parses != 2 {
		t.Errorf("first mutation parsed %d corpus files, want 2", *parses)
	}

	// The same mutations on the bare models, then a compaction.
	mutate := func(m *Model) {
		t.Helper()
		if err := m.Ingest(append(late, IngestDoc{Side: 1, ID: "movies:late", Values: []string{"Jackie Brown", "Tarantino", "Pam Grier", "R", "Crime"}})); err != nil {
			t.Fatal(err)
		}
		if err := m.Remove([]string{"reviews:p1", "movies:late"}); err != nil {
			t.Fatal(err)
		}
		if err := m.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	mutate(eager)
	mutate(lazy)
	if *parses != 4 || lazy.deferred != nil {
		t.Errorf("after the model's own mutations: %d corpus files parsed, want 4 (deferred %v)", *parses, lazy.deferred != nil)
	}
	if got, want := saveV6Sum(t, lazy), saveV6Sum(t, eager); got != want {
		t.Errorf("after Ingest, Remove and Compact: deferred model saves %x, eager %x", got, want)
	}
}

// TestCrashReplayDeferredCorpora replays an acknowledged storm's WAL onto
// a model bound without its corpora, cut at every frame boundary: the
// replayed model answers every query as a reference that applied the
// acknowledged prefix does, the corpora are parsed once for the whole
// replay (not at all for an empty log), and compacting the replayed
// model saves the bytes the model that never crashed saves after its
// compaction.
func TestCrashReplayDeferredCorpora(t *testing.T) {
	cfg := Defaults()
	cfg.Seed = 7
	cfg.NumWalks = 6
	cfg.WalkLength = 10
	cfg.Dim = 24
	cfg.Epochs = 1
	cfg.Workers = 1
	moviesPath, reviewsPath, snapPath := fileBackedSnapshot(t, cfg, nil)
	load := func(t *testing.T) *Model { return bindDeferred(t, moviesPath, reviewsPath, snapPath) }

	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	w, err := OpenWAL(walPath, WALOptions{Sync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(load(t), ServeConfig{Workers: 1, WAL: w})
	ops := recoveryStorm(rand.New(rand.NewSource(0xdefe)), 12)
	boundaries := []int64{w.Stats().SizeBytes}
	for i, op := range ops {
		if err := op.apply(srv.Ingest, srv.Remove); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		boundaries = append(boundaries, w.Stats().SizeBytes)
	}
	live := srv.Model()
	srv.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	parses := countParses(t)
	ref := bindEager(t, moviesPath, reviewsPath, snapPath)
	var replayed *Model
	for k, cut := range boundaries {
		if k > 0 {
			if err := ops[k-1].apply(ref.Ingest, ref.Remove); err != nil {
				t.Fatal(err)
			}
		}
		*parses = 0
		m, cutWAL := replayCut(t, walPath, cut, load)
		recovered := cutWAL.Stats().RecoveredRecords
		cutWAL.Close()
		if recovered != k {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, recovered, k)
		}
		if want := min(k, 1) * 2; *parses != want {
			t.Errorf("cut %d (%d records): replay parsed %d corpus files, want %d", cut, k, *parses, want)
		}
		if !reflect.DeepEqual(rankings(t, m, 3), rankings(t, ref, 3)) {
			t.Fatalf("cut %d (acked prefix %d): replay onto the deferred model diverges from the reference", cut, k)
		}
		replayed = m
	}

	live = live.clone()
	for _, m := range []*Model{live, replayed} {
		m.cfg.Workers = 1
		if err := m.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if saveV6Sum(t, replayed) != saveV6Sum(t, live) {
		t.Error("compaction after the replay saves other bytes than compaction without a crash")
	}
}
