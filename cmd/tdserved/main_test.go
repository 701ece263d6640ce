package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tdmatch/tdmatch"
)

// moviesCSV / reviewsTXT are the on-disk corpora the daemon loads — small
// enough to train instantly, overlapping enough that every document gets
// an embedding.
const moviesCSV = `title,director,star,genre
The Sixth Sense,Shyamalan,Bruce Willis,Thriller
Pulp Fiction,Tarantino,Bruce Willis,Drama
The Godfather,Coppola,Marlon Brando,Crime
Jackie Brown,Tarantino,Pam Grier,Crime
Die Hard,McTiernan,Bruce Willis,Action
The Village,Shyamalan,Joaquin Phoenix,Thriller
`

const reviewsTXT = `Willis sees dead people in this tense Shyamalan thriller
a hilarious Tarantino movie starring Willis
Brando rules the crime family in a timeless Coppola masterpiece
Grier carries this Tarantino crime homage
Willis fights terrorists in a McTiernan action classic
Phoenix wanders a Shyamalan village thriller
`

// trainFixture trains a model over the on-disk corpora with the given
// config, saves the snapshot, and returns the file paths plus the
// in-process model for parity checks.
func trainFixture(t testing.TB, cfg tdmatch.Config) (firstPath, secondPath, modelPath string, model *tdmatch.Model) {
	t.Helper()
	dir := t.TempDir()
	firstPath = filepath.Join(dir, "movies.csv")
	secondPath = filepath.Join(dir, "reviews.txt")
	modelPath = filepath.Join(dir, "model.snap")
	if err := os.WriteFile(firstPath, []byte(moviesCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(secondPath, []byte(reviewsTXT), 0o644); err != nil {
		t.Fatal(err)
	}
	first, err := tdmatch.LoadCorpus(firstPath, "movies")
	if err != nil {
		t.Fatal(err)
	}
	second, err := tdmatch.LoadCorpus(secondPath, "reviews")
	if err != nil {
		t.Fatal(err)
	}
	model, err = tdmatch.Build(first, second, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.SaveFileV6(modelPath); err != nil {
		t.Fatal(err)
	}
	return firstPath, secondPath, modelPath, model
}

// fixtureConfig is the shared laptop-instant training configuration;
// Workers is 1 because hogwild training is deliberately racy and this
// package's tests run under -race in CI.
func fixtureConfig(seed int64) tdmatch.Config {
	cfg := tdmatch.Defaults()
	cfg.Seed = seed
	cfg.NumWalks = 6
	cfg.WalkLength = 10
	cfg.Dim = 24
	cfg.Epochs = 1
	cfg.Workers = 1
	return cfg
}

// startDaemon wires a daemon over the fixture files behind httptest.
func startDaemon(t *testing.T, firstPath, secondPath, modelPath string) (*daemon, *httptest.Server) {
	t.Helper()
	return startDaemonWith(t, firstPath, secondPath, modelPath, daemonOptions{})
}

// postJSON posts v and decodes the response body into out, returning the
// status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// persistMoviesCSV / persistReviewsTXT are, as files, the corpora the
// root package's committed snapshot fixtures (testdata/persist) were
// trained on.
const persistMoviesCSV = `title,director,star,rating,genre
The Sixth Sense,Shyamalan,Bruce Willis,PG,Thriller
Pulp Fiction,Tarantino,Bruce Willis,R,Drama
The Godfather,Coppola,Marlon Brando,R,Crime
Alien,Ridley Scott,Sigourney Weaver,R,Horror
`

const persistReviewsTXT = `a comedy by Tarantino starring Willis with unforgettable dialogue
Willis sees dead people in this Shyamalan thriller about a sixth sense
Brando leads the godfather crime family in Coppola's masterpiece
Weaver fights the alien in deep space horror
`

// persistFixtureDir holds the root package's committed snapshot
// fixtures.
var persistFixtureDir = filepath.Join("..", "..", "testdata", "persist")

// writePersistCorpora writes persistMoviesCSV and persistReviewsTXT to
// a temporary directory and returns their paths.
func writePersistCorpora(t *testing.T) (firstPath, secondPath string) {
	t.Helper()
	dir := t.TempDir()
	firstPath = filepath.Join(dir, "movies.csv")
	secondPath = filepath.Join(dir, "reviews.txt")
	if err := os.WriteFile(firstPath, []byte(persistMoviesCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(secondPath, []byte(persistReviewsTXT), 0o644); err != nil {
		t.Fatal(err)
	}
	return firstPath, secondPath
}

// TestRoundTripIVFSnapshotServesIdenticalTopK: a committed snapshot
// saved with a removed index kind (IVF or SQ8, v6 and gob) starts the
// daemon, which logs that it serves the snapshot as an exact flat scan,
// reports index "flat" in /v1/stats, and serves over HTTP exactly the
// rankings of the in-process model bound from the same file.
func TestRoundTripIVFSnapshotServesIdenticalTopK(t *testing.T) {
	firstPath, secondPath := writePersistCorpora(t)
	for _, fx := range []struct{ name, kind string }{
		{"v6ivf.snap", "ivf"}, {"v5ivf.gob", "ivf"}, {"v6sq8.snap", "sq8"}, {"v5sq8.gob", "sq8"},
	} {
		t.Run(fx.name, func(t *testing.T) {
			modelPath := filepath.Join(persistFixtureDir, fx.name)
			logged := &logBuffer{}
			log.SetOutput(logged)
			_, ts := startDaemon(t, firstPath, secondPath, modelPath)
			log.SetOutput(os.Stderr)
			if !strings.Contains(logged.String(), "removed "+fx.kind+" index; serving its arena as an exact flat scan") {
				t.Errorf("start-up log does not report the flat downgrade: %s", logged.String())
			}

			var st statsResponse
			resp, err := http.Get(ts.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			if st.Model.Index != "flat" || st.FirstIndex.Kind != "flat" || st.SecondIndex.Kind != "flat" {
				t.Errorf("stats index = %q (%q/%q), want flat", st.Model.Index, st.FirstIndex.Kind, st.SecondIndex.Kind)
			}

			first, err := tdmatch.LoadCorpus(firstPath, "movies")
			if err != nil {
				t.Fatal(err)
			}
			second, err := tdmatch.LoadCorpus(secondPath, "reviews")
			if err != nil {
				t.Fatal(err)
			}
			model, err := tdmatch.LoadModelFile(modelPath, first, second)
			if err != nil {
				t.Fatal(err)
			}
			for id := range model.Vectors() {
				want, err := model.TopK(id, 4)
				if err != nil {
					t.Fatal(err)
				}
				var got topkResponse
				if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: id, K: 4}, &got); status != http.StatusOK {
					t.Fatalf("topk(%s) status %d", id, status)
				}
				if got.ID != id || len(got.Matches) != len(want) {
					t.Fatalf("topk(%s) = %+v, want %d matches", id, got, len(want))
				}
				for i, m := range want {
					if got.Matches[i].ID != m.ID || got.Matches[i].Score != m.Score {
						t.Errorf("topk(%s)[%d] = %+v, want %+v", id, i, got.Matches[i], m)
					}
				}
			}
		})
	}
}

func TestBatchEndpointMatchesSingles(t *testing.T) {
	firstPath, secondPath, modelPath, model := trainFixture(t, fixtureConfig(1))
	_, ts := startDaemon(t, firstPath, secondPath, modelPath)

	ids := []string{"reviews:p0", "reviews:p2", "nosuch:doc", "movies:t1"}
	var got batchResponse
	if status := postJSON(t, ts.URL+"/v1/batch", batchRequest{IDs: ids, K: 3}, &got); status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	if len(got.Results) != len(ids) {
		t.Fatalf("batch returned %d results for %d ids", len(got.Results), len(ids))
	}
	for i, res := range got.Results {
		if res.ID != ids[i] {
			t.Errorf("result %d is for %s, want %s", i, res.ID, ids[i])
		}
		if ids[i] == "nosuch:doc" {
			if res.Error == "" {
				t.Error("unknown document in batch did not report an error")
			}
			continue
		}
		want, err := model.TopK(ids[i], 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Error != "" || len(res.Matches) != len(want) {
			t.Fatalf("batch(%s) = %+v, want %d matches", ids[i], res, len(want))
		}
		for j, m := range want {
			if res.Matches[j].ID != m.ID {
				t.Errorf("batch(%s)[%d] = %s, want %s", ids[i], j, res.Matches[j].ID, m.ID)
			}
		}
	}
}

func TestStatsAndHealthz(t *testing.T) {
	firstPath, secondPath, modelPath, _ := trainFixture(t, fixtureConfig(1))
	_, ts := startDaemon(t, firstPath, secondPath, modelPath)

	// Same query twice: the second must be a cache hit.
	for i := 0; i < 2; i++ {
		if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: "reviews:p0"}, nil); status != http.StatusOK {
			t.Fatalf("topk status %d", status)
		}
	}
	var st statsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 2 || st.CacheHits == 0 || st.CacheHitRate <= 0 {
		t.Errorf("stats = %+v, want 2 queries with a cache hit", st)
	}
	if st.Model.First != "movies" || st.Model.Second != "reviews" || st.Model.Index != "flat" {
		t.Errorf("stats model = %+v", st.Model)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", hz.StatusCode)
	}
}

// TestWrongCorpusFilesRefusedAtStartup: the daemon names corpora from
// the snapshot's own metadata, so the name check in Bind cannot catch an
// operator pointing -first/-second at the wrong files — coverage
// validation must. The snapshot is the committed v5 gob fixture, which
// records no corpus fingerprint.
func TestWrongCorpusFilesRefusedAtStartup(t *testing.T) {
	firstPath, secondPath := writePersistCorpora(t)
	modelPath := filepath.Join(persistFixtureDir, "v5.gob")

	// Swapped format: a text file where the table was — document IDs get
	// the p-prefix, matching none of the snapshot's t-prefixed vectors.
	if _, err := newDaemon(secondPath, secondPath, modelPath, tdmatch.ServeConfig{}, 5, daemonOptions{}); err == nil {
		t.Error("daemon started over a text file in place of the trained table")
	}

	// Truncated corpora: fewer documents than stored vectors.
	tiny := filepath.Join(t.TempDir(), "tiny.csv")
	if err := os.WriteFile(tiny, []byte("title,director,star,genre\nOnly Movie,Nobody,Noone,None\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tinyTxt := filepath.Join(t.TempDir(), "tiny.txt")
	if err := os.WriteFile(tinyTxt, []byte("one lonely review\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newDaemon(tiny, tinyTxt, modelPath, tdmatch.ServeConfig{}, 5, daemonOptions{}); err == nil {
		t.Error("daemon started with fewer documents than stored vectors")
	}

	// The matching files still work.
	if _, err := newDaemon(firstPath, secondPath, modelPath, tdmatch.ServeConfig{}, 5, daemonOptions{}); err != nil {
		t.Errorf("daemon refused the correct corpora: %v", err)
	}
}

func TestBadRequests(t *testing.T) {
	firstPath, secondPath, modelPath, _ := trainFixture(t, fixtureConfig(1))
	_, ts := startDaemon(t, firstPath, secondPath, modelPath)

	if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{}, nil); status != http.StatusBadRequest {
		t.Errorf("topk without id: status %d, want 400", status)
	}
	if status := postJSON(t, ts.URL+"/v1/batch", batchRequest{}, nil); status != http.StatusBadRequest {
		t.Errorf("batch without ids: status %d, want 400", status)
	}
	if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: "nosuch:doc"}, nil); status != http.StatusNotFound {
		t.Errorf("topk unknown doc: status %d, want 404", status)
	}
	resp, err := http.Get(ts.URL + "/v1/topk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/topk: status %d, want 405", resp.StatusCode)
	}

	// Malformed k and doc IDs: 400 with a JSON error body, never a 500.
	var body map[string]string
	if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: "reviews:p0", K: -3}, &body); status != http.StatusBadRequest {
		t.Errorf("topk with k=-3: status %d, want 400", status)
	}
	if body["error"] == "" {
		t.Errorf("topk with k=-3: body %v, want a JSON error", body)
	}
	body = nil
	if status := postJSON(t, ts.URL+"/v1/batch", batchRequest{IDs: []string{"reviews:p0"}, K: -1}, &body); status != http.StatusBadRequest {
		t.Errorf("batch with k=-1: status %d, want 400", status)
	}
	if body["error"] == "" {
		t.Errorf("batch with k=-1: body %v, want a JSON error", body)
	}
	body = nil
	if status := postJSON(t, ts.URL+"/v1/batch", batchRequest{IDs: []string{"reviews:p0", ""}, K: 2}, &body); status != http.StatusBadRequest {
		t.Errorf("batch with empty id: status %d, want 400", status)
	}
	if body["error"] == "" {
		t.Errorf("batch with empty id: body %v, want a JSON error", body)
	}
}

// TestReloadSwapsUnderConcurrentTraffic hammers /v1/topk from several
// goroutines while /v1/reload re-reads the (retrained) snapshot — every
// request must succeed throughout the swaps. Run with -race in CI.
func TestReloadSwapsUnderConcurrentTraffic(t *testing.T) {
	firstPath, secondPath, modelPath, model := trainFixture(t, fixtureConfig(1))
	d, ts := startDaemon(t, firstPath, secondPath, modelPath)

	// Retrain under a different seed and overwrite the snapshot on disk,
	// as an offline training job would.
	first, err := tdmatch.LoadCorpus(firstPath, "movies")
	if err != nil {
		t.Fatal(err)
	}
	second, err := tdmatch.LoadCorpus(secondPath, "reviews")
	if err != nil {
		t.Fatal(err)
	}
	retrained, err := tdmatch.Build(first, second, fixtureConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := retrained.SaveFileV6(modelPath); err != nil {
		t.Fatal(err)
	}

	ids := make([]string, 0, 6)
	for id := range model.Vectors() {
		ids = append(ids, id)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var got topkResponse
				id := ids[(w+i)%len(ids)]
				if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: id, K: 2}, &got); status != http.StatusOK {
					select {
					case errs <- fmt.Errorf("topk(%s) status %d during reload", id, status):
					default:
					}
					return
				}
			}
		}(w)
	}
	const reloads = 5
	for i := 0; i < reloads; i++ {
		if status := postJSON(t, ts.URL+"/v1/reload", struct{}{}, nil); status != http.StatusOK {
			t.Fatalf("reload %d: status %d", i, status)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := d.server.Stats().Reloads; got != reloads {
		t.Errorf("reloads = %d, want %d", got, reloads)
	}
	// The daemon now serves the retrained model's rankings.
	want, err := retrained.TopK(ids[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	var got topkResponse
	if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: ids[0], K: 2}, &got); status != http.StatusOK {
		t.Fatalf("post-reload topk status %d", status)
	}
	wantIDs := make([]string, len(want))
	for i, m := range want {
		wantIDs[i] = m.ID
	}
	gotIDs := make([]string, len(got.Matches))
	for i, m := range got.Matches {
		gotIDs[i] = m.ID
	}
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Errorf("post-reload ranking %v != retrained model's %v", gotIDs, wantIDs)
	}

	// A reload against a broken snapshot must fail loudly and keep the
	// old model serving. The broken file is renamed into place, as
	// tdmatch -save replaces a snapshot: the served model maps the file
	// at modelPath, and truncating a mapped file in place faults the
	// process on its next read of the mapping.
	broken := modelPath + ".broken"
	if err := os.WriteFile(broken, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(broken, modelPath); err != nil {
		t.Fatal(err)
	}
	if status := postJSON(t, ts.URL+"/v1/reload", struct{}{}, nil); status != http.StatusInternalServerError {
		t.Errorf("reload of corrupt snapshot: status %d, want 500", status)
	}
	if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: ids[0], K: 2}, nil); status != http.StatusOK {
		t.Errorf("serving broken after failed reload: status %d", status)
	}
}

// TestIngestOverHTTPServesImmediately is the live-ingest acceptance
// check: a document POSTed to /v1/ingest must be served by the very
// next query — including a (query, k) pair whose pre-ingest ranking was
// cached, proving the generation bump invalidates the result cache —
// with the /v1/stats counters tracking the mutation.
func TestIngestOverHTTPServesImmediately(t *testing.T) {
	firstPath, secondPath, modelPath, _ := trainFixture(t, fixtureConfig(1))
	_, ts := startDaemon(t, firstPath, secondPath, modelPath)

	// Cache a corpus-covering ranking for a movie before the ingest.
	query, k := "movies:t1", 10
	var before topkResponse
	for i := 0; i < 2; i++ { // second call is a cache hit
		if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: query, K: k}, &before); status != http.StatusOK {
			t.Fatalf("pre-ingest topk status %d", status)
		}
	}
	for _, m := range before.Matches {
		if m.ID == "reviews:live" {
			t.Fatal("fixture already contains the ingest doc")
		}
	}

	// Ingest a new review over HTTP.
	var ing mutateResponse
	status := postJSON(t, ts.URL+"/v1/ingest", ingestRequest{Docs: []ingestDocJSON{
		{Side: 2, ID: "reviews:live", Values: []string{"another hilarious Tarantino film with Bruce Willis"}},
	}}, &ing)
	if status != http.StatusOK || ing.Status != "ok" || ing.Docs != 1 || ing.Staleness != 1 {
		t.Fatalf("ingest status %d, response %+v", status, ing)
	}

	// The same (query, k) must now include the new document — no stale
	// cached ranking across the generation bump.
	var after topkResponse
	if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: query, K: k}, &after); status != http.StatusOK {
		t.Fatalf("post-ingest topk status %d", status)
	}
	found := false
	for _, m := range after.Matches {
		if m.ID == "reviews:live" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingested doc absent from post-ingest ranking: %+v", after.Matches)
	}
	// The ingested document answers queries itself.
	var own topkResponse
	if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: "reviews:live", K: 3}, &own); status != http.StatusOK {
		t.Fatalf("topk for ingested doc: status %d", status)
	}
	if len(own.Matches) != 3 {
		t.Fatalf("ingested doc ranking = %+v", own.Matches)
	}

	// Stats report the mutation.
	var st statsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Ingests != 1 || st.IngestedDocs != 1 || st.Staleness != 1 {
		t.Errorf("stats after ingest = ingests %d, ingested_docs %d, staleness %d",
			st.Ingests, st.IngestedDocs, st.Staleness)
	}

	// Remove it again over HTTP: rankings drop it, queries 404.
	var rm mutateResponse
	if status := postJSON(t, ts.URL+"/v1/remove", removeRequest{IDs: []string{"reviews:live"}}, &rm); status != http.StatusOK || rm.Staleness != 2 {
		t.Fatalf("remove status %d, response %+v", status, rm)
	}
	var gone topkResponse
	if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: query, K: k}, &gone); status != http.StatusOK {
		t.Fatalf("post-remove topk status %d", status)
	}
	for _, m := range gone.Matches {
		if m.ID == "reviews:live" {
			t.Error("removed doc still ranked")
		}
	}
	if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: "reviews:live", K: 3}, nil); status != http.StatusNotFound {
		t.Errorf("topk for removed doc: status %d, want 404", status)
	}

	// Bad requests.
	if status := postJSON(t, ts.URL+"/v1/ingest", ingestRequest{}, nil); status != http.StatusBadRequest {
		t.Errorf("empty ingest: status %d, want 400", status)
	}
	if status := postJSON(t, ts.URL+"/v1/ingest", ingestRequest{Docs: []ingestDocJSON{{Side: 7, ID: "x"}}}, nil); status != http.StatusBadRequest {
		t.Errorf("bad side: status %d, want 400", status)
	}
	if status := postJSON(t, ts.URL+"/v1/remove", removeRequest{}, nil); status != http.StatusBadRequest {
		t.Errorf("empty remove: status %d, want 400", status)
	}
	if status := postJSON(t, ts.URL+"/v1/remove", removeRequest{IDs: []string{"nosuch:doc"}}, nil); status != http.StatusNotFound {
		t.Errorf("unknown remove: status %d, want 404", status)
	}
	if status := postJSON(t, ts.URL+"/v1/remove", removeRequest{IDs: []string{"movies:t0", "movies:t0"}}, nil); status != http.StatusBadRequest {
		t.Errorf("duplicate remove: status %d, want 400", status)
	}
}

// TestV6SnapshotDaemonRoundTrip is the daemon-level v6 round trip: a
// model saved in the flat mmap format starts the daemon (zero-copy
// load), serves rankings identical to the in-process model, and a
// checkpoint rewrites the file as v6 — which the next daemon start
// loads again.
func TestV6SnapshotDaemonRoundTrip(t *testing.T) {
	firstPath, secondPath, modelPath, model := trainFixture(t, fixtureConfig(17))

	d, ts := startDaemonWith(t, firstPath, secondPath, modelPath, daemonOptions{})
	if got := d.info().Version; got != 6 {
		t.Fatalf("daemon loaded snapshot version %d, want 6", got)
	}
	var resp struct {
		Matches []tdmatch.Match `json:"matches"`
	}
	if code := postJSON(t, ts.URL+"/v1/topk", map[string]any{"id": "reviews:p0", "k": 3}, &resp); code != http.StatusOK {
		t.Fatalf("topk status %d", code)
	}
	want, err := model.TopK("reviews:p0", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Matches, want) {
		t.Fatalf("v6-served rankings diverge:\ngot:  %v\nwant: %v", resp.Matches, want)
	}

	// The checkpoint writes v6: the rewritten file must open with the v6
	// magic and restart the daemon.
	if err := d.checkpoint(); err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 8)
	f, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(head); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if string(head) != "TDMSNAP6" {
		t.Fatalf("checkpoint wrote magic %q, want TDMSNAP6", head)
	}
	d2, _ := startDaemonWith(t, firstPath, secondPath, modelPath, daemonOptions{snapVerify: "lazy"})
	if got := d2.info().Version; got != 6 {
		t.Fatalf("restart loaded snapshot version %d, want 6", got)
	}
}

// TestGobSnapshotMigratesAtCheckpoint: a daemon started on a gob
// snapshot (the committed v5 fixture) serves it, and its first
// checkpoint rewrites the file as v6, which the next start maps
// zero-copy and serves with the same rankings.
func TestGobSnapshotMigratesAtCheckpoint(t *testing.T) {
	firstPath, secondPath := writePersistCorpora(t)
	raw, err := os.ReadFile(filepath.Join(persistFixtureDir, "v5.gob"))
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(t.TempDir(), "model.gob")
	if err := os.WriteFile(modelPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	start := func() (*daemon, *httptest.Server, string) {
		logged := &logBuffer{}
		log.SetOutput(logged)
		defer log.SetOutput(os.Stderr)
		d, ts := startDaemon(t, firstPath, secondPath, modelPath)
		return d, ts, logged.String()
	}
	rankings := func(ts *httptest.Server) map[string][]matchJSON {
		out := map[string][]matchJSON{}
		for _, id := range []string{"movies:t0", "movies:t2", "reviews:p0", "reviews:p3"} {
			var got topkResponse
			if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: id, K: 4}, &got); status != http.StatusOK {
				t.Fatalf("topk(%s) status %d", id, status)
			}
			out[id] = got.Matches
		}
		return out
	}

	d, ts, logged := start()
	if !strings.Contains(logged, "load mode gob,") || d.info().Version != 5 {
		t.Fatalf("first start did not load the gob snapshot (version %d): %s", d.info().Version, logged)
	}
	want := rankings(ts)
	if err := d.checkpoint(); err != nil {
		t.Fatal(err)
	}
	d2, ts2, logged := start()
	if !strings.Contains(logged, "load mode v6+mmap,") || d2.info().Version != 6 {
		t.Fatalf("restart after the checkpoint did not map a v6 snapshot (version %d): %s", d2.info().Version, logged)
	}
	if got := rankings(ts2); !reflect.DeepEqual(got, want) {
		t.Errorf("rankings changed across the migration:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestHNSWSnapshotDaemonRoundTrip starts the daemon over a v6 snapshot
// of an HNSW-served model: the graph sections bind zero-copy, /v1/topk
// matches the in-process model, /v1/stats describes the graph in its
// per-side index block, and a checkpoint restarts cleanly.
func TestHNSWSnapshotDaemonRoundTrip(t *testing.T) {
	cfg := fixtureConfig(23)
	cfg.Index = tdmatch.IndexHNSW
	cfg.HNSWM = 4
	cfg.HNSWEf = 8
	cfg.HNSWEfConstruct = 16
	firstPath, secondPath, modelPath, model := trainFixture(t, cfg)

	d, ts := startDaemonWith(t, firstPath, secondPath, modelPath, daemonOptions{})
	info := d.info()
	if info.Version != 6 || info.Index != tdmatch.IndexHNSW {
		t.Fatalf("daemon loaded version %d index %v, want 6/hnsw", info.Version, info.Index)
	}

	var resp struct {
		Matches []tdmatch.Match `json:"matches"`
	}
	if code := postJSON(t, ts.URL+"/v1/topk", map[string]any{"id": "reviews:p0", "k": 3}, &resp); code != http.StatusOK {
		t.Fatalf("topk status %d", code)
	}
	want, err := model.TopK("reviews:p0", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Matches, want) {
		t.Fatalf("hnsw-served rankings diverge:\ngot:  %v\nwant: %v", resp.Matches, want)
	}

	var stats statsResponse
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if m := stats.Model; m.Index != "hnsw" || m.HNSWM != 4 || m.HNSWEf != 8 || m.HNSWEfC != 16 {
		t.Errorf("stats model block = %+v, want hnsw 4/8/16", stats.Model)
	}
	for side, st := range map[string]tdmatch.IndexStats{"first": stats.FirstIndex, "second": stats.SecondIndex} {
		if st.Kind != "hnsw" || st.LiveRows == 0 || st.AvgDegree <= 0 || st.Ef != 8 {
			t.Errorf("%s index block does not describe the graph: %+v", side, st)
		}
	}

	// A checkpoint writes the bound graph sections back as they stand —
	// the log line says no segment was rebuilt — and the next start binds
	// them again.
	var logged bytes.Buffer
	log.SetOutput(&logged)
	err = d.checkpoint()
	log.SetOutput(os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logged.String(), "segments reused 2, rebuilt 0") {
		t.Errorf("checkpoint log does not report the reused segments: %q", logged.String())
	}
	d2, _ := startDaemonWith(t, firstPath, secondPath, modelPath, daemonOptions{})
	if got := d2.info(); got.Version != 6 || got.Index != tdmatch.IndexHNSW {
		t.Fatalf("restart loaded version %d index %v, want 6/hnsw", got.Version, got.Index)
	}
}

// TestBadSnapshotFlagsRejected pins the flag validation in newDaemon.
func TestBadSnapshotFlagsRejected(t *testing.T) {
	firstPath, secondPath, modelPath, _ := trainFixture(t, fixtureConfig(35))
	if _, err := newDaemon(firstPath, secondPath, modelPath, tdmatch.ServeConfig{Workers: 1}, 5,
		daemonOptions{snapVerify: "paranoid"}); err == nil {
		t.Error("unknown -snapshot-verify accepted")
	}
}

// TestLoadLineNamesVerifyMode pins the start-up load line: it names the
// load mode and the -snapshot-verify mode the snapshot was opened under,
// under eager verification how long the checksums took beside the bind,
// and what happened to the corpora: deferred when the v6 snapshot's
// fingerprint of the files matches them, parsed (and how long that took)
// with the reason otherwise. The first mutation of a deferred model logs
// its parse once.
func TestLoadLineNamesVerifyMode(t *testing.T) {
	firstPath, secondPath, v6Path, _ := trainFixture(t, fixtureConfig(36))
	loadLine := func(t *testing.T, first, second, modelPath string, opts daemonOptions) (*daemon, *httptest.Server, *logBuffer) {
		t.Helper()
		logged := &logBuffer{}
		log.SetOutput(logged)
		t.Cleanup(func() { log.SetOutput(os.Stderr) })
		d, ts := startDaemonWith(t, first, second, modelPath, opts)
		return d, ts, logged
	}
	const deferred = `, corpora deferred \(fingerprint match\)\n`
	for _, verify := range []string{"", "eager", "lazy"} {
		_, _, logged := loadLine(t, firstPath, secondPath, v6Path, daemonOptions{snapVerify: verify})
		verified := `, verified in \S+ beside the bind`
		if verify == "lazy" {
			verified = ""
		}
		want := regexp.MustCompile(`load mode v6\+mmap, verify ` + cmp.Or(verify, "eager") + `, opened in \S+` + verified + deferred)
		if !want.MatchString(logged.String()) {
			t.Errorf("-snapshot-verify %q: load line does not match %s: %s", verify, want, logged.String())
		}
	}

	// A gob snapshot (the committed v5 fixture, over its corpora), and a
	// v6 one whose fingerprint no longer matches an edited file, are
	// parsed at start.
	edited := filepath.Join(t.TempDir(), "reviews.txt")
	if err := os.WriteFile(edited, []byte(reviewsTXT+"an extra review of a Tarantino crime drama\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	gobFirst, gobSecond := writePersistCorpora(t)
	for _, tc := range []struct {
		name, first, second, model, want string
	}{
		{"gob", gobFirst, gobSecond, filepath.Join(persistFixtureDir, "v5.gob"), `load mode gob, verify eager, opened in \S+, corpora parsed in \S+ \(gob snapshot\)\n`},
		{"edited", firstPath, edited, v6Path, `verified in \S+ beside the bind, corpora parsed in \S+ \(second corpus file differs from the snapshot's fingerprint\)\n`},
	} {
		_, _, logged := loadLine(t, tc.first, tc.second, tc.model, daemonOptions{})
		if want := regexp.MustCompile(tc.want); !want.MatchString(logged.String()) {
			t.Errorf("%s: load line does not match %s: %s", tc.name, want, logged.String())
		}
	}

	// The first mutation of the deferred model logs its parse; the next
	// one, which clones a model that has its corpora, parses nothing.
	_, ts, logged := loadLine(t, firstPath, secondPath, v6Path, daemonOptions{})
	for i := range 2 {
		doc := ingestDocJSON{Side: 2, ID: fmt.Sprintf("reviews:late%d", i), Values: []string{"Willis returns in a Tarantino crime drama"}}
		if code := postJSON(t, ts.URL+"/v1/ingest", ingestRequest{Docs: []ingestDocJSON{doc}}, nil); code != http.StatusOK {
			t.Fatalf("ingest %d = %d", i, code)
		}
	}
	parsed := regexp.MustCompile(`ingest parsed the deferred corpora in \S+\n`)
	if n := len(parsed.FindAllString(logged.String(), -1)); n != 1 {
		t.Errorf("two ingests logged %d corpus parses, want 1: %s", n, logged.String())
	}
}

// TestV6WrongCorpusFilesRefusedAtStartup is TestWrongCorpusFilesRefusedAtStartup
// over a v6 snapshot that fingerprints its corpus files: swapped and
// truncated files still refuse to start, matching files start without
// being parsed, a file edited after the save falls back to parsing and
// the coverage check, and a file that changes after start fails the
// first ingest with the coverage error while the loaded model keeps
// serving.
func TestV6WrongCorpusFilesRefusedAtStartup(t *testing.T) {
	firstPath, secondPath, modelPath, _ := trainFixture(t, fixtureConfig(1))
	refuse := func(name, first, second, want string) {
		t.Helper()
		d, err := newDaemon(first, second, modelPath, tdmatch.ServeConfig{Workers: 1}, 5, daemonOptions{})
		if err == nil {
			d.server.Close()
			t.Errorf("%s: daemon started", name)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: newDaemon = %v, want %q", name, err, want)
		}
	}
	refuse("text file in place of the table", secondPath, secondPath, `no document of corpus "movies" has a stored vector`)

	dir := t.TempDir()
	tiny := filepath.Join(dir, "tiny.csv")
	if err := os.WriteFile(tiny, []byte("title,director,star,genre\nOnly Movie,Nobody,Noone,None\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tinyTxt := filepath.Join(dir, "tiny.txt")
	if err := os.WriteFile(tinyTxt, []byte("one lonely review\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	refuse("truncated corpora", tiny, tinyTxt, "but the corpora hold only 2 documents")

	// Matching files start without a parse; an edited one is parsed, and
	// passes the coverage check when it still describes the snapshot.
	edited := filepath.Join(dir, "reviews.txt")
	if err := os.WriteFile(edited, []byte(reviewsTXT+"one more review\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ second, note string }{
		{secondPath, "corpora deferred (fingerprint match)"},
		{edited, "corpora parsed in"},
	} {
		logged := &logBuffer{}
		log.SetOutput(logged)
		d, err := newDaemon(firstPath, tc.second, modelPath, tdmatch.ServeConfig{Workers: 1}, 5, daemonOptions{})
		log.SetOutput(os.Stderr)
		if err != nil {
			t.Fatalf("daemon refused %s: %v", tc.second, err)
		}
		d.server.Close()
		if !strings.Contains(logged.String(), tc.note) {
			t.Errorf("start over %s: load line lacks %q: %s", tc.second, tc.note, logged.String())
		}
	}

	// The files change under a running daemon: the first ingest parses
	// them, finds them changed and not covering the model, and fails;
	// the model it would have replaced keeps serving.
	live := filepath.Join(dir, "movies.csv")
	if err := os.WriteFile(live, []byte(moviesCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	d, ts := startDaemonWith(t, live, secondPath, modelPath, daemonOptions{})
	var before topkResponse
	if code := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: "reviews:p0", K: 3}, &before); code != http.StatusOK {
		t.Fatalf("topk = %d", code)
	}
	if err := os.WriteFile(live, []byte(reviewsTXT), 0o644); err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	doc := ingestDocJSON{Side: 2, ID: "reviews:late", Values: []string{"Willis returns"}}
	code := postJSON(t, ts.URL+"/v1/ingest", ingestRequest{Docs: []ingestDocJSON{doc}}, &body)
	if code != http.StatusBadRequest || !strings.Contains(body["error"], "wrong corpus files") {
		t.Errorf("ingest over changed files = %d %v, want 400 with the coverage error", code, body)
	}
	var after topkResponse
	if code := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: "reviews:p0", K: 3}, &after); code != http.StatusOK || !reflect.DeepEqual(after, before) {
		t.Errorf("after the refused ingest topk = %d %+v, want %+v", code, after, before)
	}
	if got := d.server.Stats().Ingests; got != 0 {
		t.Errorf("refused ingest counted: %d ingests", got)
	}
}

// flipInSection returns a copy of a v6 snapshot with the first byte of
// the first section of type typ flipped — for the metadata JSON, its
// opening brace. The section is read off the file's own table (64-byte
// header, then 32-byte entries: u32 type, u32 index, u64 offset, u64
// length, u64 checksum).
func flipInSection(t *testing.T, snap []byte, typ uint32) []byte {
	t.Helper()
	n := int(binary.LittleEndian.Uint32(snap[16:20]))
	for i := 0; i < n; i++ {
		e := snap[64+32*i:]
		if binary.LittleEndian.Uint32(e) != typ {
			continue
		}
		if binary.LittleEndian.Uint64(e[16:]) == 0 {
			t.Fatalf("section type %d is empty", typ)
		}
		corrupt := append([]byte(nil), snap...)
		corrupt[binary.LittleEndian.Uint64(e[8:])] ^= 0xff
		return corrupt
	}
	t.Fatalf("snapshot has no section of type %d", typ)
	return nil
}

// replaceFile swaps path's contents atomically, as a snapshot writer
// does: a served v6 model aliases the mapped file, which must not be
// rewritten in place.
func replaceFile(t *testing.T, path string, data []byte) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptPayloadRejectedAtStartAndReload flips one byte inside the
// term arena, and separately inside the metadata JSON, of a
// structurally valid v6 snapshot. Eager verification runs beside the
// corpus load and bind, yet start-up must fail with exactly the
// checksum error OpenSnapshotFile gives — the metadata flip included,
// which a loader that decoded before it verified would report as a
// JSON error. Lazy verification starts on the term-arena flip, and a
// reload of either file answers 500 with the old model still serving.
func TestCorruptPayloadRejectedAtStartAndReload(t *testing.T) {
	firstPath, secondPath, _, model := trainFixture(t, fixtureConfig(37))
	dir := t.TempDir()
	pristinePath := filepath.Join(dir, "model.v6")
	if err := model.SaveFileV6(pristinePath); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(pristinePath)
	if err != nil {
		t.Fatal(err)
	}
	d, ts := startDaemonWith(t, firstPath, secondPath, pristinePath, daemonOptions{})
	var before topkResponse
	if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: "reviews:p0", K: 3}, &before); status != http.StatusOK {
		t.Fatalf("topk status %d", status)
	}

	const metaJSON, termArena = 1, 5
	for _, sec := range []struct {
		name string
		typ  uint32
	}{{"term arena", termArena}, {"metadata", metaJSON}} {
		t.Run(sec.name, func(t *testing.T) {
			corrupt := flipInSection(t, pristine, sec.typ)
			path := filepath.Join(t.TempDir(), "corrupt.v6")
			if err := os.WriteFile(path, corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			_, openErr := tdmatch.OpenSnapshotFile(path)
			if openErr == nil || !strings.Contains(openErr.Error(), fmt.Sprintf("section type %d index 0 checksum mismatch", sec.typ)) {
				t.Fatalf("OpenSnapshotFile = %v, want the section's checksum mismatch", openErr)
			}
			for _, verify := range []string{"", "eager"} {
				_, err := newDaemon(firstPath, secondPath, path, tdmatch.ServeConfig{Workers: 1}, 5, daemonOptions{snapVerify: verify})
				if err == nil || !strings.Contains(err.Error(), openErr.Error()) {
					t.Errorf("-snapshot-verify %q: newDaemon = %v, want %q", verify, err, openErr)
				}
			}
			lazy, err := newDaemon(firstPath, secondPath, path, tdmatch.ServeConfig{Workers: 1}, 5, daemonOptions{snapVerify: "lazy"})
			switch {
			case sec.typ == termArena && err != nil:
				t.Fatalf("-snapshot-verify lazy refused a file whose structure is intact: %v", err)
			case sec.typ == termArena:
				lazy.server.Close()
			case err == nil || !strings.Contains(err.Error(), "metadata: invalid character"):
				// What eager would report if it decoded before it verified.
				t.Errorf("-snapshot-verify lazy on the metadata flip = %v, want a JSON error", err)
			}

			reloads := d.server.Stats().Reloads
			replaceFile(t, pristinePath, corrupt)
			var body map[string]string
			if status := postJSON(t, ts.URL+"/v1/reload", struct{}{}, &body); status != http.StatusInternalServerError ||
				!strings.Contains(body["error"], openErr.Error()) {
				t.Errorf("reload of the flipped file: status %d, body %v; want 500 naming %q", status, body, openErr)
			}
			if got := d.server.Stats().Reloads; got != reloads {
				t.Errorf("failed reload swapped: reloads %d -> %d", reloads, got)
			}
			var after topkResponse
			if status := postJSON(t, ts.URL+"/v1/topk", topkRequest{ID: "reviews:p0", K: 3}, &after); status != http.StatusOK ||
				!reflect.DeepEqual(after, before) {
				t.Errorf("after a failed reload topk = %d %+v, want the old model's %+v", status, after, before)
			}
			replaceFile(t, pristinePath, pristine)
		})
	}
}

// logBuffer is a log destination a test can read while daemon goroutines
// are still writing to it.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTrainingIsVisibleInTheLog pins the operator's view of training:
// the kernel is named once at start-up, and every compaction — manual
// and background — logs what its retrain cost, where before a
// successful /v1/compact logged nothing.
func TestTrainingIsVisibleInTheLog(t *testing.T) {
	firstPath, secondPath, modelPath, _ := trainFixture(t, fixtureConfig(41))
	logged := &logBuffer{}
	log.SetOutput(logged)
	defer log.SetOutput(os.Stderr)

	d, ts := startDaemon(t, firstPath, secondPath, modelPath)
	if want := "training kernel " + tdmatch.TrainKernel(); strings.Count(logged.String(), want) != 1 {
		t.Errorf("start-up log names the kernel %d times, want once (%q): %s", strings.Count(logged.String(), want), want, logged.String())
	}

	trained := regexp.MustCompile(`compaction ok: train \d+ ms, [1-9]\d* tokens, [1-9]\d* tokens/s`)
	if code := postJSON(t, ts.URL+"/v1/compact", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("/v1/compact = %d", code)
	}
	if !trained.MatchString(logged.String()) {
		t.Errorf("manual compaction did not log its training cost: %s", logged.String())
	}

	// One ingest makes the model stale enough for a threshold of 1; the
	// loop then compacts on its next poll.
	if code := postJSON(t, ts.URL+"/v1/ingest", ingestRequest{Docs: []ingestDocJSON{
		{Side: 2, ID: "reviews:late", Values: []string{"Willis returns in another Tarantino crime drama"}},
	}}, nil); code != http.StatusOK {
		t.Fatalf("/v1/ingest = %d", code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.compactLoop(ctx, 1, 5*time.Millisecond)
	}()
	background := regexp.MustCompile(`background ` + trained.String())
	deadline := time.Now().Add(30 * time.Second)
	for !background.MatchString(logged.String()) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	if !background.MatchString(logged.String()) {
		t.Errorf("background compaction did not log its training cost: %s", logged.String())
	}
}
