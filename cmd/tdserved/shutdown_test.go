package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/tdmatch/tdmatch"
	"github.com/tdmatch/tdmatch/internal/wal"
)

// startDaemonWith is startDaemon with explicit daemonOptions, for the
// durability and degradation tests.
func startDaemonWith(t *testing.T, firstPath, secondPath, modelPath string, opts daemonOptions) (*daemon, *httptest.Server) {
	t.Helper()
	d, err := newDaemon(firstPath, secondPath, modelPath, tdmatch.ServeConfig{Workers: 4}, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.server.Close)
	ts := httptest.NewServer(newHandler(d))
	t.Cleanup(ts.Close)
	return d, ts
}

// tryPostJSON is postJSON without the test fataling: traffic goroutines
// racing a shutdown legitimately see transport errors once the listener
// closes, and must report rather than fail them.
func tryPostJSON(url string, v any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, nil
}

// anyDocID returns a deterministic served document ID to probe with.
func anyDocID(t *testing.T, m *tdmatch.Model) string {
	t.Helper()
	ids := make([]string, 0, len(m.Vectors()))
	for id := range m.Vectors() {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		t.Fatal("model serves no documents")
	}
	sort.Strings(ids)
	return ids[0]
}

// TestShutdownUnderTraffic drives concurrent /v1/topk and /v1/ingest
// traffic while a real SIGTERM fires and the daemon drains: in-flight
// requests finish with definitive statuses (no 5xx other than the
// deliberate 503 shed), requests after the drain are shed with 503 +
// Retry-After, and the WAL tail holds every acknowledged ingest.
func TestShutdownUnderTraffic(t *testing.T) {
	firstPath, secondPath, modelPath, model := trainFixture(t, fixtureConfig(31))
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	d, ts := startDaemonWith(t, firstPath, secondPath, modelPath, daemonOptions{walPath: walPath})
	probe := anyDocID(t, model)

	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	defer signal.Stop(term)

	var (
		mu          sync.Mutex
		ackedDocs   []string
		badStatuses []int
	)
	stopTraffic := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(2)
		go func(g int) { // query traffic
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopTraffic:
					return
				default:
				}
				status, err := tryPostJSON(ts.URL+"/v1/topk", map[string]any{"id": probe, "k": 3})
				if err != nil {
					return // listener closed under us: the request never entered
				}
				if status != http.StatusOK && status != http.StatusServiceUnavailable {
					mu.Lock()
					badStatuses = append(badStatuses, status)
					mu.Unlock()
				}
			}
		}(g)
		go func(g int) { // ingest traffic
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopTraffic:
					return
				default:
				}
				id := fmt.Sprintf("reviews:live%d_%d", g, i)
				status, err := tryPostJSON(ts.URL+"/v1/ingest", map[string]any{
					"docs": []map[string]any{{"side": 2, "id": id, "values": []string{"a live Tarantino crime thriller review " + id}}},
				})
				if err != nil {
					return
				}
				switch status {
				case http.StatusOK:
					mu.Lock()
					ackedDocs = append(ackedDocs, id)
					mu.Unlock()
				case http.StatusServiceUnavailable:
					// shed: not acknowledged, must not be required durable
				default:
					mu.Lock()
					badStatuses = append(badStatuses, status)
					mu.Unlock()
				}
			}
		}(g)
	}

	time.Sleep(100 * time.Millisecond) // let traffic establish
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-term:
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM never delivered")
	}
	if code := d.shutdown(ts.Config, 5*time.Second, false); code != 0 {
		t.Fatalf("graceful shutdown exit code = %d, want 0", code)
	}
	close(stopTraffic)
	wg.Wait()

	if len(badStatuses) > 0 {
		t.Fatalf("traffic racing the drain saw unexpected statuses %v (want only 200 and 503)", badStatuses)
	}
	if len(ackedDocs) == 0 {
		t.Fatal("no ingest was acknowledged before the drain; the test raced itself")
	}

	// New requests after the drain are shed, not errored or hung.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/topk", strings.NewReader(`{"id":"x"}`))
	newHandler(d).ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("post-drain 503 carries no Retry-After")
	}

	// The WAL tail survived the shutdown: replaying it over the original
	// snapshot restores every acknowledged ingest. (Records may exceed
	// the acks — a response lost in the drain still logged durably — but
	// an acked write missing from the log is a durability bug.)
	w, err := tdmatch.OpenWAL(walPath, tdmatch.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Stats().RecoveredRecords; got < len(ackedDocs) {
		t.Fatalf("wal holds %d records but %d ingests were acknowledged", got, len(ackedDocs))
	}
	first, err := tdmatch.LoadCorpus(firstPath, "movies")
	if err != nil {
		t.Fatal(err)
	}
	second, err := tdmatch.LoadCorpus(secondPath, "reviews")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := tdmatch.LoadModelFile(modelPath, first, second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(restored); err != nil {
		t.Fatalf("replaying post-shutdown wal: %v", err)
	}
	for _, id := range ackedDocs {
		if restored.Vector(id) == nil {
			t.Fatalf("acknowledged ingest %q lost: absent after replay", id)
		}
	}
}

// TestWALRestartRecoversAckedWrites is the restart integration path: a
// document ingested over HTTP survives an abrupt stop (no exit
// snapshot, no checkpoint) because the next daemon replays the WAL
// during newDaemon and serves it immediately.
func TestWALRestartRecoversAckedWrites(t *testing.T) {
	firstPath, secondPath, modelPath, _ := trainFixture(t, fixtureConfig(32))
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	d, ts := startDaemonWith(t, firstPath, secondPath, modelPath, daemonOptions{walPath: walPath})

	if status := postJSON(t, ts.URL+"/v1/ingest", map[string]any{
		"docs": []map[string]any{{"side": 2, "id": "reviews:crash1", "values": []string{"a Coppola crime saga reviewed moments before the crash"}}},
	}, nil); status != http.StatusOK {
		t.Fatalf("ingest: status %d", status)
	}
	// Abrupt stop: no checkpoint, no exit snapshot — the log is the only
	// place the ingest exists.
	ts.Close()
	d.server.Close()
	if err := d.wal.Close(); err != nil {
		t.Fatal(err)
	}

	d2, ts2 := startDaemonWith(t, firstPath, secondPath, modelPath, daemonOptions{walPath: walPath})
	if got := d2.wal.Stats().RecoveredRecords; got != 1 {
		t.Fatalf("restart recovered %d wal records, want 1", got)
	}
	var out topkResponse
	if status := postJSON(t, ts2.URL+"/v1/topk", map[string]any{"id": "reviews:crash1", "k": 3}, &out); status != http.StatusOK {
		t.Fatalf("topk for recovered doc: status %d", status)
	}
	if len(out.Matches) == 0 {
		t.Fatal("recovered document serves no matches")
	}
}

// TestBodyCapReturns413 verifies the -max-body satellite: an oversized
// request body is rejected with 413 and a JSON error, not a hang or a
// connection reset mid-decode.
func TestBodyCapReturns413(t *testing.T) {
	firstPath, secondPath, modelPath, _ := trainFixture(t, fixtureConfig(33))
	_, ts := startDaemonWith(t, firstPath, secondPath, modelPath, daemonOptions{maxBody: 512})

	huge := strings.Repeat("padding words for an oversized review body ", 64)
	var out map[string]string
	status := postJSON(t, ts.URL+"/v1/ingest", map[string]any{
		"docs": []map[string]any{{"side": 2, "id": "reviews:huge", "values": []string{huge}}},
	}, &out)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d, want 413", status)
	}
	if out["error"] == "" {
		t.Fatal("413 response carries no JSON error")
	}
	// A right-sized request on the same daemon still succeeds.
	if status := postJSON(t, ts.URL+"/v1/topk", map[string]any{"id": "reviews:huge", "k": 1}, nil); status != http.StatusNotFound {
		t.Fatalf("rejected doc should not exist: topk status %d, want 404", status)
	}
}

// TestReadyzFlipsWhileDraining verifies the liveness/readiness split:
// once draining, /readyz turns 503 (with Retry-After) while /healthz
// keeps answering 200 — the process is alive, just not routable.
func TestReadyzFlipsWhileDraining(t *testing.T) {
	firstPath, secondPath, modelPath, _ := trainFixture(t, fixtureConfig(34))
	d, ts := startDaemonWith(t, firstPath, secondPath, modelPath, daemonOptions{})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d, want 200", resp.StatusCode)
	}

	d.draining.Store(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz carries no Retry-After")
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
}

// TestUnreadableSnapshotFailsStartup verifies the daemon exits with a
// clean error — not a panic or a zombie listener — when the snapshot is
// missing or garbage.
func TestUnreadableSnapshotFailsStartup(t *testing.T) {
	firstPath, secondPath, modelPath, _ := trainFixture(t, fixtureConfig(35))

	_, err := newDaemon(firstPath, secondPath, filepath.Join(t.TempDir(), "nope.gob"),
		tdmatch.ServeConfig{Workers: 1}, 5, daemonOptions{})
	if err == nil {
		t.Fatal("missing snapshot accepted")
	}
	if !strings.Contains(err.Error(), "opening model snapshot") {
		t.Fatalf("missing snapshot error %q does not name the failing step", err)
	}

	garbage := filepath.Join(t.TempDir(), "garbage.gob")
	if err := os.WriteFile(garbage, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newDaemon(firstPath, secondPath, garbage, tdmatch.ServeConfig{Workers: 1}, 5, daemonOptions{}); err == nil {
		t.Fatal("garbage snapshot accepted")
	}

	// A valid snapshot with a corrupt WAL beside it must also refuse to
	// start rather than silently dropping acknowledged operations: build
	// a real two-record log, then flip a byte inside the first record.
	badWAL := filepath.Join(t.TempDir(), "bad.wal")
	wlog, _, err := wal.Open(badWAL, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := wlog.Append(1, []byte(`{"docs":[]}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(badWAL)
	if err != nil {
		t.Fatal(err)
	}
	raw[8+13+2] ^= 0x40 // inside the first record's payload
	if err := os.WriteFile(badWAL, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newDaemon(firstPath, secondPath, modelPath, tdmatch.ServeConfig{Workers: 1}, 5,
		daemonOptions{walPath: badWAL}); err == nil {
		t.Fatal("corrupt wal accepted")
	}
}

// TestDuplicateIngestConflict verifies the 409 mapping: re-ingesting an
// existing document is a conflict, not a generic bad request.
func TestDuplicateIngestConflict(t *testing.T) {
	firstPath, secondPath, modelPath, _ := trainFixture(t, fixtureConfig(36))
	_, ts := startDaemonWith(t, firstPath, secondPath, modelPath, daemonOptions{})

	doc := map[string]any{
		"docs": []map[string]any{{"side": 2, "id": "reviews:dup1", "values": []string{"a Shyamalan twist reviewed twice"}}},
	}
	if status := postJSON(t, ts.URL+"/v1/ingest", doc, nil); status != http.StatusOK {
		t.Fatalf("first ingest: status %d", status)
	}
	var out map[string]string
	if status := postJSON(t, ts.URL+"/v1/ingest", doc, &out); status != http.StatusConflict {
		t.Fatalf("duplicate ingest: status %d, want 409", status)
	}
	if !strings.Contains(out["error"], "reviews:dup1") {
		t.Fatalf("conflict error %q does not name the document", out["error"])
	}
}

// TestInflightCapSheds verifies admission control: with a single
// admission slot held, a concurrent guarded request is shed with 503 +
// Retry-After instead of queuing behind it.
func TestInflightCapSheds(t *testing.T) {
	firstPath, secondPath, modelPath, _ := trainFixture(t, fixtureConfig(37))
	d, ts := startDaemonWith(t, firstPath, secondPath, modelPath, daemonOptions{maxInflight: 1})

	d.inflight <- struct{}{} // occupy the only slot
	defer func() { <-d.inflight }()
	resp, err := http.Post(ts.URL+"/v1/topk", "application/json", strings.NewReader(`{"id":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated admission: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response carries no Retry-After")
	}
}
