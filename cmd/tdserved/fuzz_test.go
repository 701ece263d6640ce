package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"github.com/tdmatch/tdmatch"
)

// fuzzEndpoints are the endpoints FuzzHandlers posts to, picked by the
// input's first value.
var fuzzEndpoints = []string{"/v1/topk", "/v1/batch", "/v1/ingest", "/v1/remove"}

// FuzzHandlers posts arbitrary bodies to the four JSON endpoints of one
// daemon, serving a v6 snapshot whose corpora it has not parsed (the
// first mutation that gets through parses them) behind a 4 KiB body
// cap. Whatever the body, the handler must not panic, must answer a
// status a client can act on — 200, 400, 404, 409, 413 or 503, never
// 500 — and must answer JSON. Mutations that succeed accumulate in the
// served model across inputs. The seeds are valid and broken requests
// for each endpoint; the committed corpus under
// testdata/fuzz/FuzzHandlers adds a table-side ingest, an ingest whose
// ID is an attribute label and an over-cap body.
func FuzzHandlers(f *testing.F) {
	firstPath, secondPath, modelPath, _ := trainFixture(f, fixtureConfig(5))
	log.SetOutput(io.Discard)
	f.Cleanup(func() { log.SetOutput(os.Stderr) })
	d, err := newDaemon(firstPath, secondPath, modelPath, tdmatch.ServeConfig{Workers: 1}, 5, daemonOptions{maxBody: 4 << 10})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(d.server.Close)
	h := newHandler(d)

	for _, seed := range []struct {
		endpoint byte
		body     string
	}{
		{0, `{"id":"reviews:p0","k":3}`},
		{0, `{"id":"movies:t1"}`},
		{0, `{"id":"nope","k":-1}`},
		{1, `{"ids":["reviews:p0","movies:t2","nope"],"k":2}`},
		{1, `{"ids":[""]}`},
		{2, `{"docs":[{"side":2,"id":"reviews:new","values":["Willis in a Tarantino drama"]}]}`},
		{2, `{"docs":[{"side":3,"id":"x"}]}`},
		{2, `{"docs":[{"side":2,"id":"reviews:p0","values":["again"]}]}`},
		{3, `{"ids":["reviews:p5"]}`},
		{3, `{"ids":["nope","nope"]}`},
		{3, `not json`},
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, endpoint byte, body []byte) {
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict,
			http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %q: status %d with a body that is not JSON: %q", path, body, rec.Code, rec.Body)
		}
	})
}
