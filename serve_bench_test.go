package tdmatch

import (
	"fmt"
	"sync"
	"testing"
)

// serveBenchModel memoizes a mid-sized model (400 docs per side) so the
// serve benchmarks measure query cost, not Build.
var (
	serveBenchOnce  sync.Once
	serveBenchM     *Model
	serveBenchQuery string
)

// buildServeBenchModel synthesizes two corpora large enough that a flat
// scan has measurable cost, deterministically (no randomness).
func buildServeBenchModel(b *testing.B) (*Model, string) {
	b.Helper()
	serveBenchOnce.Do(func() {
		const n = 400
		directors := []string{"shyamalan", "tarantino", "coppola", "mctiernan", "scorsese", "bigelow", "nolan", "villeneuve"}
		genres := []string{"thriller", "drama", "crime", "action", "comedy", "horror"}
		stars := []string{"willis", "brando", "grier", "phoenix", "thurman", "deniro", "weaver", "oldman"}
		rows := make([][]string, n)
		snippets := make([]string, n)
		for i := 0; i < n; i++ {
			d, g, s := directors[i%len(directors)], genres[i%len(genres)], stars[i%len(stars)]
			rows[i] = []string{fmt.Sprintf("movie number %d", i), d, s, g}
			snippets[i] = fmt.Sprintf("%s directs %s in a %s about movie number %d", d, s, g, i)
		}
		movies, err := NewTable("movies", []string{"title", "director", "star", "genre"}, rows, nil)
		if err != nil {
			b.Fatal(err)
		}
		reviews, err := NewText("reviews", snippets, nil)
		if err != nil {
			b.Fatal(err)
		}
		cfg := Defaults()
		cfg.Seed = 1
		cfg.NumWalks = 4
		cfg.WalkLength = 10
		cfg.Dim = 48
		cfg.Epochs = 1
		m, err := Build(movies, reviews, cfg)
		if err != nil {
			b.Fatal(err)
		}
		serveBenchM = m
		for _, id := range reviews.IDs() {
			if m.Vector(id) != nil {
				serveBenchQuery = id
				break
			}
		}
	})
	if serveBenchQuery == "" {
		b.Fatal("no embedded query document")
	}
	return serveBenchM, serveBenchQuery
}

// benchServeTopK drives one server configuration over a fixed query.
func benchServeTopK(b *testing.B, sc ServeConfig) {
	m, query := buildServeBenchModel(b)
	s := NewServer(m, sc)
	defer s.Close()
	if _, err := s.TopK(query, 10); err != nil { // warm: fills the cache when enabled
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TopK(query, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeTopKCached measures a repeat query answered from the
// sharded LRU result cache — compare against BenchmarkServeTopKCold for
// the cache's speedup over the index scan.
func BenchmarkServeTopKCached(b *testing.B) {
	benchServeTopK(b, ServeConfig{})
}

// BenchmarkServeTopKCold measures the same query with caching disabled
// and no batching window: every operation pays the full index scan plus
// the hop through the collector goroutine, which runs a lone query at
// once as a batch of one. On a 2-vCPU Xeon that is 8.8–9.6 µs/op with
// 33 allocs, of which the hop is about 4 µs and 13 allocs.
func BenchmarkServeTopKCold(b *testing.B) {
	benchServeTopK(b, ServeConfig{CacheSize: -1, BatchWindow: -1})
}

// BenchmarkServeTopKColdBatched is BenchmarkServeTopKCold at the default
// window: a lone query waits out the window before it is scanned, so the
// difference between the two is what the window costs one client.
func BenchmarkServeTopKColdBatched(b *testing.B) {
	benchServeTopK(b, ServeConfig{CacheSize: -1})
}

// BenchmarkServeTopKBatch measures the fanned-out batch path: all query-
// side documents ranked in one TopKBatch call, caching disabled so every
// operation does the full sweep.
func BenchmarkServeTopKBatch(b *testing.B) {
	m, _ := buildServeBenchModel(b)
	s := NewServer(m, ServeConfig{CacheSize: -1})
	defer s.Close()
	ids := m.second.IDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TopKBatch(ids, 10)
	}
}
