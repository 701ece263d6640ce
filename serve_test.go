package tdmatch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// serveTestCorpora builds a small movie/review pair with enough token
// overlap that every document gets an embedding.
func serveTestCorpora(t testing.TB) (*Corpus, *Corpus) {
	t.Helper()
	movies, err := NewTable("movies",
		[]string{"title", "director", "star", "genre"},
		[][]string{
			{"The Sixth Sense", "Shyamalan", "Bruce Willis", "Thriller"},
			{"Pulp Fiction", "Tarantino", "Bruce Willis", "Drama"},
			{"The Godfather", "Coppola", "Marlon Brando", "Crime"},
			{"Jackie Brown", "Tarantino", "Pam Grier", "Crime"},
			{"Die Hard", "McTiernan", "Bruce Willis", "Action"},
			{"The Village", "Shyamalan", "Joaquin Phoenix", "Thriller"},
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reviews, err := NewText("reviews", []string{
		"Willis sees dead people in this tense Shyamalan thriller",
		"a hilarious Tarantino movie starring Willis",
		"Brando rules the crime family in a timeless Coppola masterpiece",
		"Grier carries this Tarantino crime homage",
		"Willis fights terrorists in a McTiernan action classic",
		"Phoenix wanders a Shyamalan village thriller",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return movies, reviews
}

// serveTestConfig is a laptop-instant pipeline configuration for serving
// tests. Workers is 1 because hogwild training is deliberately racy (see
// Config.Workers) and these tests run under -race; serving concurrency is
// exercised via ServeConfig.Workers instead.
func serveTestConfig(seed int64) Config {
	cfg := Defaults()
	cfg.Seed = seed
	cfg.NumWalks = 6
	cfg.WalkLength = 10
	cfg.Dim = 24
	cfg.Epochs = 1
	cfg.Workers = 1
	return cfg
}

// buildServeTestModel trains the shared test model (memoized — the
// pipeline is deterministic per seed).
var serveModelCache sync.Map // seed → *Model

func buildServeTestModel(t testing.TB, seed int64) *Model {
	t.Helper()
	if m, ok := serveModelCache.Load(seed); ok {
		return m.(*Model)
	}
	first, second := serveTestCorpora(t)
	m, err := Build(first, second, serveTestConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	serveModelCache.Store(seed, m)
	return m
}

func TestResultCacheLRUAndCounters(t *testing.T) {
	c := newResultCache(cacheShardCount) // one entry per shard
	key := func(i int) cacheKey {
		return cacheKey{docID: fmt.Sprintf("doc%d", i), k: 5, gen: 1, fp: 42}
	}
	if _, ok := c.get(key(0)); ok {
		t.Fatal("empty cache reported a hit")
	}
	for i := 0; i < 100; i++ {
		c.put(key(i), []Match{{ID: "m", Score: float64(i)}})
	}
	if n := c.len(); n > cacheShardCount {
		t.Errorf("cache holds %d entries, capacity %d", n, cacheShardCount)
	}
	// Refreshing an existing key must not grow the cache.
	c.purge()
	if c.len() != 0 {
		t.Fatal("purge left entries behind")
	}
	c.put(key(1), []Match{{ID: "m", Score: 1}})
	c.put(key(1), []Match{{ID: "m", Score: 2}})
	if c.len() != 1 {
		t.Errorf("duplicate put grew the cache to %d entries", c.len())
	}
	got, ok := c.get(key(1))
	if !ok || got[0].Score != 2 {
		t.Errorf("get after refresh = %v, %v", got, ok)
	}
	// Returned slices are copies: mutating one must not poison the cache.
	got[0].Score = -1
	again, _ := c.get(key(1))
	if again[0].Score != 2 {
		t.Error("cache entry mutated through a returned slice")
	}
	hits, misses := c.counters()
	if hits != 2 || misses == 0 {
		t.Errorf("counters = %d hits, %d misses", hits, misses)
	}
	// Generation is part of the key: the same query under a new
	// generation misses.
	bumped := key(1)
	bumped.gen = 2
	if _, ok := c.get(bumped); ok {
		t.Error("cache served an entry across generations")
	}

	var disabled *resultCache
	disabled.put(key(0), nil)
	if _, ok := disabled.get(key(0)); ok {
		t.Error("nil cache reported a hit")
	}
	if disabled.len() != 0 {
		t.Error("nil cache reports entries")
	}
	disabled.purge() // must not panic
}

func TestServerTopKMatchesModelAndCaches(t *testing.T) {
	m := buildServeTestModel(t, 1)
	s := NewServer(m, ServeConfig{})
	defer s.Close()

	want, err := m.TopK("reviews:p0", 3)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.TopK("reviews:p0", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, want) {
		t.Errorf("served ranking %v != model ranking %v", cold, want)
	}
	// The cold result is the caller's: mutating it must not poison the
	// cache entry filled by the same call.
	cold[0] = Match{ID: "corrupted", Score: -99}
	warm, err := s.TopK("reviews:p0", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Errorf("cached ranking %v != model ranking %v", warm, want)
	}
	st := s.Stats()
	if st.CacheHits == 0 {
		t.Errorf("no cache hit recorded: %+v", st)
	}
	if st.Queries != 2 || st.CacheEntries != 1 {
		t.Errorf("stats = %+v, want 2 queries and 1 entry", st)
	}

	if _, err := s.TopK("nosuch:doc", 3); err == nil {
		t.Error("unknown document did not error")
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
}

// blockingCtx is a context whose second Err call closes entered and then
// blocks until release is closed. TopKCtx
// calls Err once on the caller's goroutine before queueing, and the
// collector calls it again when it executes the batch, so a query
// carrying this context holds the collector inside that batch.
type blockingCtx struct {
	context.Context
	calls   atomic.Int32
	entered chan struct{}
	release chan struct{}
}

func (c *blockingCtx) Err() error {
	if c.calls.Add(1) == 2 {
		close(c.entered)
		<-c.release
	}
	return nil
}

// TestServerCoalescesConcurrentQueries pins batching with no window: the
// queries that arrive while the collector is busy with one batch are all
// served together by the next.
func TestServerCoalescesConcurrentQueries(t *testing.T) {
	m := buildServeTestModel(t, 1)
	s := NewServer(m, ServeConfig{CacheSize: -1, BatchWindow: -1, Workers: 4})
	defer s.Close()

	ids := m.second.IDs()
	const rounds = 4
	queued := rounds * len(ids)
	var wg sync.WaitGroup
	errs := make(chan error, queued+1)
	query := func(ctx context.Context, id string) {
		defer wg.Done()
		if _, err := s.TopKCtx(ctx, id, 2); err != nil {
			errs <- fmt.Errorf("%s: %w", id, err)
		}
	}
	plug := &blockingCtx{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{})}
	wg.Add(1)
	go query(plug, ids[0])
	<-plug.entered
	for r := 0; r < rounds; r++ {
		for _, id := range ids {
			wg.Add(1)
			go query(context.Background(), id)
		}
	}
	for len(s.reqs) < queued {
		time.Sleep(10 * time.Microsecond)
	}
	close(plug.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if st.BatchedQueries != uint64(queued+1) {
		t.Errorf("batched %d queries, want %d", st.BatchedQueries, queued+1)
	}
	if st.Batches != 2 {
		t.Errorf("batches = %d, want 2: the held one and one for the %d queries queued behind it", st.Batches, queued)
	}
}

func TestServerTopKBatch(t *testing.T) {
	m := buildServeTestModel(t, 1)
	s := NewServer(m, ServeConfig{Workers: 3})
	defer s.Close()

	ids := append(m.second.IDs(), "nosuch:doc")
	results := s.TopKBatch(ids, 3)
	if len(results) != len(ids) {
		t.Fatalf("got %d results for %d queries", len(results), len(ids))
	}
	for i, res := range results[:len(results)-1] {
		if res.Err != nil {
			t.Fatalf("%s: %v", ids[i], res.Err)
		}
		want, err := m.TopK(ids[i], 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.ID != ids[i] || !reflect.DeepEqual(res.Matches, want) {
			t.Errorf("batch result %d = %+v, want %v for %s", i, res, want, ids[i])
		}
	}
	if last := results[len(results)-1]; last.Err == nil {
		t.Error("unknown document in batch did not error")
	}
}

func TestServerReloadSwapsWithoutDroppingQueries(t *testing.T) {
	m1 := buildServeTestModel(t, 1)
	m2 := buildServeTestModel(t, 2)
	s := NewServer(m1, ServeConfig{BatchWindow: 50 * time.Microsecond, Workers: 4})
	defer s.Close()

	if err := s.Reload(nil); err == nil {
		t.Fatal("Reload(nil) did not error")
	}

	ids := m1.second.IDs()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
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
				id := ids[(w+i)%len(ids)]
				if _, err := s.TopK(id, 2); err != nil && !errors.Is(err, ErrServerClosed) {
					select {
					case errs <- fmt.Errorf("%s: %w", id, err):
					default:
					}
					return
				}
			}
		}(w)
	}
	const swaps = 20
	models := [2]*Model{m1, m2}
	for i := 0; i < swaps; i++ {
		if err := s.Reload(models[(i+1)%2]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if st.Reloads != swaps {
		t.Errorf("reloads = %d, want %d", st.Reloads, swaps)
	}
	// After the final swap the server serves m1's rankings again.
	want, err := models[swaps%2].TopK(ids[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.TopK(ids[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-reload ranking %v != active model's %v", got, want)
	}
}

func TestServerCloseFailsPendingQueries(t *testing.T) {
	m := buildServeTestModel(t, 1)
	s := NewServer(m, ServeConfig{})
	s.Close()
	s.Close() // idempotent
	if _, err := s.TopK(m.second.IDs()[0], 2); !errors.Is(err, ErrServerClosed) {
		t.Errorf("TopK after Close = %v, want ErrServerClosed", err)
	}
}

// TestServerDisabledCacheAndBatching checks the path with no cache and no
// window: every query is scored and none is cached, and a lone
// sequential query is a batch of its own.
func TestServerDisabledCacheAndBatching(t *testing.T) {
	m := buildServeTestModel(t, 1)
	s := NewServer(m, ServeConfig{CacheSize: -1, BatchWindow: -1})
	defer s.Close()
	id := m.second.IDs()[0]
	want, err := m.TopK(id, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	for i := 0; i < n; i++ {
		got, err := s.TopK(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("served ranking %v != model ranking %v", got, want)
		}
	}
	st := s.Stats()
	if st.CacheHits != 0 || st.CacheEntries != 0 {
		t.Errorf("disabled cache still counted: %+v", st)
	}
	if st.Queries != n || st.Batches != n || st.BatchedQueries != n {
		t.Errorf("%d lone queries: queries %d, batches %d, batched queries %d; want all %d",
			n, st.Queries, st.Batches, st.BatchedQueries, n)
	}
}

// TestServerLoneQueryIsNotHeld pins the negative BatchWindow: with
// nothing else queued, an uncached query is scored as soon as the
// collector receives it. A timed window would cost about 1 ms on Linux
// whatever its nominal length, because an idle Go runtime rounds its
// sleep up to a whole millisecond.
func TestServerLoneQueryIsNotHeld(t *testing.T) {
	m := buildServeTestModel(t, 1)
	s := NewServer(m, ServeConfig{CacheSize: -1, BatchWindow: -1})
	defer s.Close()
	id := m.second.IDs()[0]
	lat := make([]time.Duration, 101)
	for i := range lat {
		start := time.Now()
		if _, err := s.TopK(id, 3); err != nil {
			t.Fatal(err)
		}
		lat[i] = time.Since(start)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if med := lat[len(lat)/2]; med >= 500*time.Microsecond {
		t.Errorf("median lone uncached TopK took %s, want under 0.5ms (min %s, max %s)", med, lat[0], lat[len(lat)-1])
	}
}

// TestServerCheckpointBesideWarmIngest pins that a checkpoint saves a
// model no ingest mutates: an Ingest that lands while the off-lock save
// runs must leave the pinned model's term vectors as they were. The
// ingest inside the first save checks this deterministically; the
// concurrent rounds after it are for -race.
func TestServerCheckpointBesideWarmIngest(t *testing.T) {
	m := buildServeTestModel(t, 1)
	s := NewServer(m, ServeConfig{Workers: 1})
	defer s.Close()
	doc := func(i int) []IngestDoc {
		return []IngestDoc{{Side: 2, ID: fmt.Sprintf("reviews:ckpt%d", i), Values: []string{"a Tarantino crime story with Willis"}}}
	}
	if err := s.Ingest(doc(0)); err != nil {
		t.Fatal(err)
	}
	err := s.Checkpoint(func(pinned *Model) error {
		_, before := pinned.termVectors()
		if err := s.Ingest(doc(1)); err != nil {
			return err
		}
		if _, after := pinned.termVectors(); !reflect.DeepEqual(before, after) {
			return errors.New("an ingest during the save changed the pinned model's term vectors")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := s.Checkpoint(func(pinned *Model) error { return pinned.Save(io.Discard) }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 2; i < 5; i++ {
		if err := s.Ingest(doc(i)); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
}

// TestServerIngestServesImmediatelyAndInvalidatesCache is the live-
// ingest contract: after Server.Ingest the very same (query, k) that
// was cached pre-ingest must be answered against the new corpus — the
// generation bump and mutated index fingerprints make stale entries
// unreachable — while the original model object stays untouched.
func TestServerIngestServesImmediatelyAndInvalidatesCache(t *testing.T) {
	m := buildServeTestModel(t, 1)
	s := NewServer(m, ServeConfig{})
	defer s.Close()

	query := m.first.IDs()[1] // Pulp Fiction
	k := m.second.Len() + 1   // covers every review, current and future
	before, err := s.TopK(query, k)
	if err != nil {
		t.Fatal(err)
	}
	// Query again so the ranking is resident in the cache.
	if _, err := s.TopK(query, k); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits == 0 {
		t.Fatalf("pre-ingest ranking not cached: %+v", st)
	}

	if err := s.Ingest([]IngestDoc{
		{Side: 2, ID: "reviews:live", Values: []string{"another Tarantino crime story with Willis"}},
	}); err != nil {
		t.Fatal(err)
	}
	after, err := s.TopK(query, k)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, mt := range after {
		if mt.ID == "reviews:live" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingested doc absent from post-ingest ranking — stale cache?\nbefore: %v\nafter:  %v", before, after)
	}
	// The ingested doc answers queries itself.
	if _, err := s.TopK("reviews:live", 3); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Ingests != 1 || st.IngestedDocs != 1 || st.Staleness != 1 {
		t.Errorf("ingest counters = %+v", st)
	}

	// Remove swaps again and the doc disappears from rankings and
	// queries.
	if err := s.Remove([]string{"reviews:live"}); err != nil {
		t.Fatal(err)
	}
	gone, err := s.TopK(query, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range gone {
		if mt.ID == "reviews:live" {
			t.Error("removed doc still ranked after the swap")
		}
	}
	if _, err := s.TopK("reviews:live", 3); err == nil {
		t.Error("removed doc still answers queries")
	}
	st = s.Stats()
	if st.Removes != 1 || st.RemovedDocs != 1 || st.Staleness != 2 {
		t.Errorf("remove counters = %+v", st)
	}
	// A failed mutation leaves the served model alone.
	if err := s.Ingest([]IngestDoc{{Side: 9, ID: "bad"}}); err == nil {
		t.Error("invalid ingest must fail")
	}
	if err := s.Remove([]string{"nosuch:doc"}); err == nil {
		t.Error("removing an unknown doc must fail")
	}
	if st := s.Stats(); st.Ingests != 1 || st.Removes != 1 {
		t.Errorf("failed mutations bumped counters: %+v", st)
	}

	// The original model object was never mutated (Server.Ingest clones).
	if m.Staleness() != 0 {
		t.Errorf("original model staleness = %d, want 0", m.Staleness())
	}
	if _, ok := m.second.c.Doc("reviews:live"); ok {
		t.Error("original model's corpus gained the ingested doc")
	}
}

// TestServerIngestUnderConcurrentQueries hammers TopK from several
// goroutines while ingests and removals swap the model — every query
// must succeed against whichever generation it lands on. Run with
// -race in CI.
func TestServerIngestUnderConcurrentQueries(t *testing.T) {
	m := buildServeTestModel(t, 1)
	s := NewServer(m, ServeConfig{Workers: 4})
	defer s.Close()
	ids := m.second.IDs()
	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				if _, err := s.TopK(ids[(w+i)%len(ids)], 3); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("reviews:live%d", i)
		if err := s.Ingest([]IngestDoc{{Side: 2, ID: id, Values: []string{"a Shyamalan thriller with Willis"}}}); err != nil {
			t.Error(err)
			break
		}
		if err := s.Remove([]string{id}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if st := s.Stats(); st.Ingests != 5 || st.Removes != 5 || st.Staleness != 10 {
		t.Errorf("mutation counters = %+v", st)
	}
}

// TestServerCompactUnderConcurrentTraffic races queries and live
// ingests against background compactions — the online-compaction
// guarantee: serving never blocks, no query ever fails, the generation
// counter only moves forward, and the swap invalidates cached rankings.
// Run with -race in CI.
func TestServerCompactUnderConcurrentTraffic(t *testing.T) {
	m := buildServeTestModel(t, 1)
	s := NewServer(m, ServeConfig{Workers: 4, CacheSize: 64})
	defer s.Close()
	ids := m.second.IDs()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Query hammer: every TopK must succeed against whichever model
	// generation it lands on, compaction swaps included.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.TopK(ids[(w+i)%len(ids)], 3); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Generation monitor: swaps (ingest, remove, compact) must install
	// strictly increasing generations — a scrape can never observe a
	// rollback.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g := s.Stats().Generation; g < last {
				t.Errorf("generation went backwards: %d after %d", g, last)
				return
			} else {
				last = g
			}
		}
	}()
	// Mutator: ingest/remove cycles racing the compactions below.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("reviews:churn%d", i)
			if err := s.Ingest([]IngestDoc{{Side: 2, ID: id, Values: []string{"a Shyamalan thriller with Willis"}}}); err != nil {
				t.Error(err)
				return
			}
			if err := s.Remove([]string{id}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Foreground: three compactions under full traffic, plus one
	// deliberate concurrent call — the loser must get ErrCompacting,
	// never a corrupted swap.
	for i := 0; i < 3; i++ {
		errc := make(chan error, 1)
		go func() { errc <- s.Compact() }()
		err1 := s.Compact()
		err2 := <-errc
		for _, err := range []error{err1, err2} {
			if err != nil && !errors.Is(err, ErrCompacting) {
				t.Fatalf("compact: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()

	st := s.Stats()
	if st.Compactions < 3 {
		t.Errorf("compactions = %d, want >= 3", st.Compactions)
	}
	if st.Errors != 0 {
		t.Errorf("queries failed under compaction: %d errors", st.Errors)
	}

	// Cache invalidation across the swap, deterministically: prime a
	// ranking into the cache, compact, and re-ask — the post-swap query
	// must recompute (a cache miss) and agree with the swapped-in model,
	// not replay the pre-swap ranking.
	q := ids[0]
	if _, err := s.TopK(q, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest([]IngestDoc{{Side: 2, ID: "reviews:final", Values: []string{"a haunted ghost story"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	missesBefore := s.Stats().CacheMisses
	got, err := s.TopK(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().CacheMisses == missesBefore {
		t.Error("post-compaction query served from the pre-swap cache")
	}
	want, err := s.Model().TopK(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-compaction ranking diverged from the served model:\ngot:  %v\nwant: %v", got, want)
	}
	if st := s.Stats(); st.Staleness != 0 {
		t.Errorf("staleness after quiescent compact = %d, want 0", st.Staleness)
	}
}

// TestServerTrainingLeavesAProcessor pins the bound the serving layer
// puts on build-side work: every compaction a Server starts beside its
// queries, on the model it serves before and after ingests, runs with
// one worker fewer than there are processors, never more than
// configured and never fewer than one, while the query fan-out and the
// caller's own model keep Config.Workers.
func TestServerTrainingLeavesAProcessor(t *testing.T) {
	for _, tc := range []struct{ workers, n, want int }{
		{workers: 4, n: 3, want: 3},
		{workers: 4, n: 1, want: 1},
		{workers: 2, n: 7, want: 2}, // never above Config.Workers
		{workers: 4, n: 0, want: 1}, // a single processor: one worker still
		{workers: 1, n: 0, want: 1},
	} {
		m := &Model{cfg: Config{Workers: tc.workers}}
		m.limitBuild(tc.n)
		if got := m.buildWorkers(); got != tc.want {
			t.Errorf("Workers %d limited to %d: buildWorkers = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}

	// Two processors: one for training, one for the queries.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	first, second := serveTestCorpora(t)
	m, err := Build(first, second, serveTestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// Built with one worker (hogwild training is racy and this test runs
	// under -race), then presented as a model configured for four: the
	// bound brings the compaction below back to one.
	m.cfg.Workers = 4
	s := NewServer(m, ServeConfig{})
	defer s.Close()
	check := func(after string) {
		t.Helper()
		served := s.Model()
		if got := served.buildWorkers(); got != 1 {
			t.Errorf("after %s: build workers = %d, want 1", after, got)
		}
		if served.cfg.Workers != 4 {
			t.Errorf("after %s: query fan-out Workers = %d, want the configured 4", after, served.cfg.Workers)
		}
	}

	if err := s.Ingest([]IngestDoc{{Side: 2, ID: "reviews:warm", Values: []string{"a Tarantino crime story with Willis"}}}); err != nil {
		t.Fatal(err)
	}
	check("an ingest")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check("a compaction")
	if err := s.Ingest([]IngestDoc{{Side: 2, ID: "reviews:later", Values: []string{"Brando in a Coppola crime classic"}}}); err != nil {
		t.Fatal(err)
	}
	check("an ingest on the compacted model")
	if _, err := s.TopK("reviews:later", 3); err != nil {
		t.Errorf("ingested document does not answer: %v", err)
	}

	// The caller's model is not the one that was bounded.
	if got := m.buildWorkers(); got != 4 || m.buildCap != 0 {
		t.Errorf("caller's model: build workers = %d, buildCap = %d; want 4 and 0", got, m.buildCap)
	}
}
