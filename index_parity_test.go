package tdmatch

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/tdmatch/tdmatch/internal/datasets"
)

// Serving parity tests on the seed IMDb dataset: every ranking path
// agrees with the exact scan (hnsw_parity_test.go holds the approximate
// kind to its recall bar against it).

func buildIMDbModel(t *testing.T, mutate func(*Config)) *Model {
	t.Helper()
	s, err := datasets.IMDb(datasets.IMDbConfig{
		Seed: 3, Movies: 60, WithTitle: true, GeneralSentences: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := &Corpus{c: s.First}
	second := &Corpus{c: s.Second}
	cfg := smallConfig()
	cfg.Workers = 1
	if mutate != nil {
		mutate(&cfg)
	}
	model, err := Build(first, second, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestCrossKernelDeterminismOnIMDb is the deterministic-ordering
// invariant: on the seed IMDb dataset, every ranking path — the serial
// single-query scan, the blocked multi-query kernel at several worker
// counts, and Model.TopKBatch over mixed sides — must return identical
// rankings, identical score ties broken by ID in the same order.
func TestCrossKernelDeterminismOnIMDb(t *testing.T) {
	model := buildIMDbModel(t, nil)
	const k = 10
	queries := append(append([]string(nil), model.first.IDs()...), model.second.IDs()...)

	// Serial single-query reference for every live query.
	want := map[string][]Match{}
	for _, q := range queries {
		if model.vectors[q] != nil {
			matches, err := model.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			want[q] = matches
		}
	}
	if len(want) < 100 {
		t.Fatalf("only %d live queries — fixture too small", len(want))
	}

	// Batched MatchAll, at worker counts exercising both serial and
	// pooled batch dispatch.
	for _, workers := range []int{1, 3, 8} {
		all := model.MatchAllWorkers(true, k, workers)
		for _, q := range model.second.IDs() {
			if want[q] == nil {
				continue
			}
			if !reflect.DeepEqual(all[q], want[q]) {
				t.Fatalf("MatchAllWorkers(%d) diverged for %s:\nbatch:  %v\nserial: %v",
					workers, q, all[q], want[q])
			}
		}
	}

	// Model.TopKBatch over both sides mixed, plus failure slots.
	mixed := append(append([]string(nil), queries...), "nope:q")
	for i, res := range model.TopKBatch(mixed, k) {
		if res.ID != mixed[i] {
			t.Fatalf("batch result %d misaligned: %s vs %s", i, res.ID, mixed[i])
		}
		if w := want[res.ID]; w != nil {
			if res.Err != nil || !reflect.DeepEqual(res.Matches, w) {
				t.Fatalf("TopKBatch diverged for %s (err %v)", res.ID, res.Err)
			}
		} else if res.Err == nil {
			t.Fatalf("TopKBatch(%s) must fail like TopK does", res.ID)
		}
	}
}

func TestMatchAllWorkersEquivalence(t *testing.T) {
	model := buildIMDbModel(t, nil)
	serial := model.MatchAllWorkers(true, 5, 1)
	parallel := model.MatchAllWorkers(true, 5, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("worker counts change coverage: %d vs %d", len(serial), len(parallel))
	}
	for q, want := range serial {
		if !reflect.DeepEqual(parallel[q], want) {
			t.Fatalf("parallel MatchAll diverged for %s:\nserial:   %v\nparallel: %v", q, want, parallel[q])
		}
	}
}

func TestBuildStagesPopulateStats(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := model.Stats()
	// Without expansion or compression, each later stage must report the
	// graph-creation sizes unchanged — the seed's contract.
	if st.ExpandedNodes != st.GraphNodes || st.ExpandedEdges != st.GraphEdges {
		t.Errorf("expansion stage changed sizes without a resource: %+v", st)
	}
	if st.CompressedNodes != st.ExpandedNodes || st.CompressedEdges != st.ExpandedEdges {
		t.Errorf("compression stage changed sizes while off: %+v", st)
	}
	if st.Walks == 0 || st.TrainTime <= 0 || st.BuildTime < st.TrainTime {
		t.Errorf("stage timings wrong: %+v", st)
	}
}

// TestConcurrentServingPaths reads one model from many goroutines at
// once through every query path: the model holds no lock and builds
// nothing lazily, so under -race any write a query made would show.
func TestConcurrentServingPaths(t *testing.T) {
	movies, reviews := fixtureCorpora(t)
	cfg := smallConfig()
	cfg.Workers = 1 // serial training; the serving calls below are the concurrent part
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := append(movies.IDs(), reviews.IDs()...)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range reviews.IDs() {
				if _, err := model.TopK(q, 2); err != nil {
					t.Error(err)
				}
			}
			for _, res := range model.TopKBatchWorkers(queries, 2, 2) {
				if res.Err != nil {
					t.Error(res.Err)
				}
			}
			if all := model.MatchAllWorkers(true, 2, 2); len(all) == 0 {
				t.Error("MatchAllWorkers ranked no query")
			}
		}()
	}
	wg.Wait()
}

// TestMatchAllAllocsPerQuery bounds the serial MatchAll sweep's heap
// allocations and bytes per query. The scan's working memory is pooled,
// each kernel call cuts its rankings from one slab in the type MatchAll
// returns, and a lone segment hands them through, so what is left is
// the rankings themselves (k Matches a query), the result map and
// per-batch bookkeeping: under half an allocation and 600 B a query.
// Sorting, merging or converting per query (ten or more allocations a
// query), or a per-call copy of the queries or IDs, trips it.
func TestMatchAllAllocsPerQuery(t *testing.T) {
	model := buildIMDbModel(t, nil)
	const k = 10
	queries := len(model.MatchAllWorkers(true, k, 1))
	if queries < 100 {
		t.Fatalf("only %d queries — fixture too small to amortize per-call costs", queries)
	}
	allocs := testing.AllocsPerRun(5, func() { model.MatchAllWorkers(true, k, 1) })
	per := allocs / float64(queries)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		model.MatchAllWorkers(true, k, 1)
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*queries)
	t.Logf("%.0f allocations for %d queries, %.2f a query; %.0f B a query", allocs, queries, per, bytesPer)
	if per > 0.5 {
		t.Errorf("MatchAllWorkers(…, 1) made %.0f allocations for %d queries, %.2f a query; want at most 0.5", allocs, queries, per)
	}
	if bytesPer > 600 {
		t.Errorf("MatchAllWorkers(…, 1) allocated %.0f B a query; want at most 600", bytesPer)
	}
}
