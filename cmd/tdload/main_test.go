package main

import (
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond // 1ms..100ms, sorted
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{0.50, 51 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := percentile(lats, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	one := []time.Duration{7 * time.Millisecond}
	if got := percentile(one, 0.99); got != 7*time.Millisecond {
		t.Errorf("percentile(single, .99) = %v", got)
	}
}

func TestParseConcurrency(t *testing.T) {
	got, err := parseConcurrency(" 1, 8 ,2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 8 || got[2] != 2 {
		t.Fatalf("parseConcurrency = %v", got)
	}
	for _, bad := range []string{"", "0", "-2", "a", "1,,x"} {
		if _, err := parseConcurrency(bad); err == nil {
			t.Errorf("parseConcurrency(%q) accepted", bad)
		}
	}
}

// TestRunLevelSmoke drives a real in-process server for a short window
// at two concurrency levels and checks the report is sane: nonzero
// query count and QPS, zero errors, ordered percentiles.
func TestRunLevelSmoke(t *testing.T) {
	model, ids, err := buildSynthModel(60, 16, "flat", 1)
	if err != nil {
		t.Fatal(err)
	}
	tg := newInproc(model, 0, false, -1)
	defer tg.Close()
	if err := tg.topk(ids[0], 5); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	for _, dist := range []string{"zipf", "uniform"} {
		for _, conc := range []int{1, 2} {
			lv := runLevel(tg, ids, 5, conc, 150*time.Millisecond, 0, dist, 1, 0, 2, 0)
			if lv.Queries == 0 || lv.QPS <= 0 {
				t.Fatalf("%s c=%d: no throughput: %+v", dist, conc, lv)
			}
			if lv.Errors != 0 {
				t.Fatalf("%s c=%d: %d errors", dist, conc, lv.Errors)
			}
			if lv.P50Ns > lv.P95Ns || lv.P95Ns > lv.P99Ns {
				t.Fatalf("%s c=%d: percentiles out of order: %+v", dist, conc, lv)
			}
		}
	}
}

// TestRunLevelWarmup checks that -warmup traffic reaches the target but
// stays out of the report: a warmed level's counters must look exactly
// like a cold one's (queries counted from the measured window only).
func TestRunLevelWarmup(t *testing.T) {
	model, ids, err := buildSynthModel(60, 16, "hnsw", 1)
	if err != nil {
		t.Fatal(err)
	}
	tg := newInproc(model, 0, false, -1)
	defer tg.Close()
	lv := runLevel(tg, ids, 5, 2, 100*time.Millisecond, 0, "uniform", 1, 0, 2, 40)
	if lv.Queries == 0 || lv.Errors != 0 {
		t.Fatalf("warmed level: %+v", lv)
	}
	if lv.DurationSec > 0.5 {
		t.Fatalf("warm-up leaked into the measured window: %.3fs", lv.DurationSec)
	}
}

// TestRunLevelPacing checks -qps throttling: a 200ms window offered 50
// QPS must complete far fewer queries than the closed loop would.
func TestRunLevelPacing(t *testing.T) {
	model, ids, err := buildSynthModel(60, 16, "flat", 1)
	if err != nil {
		t.Fatal(err)
	}
	tg := newInproc(model, 0, false, -1)
	defer tg.Close()
	lv := runLevel(tg, ids, 5, 2, 200*time.Millisecond, 50, "uniform", 1, 0, 2, 0)
	// 50 QPS over 200ms is ~10 queries; allow generous slack for timer
	// jitter but fail if the throttle clearly did not engage.
	if lv.Queries == 0 || lv.Queries > 30 {
		t.Fatalf("pacing off: %d queries in %.0fms at 50 QPS", lv.Queries, lv.DurationSec*1000)
	}
}

// TestRunLevelIngestMix verifies the -ingest-frac workload: a pure
// ingest level acknowledges mutations (unique IDs, so no conflicts)
// and reports them separately from queries and errors.
func TestRunLevelIngestMix(t *testing.T) {
	model, ids, err := buildSynthModel(60, 16, "flat", 1)
	if err != nil {
		t.Fatal(err)
	}
	tg := newInproc(model, 1, false, -1)
	defer tg.Close()
	lv := runLevel(tg, ids, 5, 2, 150*time.Millisecond, 0, "uniform", 1, 1.0, 2, 0)
	if lv.Errors != 0 {
		t.Fatalf("ingest mix: %d errors", lv.Errors)
	}
	if lv.Ingests == 0 {
		t.Fatalf("ingest mix acknowledged nothing: %+v", lv)
	}
	if lv.Ingests != lv.Queries {
		t.Fatalf("frac=1.0 level mixes %d ingests into %d requests", lv.Ingests, lv.Queries)
	}
}

// TestValidateWorkloadFlags pins the usage errors of the workload-shape
// flags: bad distributions, out-of-range ingest fractions and negative
// pacing rates are rejected before any work starts, and every valid
// combination — including a paced ingest mix — passes.
func TestValidateWorkloadFlags(t *testing.T) {
	for _, tc := range []struct {
		name       string
		dist       string
		ingestFrac float64
		qps        float64
		wantErr    bool
	}{
		{"defaults", "zipf", 0, 0, false},
		{"uniform paced", "uniform", 0, 500, false},
		{"paced ingest mix", "zipf", 0.25, 100, false},
		{"pure ingest", "zipf", 1, 0, false},
		{"unknown dist", "pareto", 0, 0, true},
		{"negative ingest frac", "zipf", -0.1, 0, true},
		{"ingest frac above one", "zipf", 1.5, 0, true},
		{"negative qps", "zipf", 0, -10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validateWorkloadFlags(tc.dist, tc.ingestFrac, tc.qps)
			if (err != nil) != tc.wantErr {
				t.Fatalf("validateWorkloadFlags(%q, %g, %g) = %v, wantErr %v",
					tc.dist, tc.ingestFrac, tc.qps, err, tc.wantErr)
			}
		})
	}
}
