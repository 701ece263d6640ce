//go:build linux

package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Workload names, fixed by BENCHMARK.json; later issues refer to them
// verbatim.
const (
	wlBatchIMDb  = "batch_imdb"
	wlServeScan  = "serve_scan"
	wlServeHot   = "serve_hot"
	wlServeANN   = "serve_ann"
	wlServeMixed = "serve_mixed"
)

// workloadNames lists the workloads in run order.
var workloadNames = []string{wlBatchIMDb, wlServeScan, wlServeHot, wlServeANN, wlServeMixed}

// metricKind says which run emits a metric and who gates on it.
type metricKind uint8

const (
	// kindEndToEnd metrics come from the untraced run of every workload
	// and are listed, with these bounds, in BENCHMARK.json.
	kindEndToEnd metricKind = iota
	// kindExtra metrics come from the untraced run of the workloads
	// named in on; they are printed and compared by -compare, but the
	// BENCHMARK.json contract (every end-to-end metric on every
	// workload) has no place for them.
	kindExtra
	// kindLayer metrics come from the traced run; unbounded.
	kindLayer
)

// metricDef describes one metric: its unit, which direction is better,
// and the share of the baseline median by which it may worsen before
// -compare calls it regressed.
type metricDef struct {
	name   string
	unit   string
	higher bool
	bound  float64
	kind   metricKind
	// on lists the workloads that emit a kindExtra metric.
	on []string
}

// metricDefs is the single table of every metric the harness emits;
// bench_test.go holds BENCHMARK.json to it.
var metricDefs = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "quality", unit: "ratio", higher: true, bound: 0.08},
	{name: "topk_p50_ms", unit: "ms", bound: 0.25},
	{name: "topk_p95_ms", unit: "ms", bound: 0.25},
	{name: "topk_qps", unit: "1/s", higher: true, bound: 0.25},
	{name: "ready_s", unit: "s", bound: 0.25},
	{name: "rss_mb", unit: "MB", bound: 0.25},

	{name: "build_s", unit: "s", bound: 0.25, kind: kindExtra, on: workloadNames},
	{name: "topk_p99_ms", unit: "ms", bound: 0.25, kind: kindExtra, on: workloadNames},
	{name: "mrr", unit: "ratio", higher: true, bound: 0.08, kind: kindExtra, on: []string{wlBatchIMDb, wlServeMixed}},
	{name: "recall_at_10", unit: "ratio", higher: true, bound: 0.005, kind: kindExtra, on: []string{wlServeScan, wlServeHot, wlServeANN, wlServeMixed}},
	{name: "matchall_qps", unit: "1/s", higher: true, bound: 0.25, kind: kindExtra, on: []string{wlBatchIMDb}},
	{name: "ingest_fold_p50_ms", unit: "ms", bound: 0.25, kind: kindExtra, on: []string{wlServeMixed}},
	{name: "ingest_p50_ms", unit: "ms", bound: 0.25, kind: kindExtra, on: []string{wlServeMixed}},
	{name: "compact_s", unit: "s", bound: 0.25, kind: kindExtra, on: []string{wlServeMixed}},
	{name: "recovery_s", unit: "s", bound: 0.25, kind: kindExtra, on: []string{wlServeMixed}},

	{name: "graph.build_ms", unit: "ms", kind: kindLayer},
	{name: "graph.nodes", unit: "count", kind: kindLayer},
	{name: "graph.edges", unit: "count", kind: kindLayer},
	{name: "graph.delta_us", unit: "us", kind: kindLayer},
	{name: "expand.expand_ms", unit: "ms", kind: kindLayer},
	{name: "expand.added_edges", unit: "count", kind: kindLayer},
	{name: "compress.msp_ms", unit: "ms", kind: kindLayer},
	{name: "compress.kept_edge_ratio", unit: "ratio", kind: kindLayer},
	{name: "walk.generate_ms", unit: "ms", kind: kindLayer},
	{name: "walk.tokens", unit: "count", kind: kindLayer},
	{name: "walk.delta_us", unit: "us", kind: kindLayer},
	{name: "embed.train_ms", unit: "ms", kind: kindLayer},
	{name: "embed.tokens_per_s", unit: "1/s", higher: true, kind: kindLayer},
	{name: "embed.delta_us", unit: "us", kind: kindLayer},
	{name: "match.flat_topk_us", unit: "us", kind: kindLayer},
	{name: "match.flat_gb_per_s", unit: "GB/s", higher: true, kind: kindLayer},
	{name: "match.hnsw_topk_us", unit: "us", kind: kindLayer},
	{name: "match.hnsw_recall_at_10", unit: "ratio", higher: true, kind: kindLayer},
	{name: "match.hnsw_build_ms", unit: "ms", kind: kindLayer},
	{name: "match.matchall_allocs_per_query", unit: "count", kind: kindLayer},
	{name: "match.matchall_bytes_per_query", unit: "B", kind: kindLayer},
	{name: "match.segments", unit: "count", kind: kindLayer},
	{name: "match.delta_docs", unit: "count", kind: kindLayer},
	{name: "model.topk_us", unit: "us", kind: kindLayer},
	{name: "model.build_self_ms", unit: "ms", kind: kindLayer},
	{name: "model.ingest_fold_us", unit: "us", kind: kindLayer},
	{name: "model.ingest_warm_us", unit: "us", kind: kindLayer},
	{name: "model.compact_ms", unit: "ms", kind: kindLayer},
	{name: "serve.topk_us", unit: "us", kind: kindLayer},
	{name: "serve.cached_topk_us", unit: "us", kind: kindLayer},
	{name: "serve.cache_hit_ratio", unit: "ratio", higher: true, kind: kindLayer},
	{name: "serve.batch_factor", unit: "ratio", higher: true, kind: kindLayer},
	{name: "serve.shed", unit: "count", kind: kindLayer},
	{name: "serve.ingest_us", unit: "us", kind: kindLayer},
	{name: "persist.save_v6_ms", unit: "ms", kind: kindLayer},
	{name: "persist.open_bind_ms", unit: "ms", kind: kindLayer},
	{name: "persist.corpus_load_ms", unit: "ms", kind: kindLayer},
	{name: "persist.snapshot_mb", unit: "MB", kind: kindLayer},
	{name: "wal.append_sync_us", unit: "us", kind: kindLayer},
	{name: "wal.bytes_per_ingest", unit: "B", kind: kindLayer},
	{name: "wal.syncs_per_ingest", unit: "ratio", kind: kindLayer},
	{name: "wal.replay_ms", unit: "ms", kind: kindLayer},
	{name: "daemon.topk_rtt_us", unit: "us", kind: kindLayer},
	{name: "daemon.ingest_rtt_us", unit: "us", kind: kindLayer},
}

// defOf looks a metric up by name.
func defOf(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// emits reports whether a run of workload wl with the given trace mode
// must emit the metric.
func (d metricDef) emits(wl string, traced bool) bool {
	switch d.kind {
	case kindLayer:
		return traced
	case kindExtra:
		if traced {
			return false
		}
		for _, w := range d.on {
			if w == wl {
				return true
			}
		}
		return false
	default:
		return !traced
	}
}

// metricValue is one measured value with its unit, the shape the
// driver reads from the last output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opCount is the attempted / failed / shed accounting of one operation
// type in one phase of a run.
type opCount struct {
	Op        string `json:"op"`
	Phase     string `json:"phase,omitempty"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Shed      int    `json:"shed"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Traced   bool                   `json:"traced"`
	Correct  bool                   `json:"correct"`
	Ops      []opCount              `json:"ops"`
	Metrics  map[string]metricValue `json:"metrics"`
	// Notes are the human-readable lines (sample counts, percentile
	// actually used, fixture shape, check failures) printed with the
	// metrics.
	Notes []string `json:"notes,omitempty"`

	order []string
}

func newResult(wl string, seed int64, traced bool) *result {
	return &result{Workload: wl, Seed: seed, Traced: traced, Correct: true, Metrics: map[string]metricValue{}}
}

// set records a metric; the unit comes from metricDefs. Setting an
// unknown metric, or one metric twice, is a harness bug.
func (r *result) set(name string, v float64) {
	d, ok := defOf(name)
	if !ok {
		panic("bench: metric " + name + " is not in metricDefs")
	}
	if _, dup := r.Metrics[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
	r.order = append(r.order, name)
}

// notef appends a human-readable note.
func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// failf records a failed output check: the run is no longer correct.
func (r *result) failf(format string, args ...any) {
	r.Correct = false
	r.notef("CHECK FAILED: "+format, args...)
}

// count adds one op/phase accounting row.
func (r *result) count(op, phase string, s *samples) {
	r.Ops = append(r.Ops, opCount{Op: op, Phase: phase, Attempted: s.attempted(), Failed: s.failed, Shed: s.shed})
}

// totals sums the accounting rows: shed requests count as failed in
// the driver's two-number view.
func (r *result) totals() (attempted, failed int) {
	for _, o := range r.Ops {
		attempted += o.Attempted
		failed += o.Failed + o.Shed
	}
	return attempted, failed
}

// fillMissing zeroes every metric this run must emit but did not
// measure: a layer the workload never exercises did no work.
func (r *result) fillMissing() {
	for _, d := range metricDefs {
		if _, ok := r.Metrics[d.name]; !ok && d.kind == kindLayer && d.emits(r.Workload, r.Traced) {
			r.set(d.name, 0)
		}
	}
}

// missed is the latency charged to a failed or shed request, so that it
// misses any latency limit a percentile is held to.
const missed = time.Hour

// samples is one latency set: per-operation durations plus the offset
// of each operation's start from the set's origin (used to tag reader
// samples with the phase they fell in), and the failure counts.
type samples struct {
	lat    []time.Duration
	at     []time.Duration
	failed int
	shed   int
}

// add records a successful operation.
func (s *samples) add(at, lat time.Duration) {
	s.at = append(s.at, at)
	s.lat = append(s.lat, lat)
}

// addMiss records a failed (or, with shed set, a 503-shed) operation at
// the missed latency.
func (s *samples) addMiss(at time.Duration, shed bool) {
	s.add(at, missed)
	if shed {
		s.shed++
	} else {
		s.failed++
	}
}

func (s *samples) attempted() int { return len(s.lat) }

// answered is the number of operations that succeeded.
func (s *samples) answered() int { return len(s.lat) - s.failed - s.shed }

// merge appends another set's samples and counts.
func (s *samples) merge(o *samples) {
	s.lat = append(s.lat, o.lat...)
	s.at = append(s.at, o.at...)
	s.failed += o.failed
	s.shed += o.shed
}

// between returns the samples whose operation started in [from, to).
// Misses in the window are counted as failed: the split between
// failed and shed is kept only on the whole set.
func (s *samples) between(from, to time.Duration) *samples {
	out := &samples{}
	for i, at := range s.at {
		if at >= from && at < to {
			out.add(at, s.lat[i])
			if s.lat[i] == missed {
				out.failed++
			}
		}
	}
	return out
}

// sorted returns the latencies in ascending order.
func (s *samples) sorted() []time.Duration { return sortedCopy(s.lat) }

// sortedCopy returns the durations in ascending order, leaving ds as
// it was.
func sortedCopy(ds []time.Duration) []time.Duration {
	out := slices.Clone(ds)
	slices.Sort(out)
	return out
}

// quantile reads the p-quantile of an ascending slice by nearest rank.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailQuantile returns the highest percentile at most want that still
// has ten samples beyond it, and the percentile it settled on.
func tailQuantile(sorted []time.Duration, want float64) (time.Duration, float64) {
	n := len(sorted)
	p := want
	if n > 0 {
		p = min(want, 1-10/float64(n))
	}
	p = max(p, 0.5)
	return quantile(sorted, p), p
}

// ms and us convert a duration to fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDur returns the median of a few timed repetitions: the middle
// one, or the mean of the middle two, so that two repetitions are not
// reduced to the faster.
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := sortedCopy(ds)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}
