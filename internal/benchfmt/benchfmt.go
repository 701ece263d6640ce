// Package benchfmt defines the shared schema of the BENCH_build.json
// performance trajectory and the append-preserving file handling both
// writers use: tools/benchjson (go test -bench results) and cmd/tdload
// (serving-latency measurements). One schema, one file — build-side
// ns/op and serve-side p50/p99/QPS land in the same append-only
// trajectory, comparable across PRs.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
)

// Result is one measurement: a benchmark's ns/op row, or one tdload
// concurrency level. The latency and throughput fields are zero (and
// omitted from JSON) for plain go-test benchmarks.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// P50Ns / P95Ns / P99Ns are request-latency percentiles and QPS the
	// achieved throughput of a load-harness run at Concurrency parallel
	// clients (cmd/tdload).
	P50Ns       float64 `json:"p50_ns,omitempty"`
	P95Ns       float64 `json:"p95_ns,omitempty"`
	P99Ns       float64 `json:"p99_ns,omitempty"`
	QPS         float64 `json:"qps,omitempty"`
	Concurrency int     `json:"concurrency,omitempty"`
	// RecallAt10 is the approximate index's recall@10 against the exact
	// flat ranking over the benchmark fixture, reported by the ANN TopK
	// benchmark (HNSW) via b.ReportMetric. Zero (omitted) for
	// exact indexes and non-retrieval benchmarks.
	RecallAt10 float64 `json:"recall_at_10,omitempty"`
	// TokensPerS is the training rate the Word2Vec benchmarks report via
	// b.ReportMetric: walk tokens trained per second. Zero (omitted) for
	// every other benchmark.
	TokensPerS float64 `json:"tokens_per_s,omitempty"`
}

// Entry is one trajectory point: the results of one run plus enough
// metadata to compare runs across machines and PRs.
type Entry struct {
	Label      string   `json:"label,omitempty"`
	RecordedAt string   `json:"recorded_at,omitempty"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPU        string   `json:"cpu,omitempty"`
	BenchTime  string   `json:"benchtime"`
	Benchmarks []Result `json:"benchmarks"`
}

// Trajectory is the BENCH_build.json payload: entries in append order,
// oldest first.
type Trajectory struct {
	Entries []Entry `json:"entries"`
}

// Read loads an existing trajectory file. A missing file starts an
// empty trajectory; a legacy single-entry payload (one bare report
// object, the pre-trajectory format) becomes the first entry.
func Read(path string) (Trajectory, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Trajectory{}, nil
	}
	if err != nil {
		return Trajectory{}, err
	}
	var traj Trajectory
	if err := json.Unmarshal(raw, &traj); err == nil && traj.Entries != nil {
		return traj, nil
	}
	var legacy Entry
	if err := json.Unmarshal(raw, &legacy); err == nil && len(legacy.Benchmarks) > 0 {
		return Trajectory{Entries: []Entry{legacy}}, nil
	}
	return Trajectory{}, fmt.Errorf("cannot parse %s as a trajectory or legacy report", path)
}

// Append reads the trajectory at path, appends the entry and writes the
// file back, returning the new entry count. Existing entries are always
// preserved.
func Append(path string, entry Entry) (int, error) {
	traj, err := Read(path)
	if err != nil {
		return 0, err
	}
	traj.Entries = append(traj.Entries, entry)
	enc, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return 0, err
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return 0, err
	}
	return len(traj.Entries), nil
}
