//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesMetricTable holds BENCHMARK.json to metricDefs: the
// same workloads, and every end-to-end and per-layer metric with the
// same unit, direction and bound.
func TestSpecMatchesMetricTable(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloadNames)
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	check := func(kind metricKind, listed []specMetric) {
		want := map[string]metricDef{}
		for _, d := range metricDefs {
			if d.kind == kind {
				want[d.name] = d
			}
		}
		for _, m := range listed {
			d, ok := want[m.Name]
			if !ok {
				t.Errorf("BENCHMARK.json lists %s, which the harness does not emit in that run", m.Name)
				continue
			}
			delete(want, m.Name)
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
			}
			if m.Unit != d.unit || m.Better != better(d) || m.Bound != d.bound {
				t.Errorf("%s: BENCHMARK.json says %s/%s/%v, metricDefs says %s/%s/%v",
					m.Name, m.Unit, m.Better, m.Bound, d.unit, better(d), d.bound)
			}
		}
		for name := range want {
			t.Errorf("harness emits %s but BENCHMARK.json does not list it", name)
		}
	}
	check(kindEndToEnd, spec.EndToEnd)
	check(kindLayer, spec.PerLayer)
}

// tinySizes shrinks every fixture so that all five workloads, traced
// and untraced, run in well under a minute; workers 1 makes training
// deterministic.
var tinySizes = sizes{
	imdbMovies: 8, builds: 2,
	scanRows: 300, annRows: 300, hotSet: 50,
	mixedMovies: 6, foldRate: 20, warmRate: 5,
	checks: 40, coldStarts: 2, restarts: 2,
	ladderOps: 60, ladderIngests: 6, ladderWarm: 3,
	workers: 1,
}

// daemonChildren lists this process's tdserved children still in the
// process table, zombies included — anything the harness started and
// did not reap.
func daemonChildren(t *testing.T) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// "pid (comm) state ppid ..."
		open, end := bytes.IndexByte(stat, '('), bytes.LastIndexByte(stat, ')')
		if open < 0 || end < open {
			continue
		}
		fields := strings.Fields(string(stat[end+1:]))
		if string(stat[open+1:end]) == "tdserved" && len(fields) > 1 && fields[1] == strconv.Itoa(os.Getpid()) {
			pids = append(pids, pid)
		}
	}
	return pids
}

// smokeRun runs the harness in process on tiny fixtures with a
// one-second window and checks what every run emitted.
func smokeRun(t *testing.T, workload string, traced bool) map[string]*result {
	t.Helper()
	var out bytes.Buffer
	results, err := runAll(options{workload: workload, seed: 7, seconds: 1, traced: traced, repeat: 1, sz: tinySizes}, &out)
	if err != nil {
		t.Fatalf("traced=%t: %v\n%s", traced, err, out.String())
	}
	if left := daemonChildren(t); len(left) > 0 {
		t.Errorf("traced=%t: tdserved children not reaped: %v", traced, left)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	by := map[string]*result{}
	for i, res := range results {
		by[res.Workload] = res
		if !res.Correct {
			t.Errorf("%s traced=%t: output check failed: %v", res.Workload, traced, res.Notes)
		}
		want := map[string]metricDef{}
		for _, d := range metricDefs {
			if d.emits(res.Workload, traced) {
				want[d.name] = d
			}
		}
		for name, m := range res.Metrics {
			d, ok := want[name]
			if !ok {
				t.Errorf("%s traced=%t: unexpected metric %s", res.Workload, traced, name)
				continue
			}
			delete(want, name)
			if m.Unit == "" || m.Unit != d.unit {
				t.Errorf("%s %s: unit %q, want %q", res.Workload, name, m.Unit, d.unit)
			}
			if d.kind == kindEndToEnd && m.Value <= 0 {
				t.Errorf("%s %s = %v: an end-to-end metric is never 0", res.Workload, name, m.Value)
			}
			// Exactly one "workload metric value unit" line.
			n := 0
			for _, l := range lines {
				if strings.HasPrefix(l, res.Workload+" "+name+" ") {
					n++
				}
			}
			if n != 1 {
				t.Errorf("%s %s printed %d times, want once", res.Workload, name, n)
			}
		}
		for name := range want {
			t.Errorf("%s traced=%t: metric %s not emitted", res.Workload, traced, name)
		}

		// The contract line: the last len(results) lines, in run order.
		var line struct {
			Correct   *bool                  `json:"correct"`
			Attempted *int                   `json:"attempted"`
			Failed    *int                   `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		raw := lines[len(lines)-len(results)+i]
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("%s contract line %q: %v", res.Workload, raw, err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
			t.Errorf("%s contract line lacks correct/attempted/failed: %s", res.Workload, raw)
		}
		for _, d := range metricDefs {
			_, has := line.Metrics[d.name]
			if should := d.kind != kindExtra && d.emits(res.Workload, traced); has != should {
				t.Errorf("%s traced=%t contract line: %s present=%t, want %t", res.Workload, traced, d.name, has, should)
			}
		}
	}
	return by
}

// TestSmoke runs every workload, untraced and traced, on tiny fixtures:
// every workload and metric BENCHMARK.json names is emitted exactly
// once with its unit, counts repeat exactly for a fixed seed, and no
// daemon outlives its run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts tdserved subprocesses")
	}
	smokeRun(t, "all", false)
	first := smokeRun(t, "all", true)
	for _, wl := range []string{wlBatchIMDb, wlServeMixed} {
		again := smokeRun(t, wl, true)
		for _, count := range []string{"graph.nodes", "graph.edges", "walk.tokens", "wal.syncs_per_ingest"} {
			a, b := first[wl].Metrics[count].Value, again[wl].Metrics[count].Value
			if a != b {
				t.Errorf("%s %s: %v then %v for the same seed", wl, count, a, b)
			}
		}
	}
	if _, err := os.Stat(filepath.Join("out", "trace.json")); err != nil {
		t.Errorf("traced run left no trace: %v", err)
	}
}

// TestMedianDur: an even number of repetitions is not reduced to the
// faster of the middle two.
func TestMedianDur(t *testing.T) {
	for _, tc := range []struct {
		in   []time.Duration
		want time.Duration
	}{{nil, 0}, {[]time.Duration{7}, 7}, {[]time.Duration{30, 10}, 20}, {[]time.Duration{9, 1, 5}, 5}, {[]time.Duration{4, 1, 3, 2}, 2}} {
		if got := medianDur(tc.in); got != tc.want {
			t.Errorf("medianDur(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "x", bound: 0.10}
	for _, tc := range []struct {
		base, change []float64
		want         string
	}{
		{[]float64{10, 10.1, 9.9, 10}, []float64{10.2, 10.3, 10.1, 10.2}, "ok"},
		{[]float64{10, 10.1, 9.9, 10}, []float64{12, 12.1, 11.9, 12}, "regressed"},
		{[]float64{10, 12, 8, 10}, []float64{12, 14, 10, 12}, "unresolved"},
		{[]float64{10, 10.1, 9.9, 10}, []float64{8, 8.1, 7.9, 8}, "ok"},
	} {
		if _, _, got := verdict(lower, tc.base, tc.change); got != tc.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", tc.base, tc.change, got, tc.want)
		}
	}
	higher := metricDef{name: "y", higher: true, bound: 0.10}
	if _, _, got := verdict(higher, []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}); got != "regressed" {
		t.Errorf("a higher-is-better metric that fell 20%% is %s, want regressed", got)
	}
}
