//go:build linux

// Command bench is the repository benchmark: five named workloads,
// from the paper's batch Build to a real tdserved under mixed reads and
// writes, measured end to end without tracing and layer by layer with
// it. BENCHMARK.json at the repository root is its contract; README.md
// in this directory is its manual.
//
// Usage, from the repository root:
//
//	go run ./bench [-workload name|all] [-seed N] [-seconds S] [-trace 0|1]
//	               [-repeat N] [-out file]
//	go run ./bench -compare base.json change.json
//
// Every metric is printed as one "workload metric value unit" line;
// the last line of standard output is one JSON object per the
// BENCHMARK.json contract. The exit status is non-zero when an output
// check failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	repeat   int
	out      string
	compare  bool
	sz       sizes
}

// mainExit is main without the process exit, so the smoke test can
// call it.
func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{sz: defaultSizes}
	trace := 0
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated fixture, query order and ingest document")
	fs.IntVar(&o.seconds, "seconds", 10, "measuring window of one run in seconds")
	fs.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and bench/out/trace.json")
	fs.IntVar(&o.repeat, "repeat", 1, "runs per workload, on consecutive seeds")
	fs.StringVar(&o.out, "out", "", "also write every run's result to this JSON file (the input of -compare)")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments: base.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.traced = trace != 0
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: base.json change.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	results, err := runAll(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, res := range results {
		if !res.Correct {
			return 1
		}
	}
	return 0
}

// selected resolves the -workload flag.
func selected(name string) ([]string, error) {
	if name == "all" {
		return workloadNames, nil
	}
	for _, w := range workloadNames {
		if w == name {
			return []string{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
}

// repoRoot finds the repository root — the directory holding go.mod —
// from the working directory upwards: go run starts the harness in the
// root, go test in bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "tdserved")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the tdmatch repository (no go.mod with cmd/tdserved above the working directory)")
		}
		dir = parent
	}
}

// runAll runs the selected workloads repeat times each, printing
// results as they come, and returns them.
func runAll(o options, stdout io.Writer) ([]*result, error) {
	workloads, err := selected(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildDaemon(root, out)
	if err != nil {
		return nil, err
	}
	logf := func(format string, args ...any) { fmt.Fprintf(stdout, "# "+format+"\n", args...) }
	printHeader(logf, root, o)

	var tr *tracer
	if o.traced {
		tr = &tracer{}
	}
	var results []*result
	for rep := 0; rep < o.repeat; rep++ {
		for _, wl := range workloads {
			seed := o.seed + int64(rep)
			dir, err := os.MkdirTemp(out, "run-")
			if err != nil {
				return nil, err
			}
			r := &run{
				wl: wl, seed: seed, window: time.Duration(o.seconds) * time.Second, sz: o.sz,
				dir: dir, bin: bin, res: newResult(wl, seed, o.traced), tr: tr, logf: logf,
			}
			logf("run %s seed %d traced %t", wl, seed, o.traced)
			res, err := r.execute()
			os.RemoveAll(dir)
			if err != nil {
				return nil, err
			}
			printResult(stdout, res)
			results = append(results, res)
		}
	}
	if tr != nil {
		path := filepath.Join(out, "trace.json")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		logf("%d spans written to %s", len(tr.spans), path)
	}
	if o.out != "" {
		if err := writeResults(o.out, results); err != nil {
			return nil, err
		}
	}
	// The contract's last line: one JSON object per run, the final run's
	// last of all.
	for _, res := range results {
		if err := printContractLine(stdout, res); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// printHeader records what the numbers were measured on.
func printHeader(logf func(string, ...any), root string, o options) {
	logf("tdmatch bench: nproc %d, GOMAXPROCS %d, cpu %q, %s %s/%s, commit %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit(root))
	logf("seed %d, seconds %d, traced %t, repeat %d, workload %s", o.seed, o.seconds, o.traced, o.repeat, o.workload)
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit names the measured commit: the VCS stamp of the harness
// binary when there is one, else git's HEAD, else "unknown" (the
// driver's checkout is not a git repository).
func commit(root string) string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// printResult prints a run's notes, accounting rows and metrics, one
// "workload metric value unit" line per metric.
func printResult(w io.Writer, res *result) {
	for _, n := range res.Notes {
		fmt.Fprintf(w, "# %s %s\n", res.Workload, n)
	}
	for _, o := range res.Ops {
		phase := ""
		if o.Phase != "" {
			phase = " phase=" + o.Phase
		}
		fmt.Fprintf(w, "# %s ops %s%s: attempted %d failed %d shed %d\n", res.Workload, o.Op, phase, o.Attempted, o.Failed, o.Shed)
	}
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %v %s\n", res.Workload, name, m.Value, m.Unit)
	}
}

// printContractLine prints the JSON object the driver reads: exactly
// the end-to-end metrics of an untraced run, the per-layer metrics of
// a traced one.
func printContractLine(w io.Writer, res *result) error {
	metrics := map[string]metricValue{}
	for name, m := range res.Metrics {
		if d, _ := defOf(name); d.kind != kindExtra {
			metrics[name] = m
		}
	}
	attempted, failed := res.totals()
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
