// Command benchjson runs the key build- and serve-side benchmarks and
// appends their ns/op, B/op and allocs/op as one trajectory entry to a
// JSON file (BENCH_build.json by default), so the performance
// trajectory is tracked across PRs instead of living only in PR
// descriptions: old entries are preserved and the new entry is appended
// with a timestamp and an optional -label. Legacy single-entry files
// (one bare report object) are migrated into the first trajectory
// entry. CI regenerates the file as an artifact on every run; committed
// snapshots mark the state at a PR boundary.
//
// The trajectory schema lives in internal/benchfmt and is shared with
// cmd/tdload, whose latency/QPS measurements append to the same file.
//
// Usage:
//
//	go run ./tools/benchjson [-out BENCH_build.json] [-label pr4] [-benchtime 2x] [-bench regexp] [-pkg ". ./internal/embed"]
//
// The default benchmark set covers the training hot path (graph build,
// random walks, Skip-gram and CBOW Word2Vec at dim 48 and at the
// production dim 96 with their tokens/s, the single negative-sampling
// step of internal/embed over a cache-resident and a cache-missing
// arena, end-to-end Build) and the
// serving hot path (single and batched flat TopK, HNSW TopK,
// HNSW graph construction, cached serve TopK, and the MatchAll
// family). ANN TopK benchmarks also report
// recall@10 against the exact flat ranking, recorded per index kind in
// the trajectory's recall_at_10 field.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/tdmatch/tdmatch/internal/benchfmt"
)

// defaultBench selects the benchmarks that define the build/serve perf
// trajectory. BenchmarkIngestSingleDoc vs BenchmarkEndToEndPipeline is
// the ingest-vs-full-rebuild ratio (same corpora and configuration);
// BenchmarkIngestServerSingleDoc adds the serving layer's
// clone-and-swap on top. The BenchmarkIngestSegmented series (1x/4x/16x corpora) tracks the
// segmented core's O(delta) claim: the three scales must stay flat.
// The BenchmarkIngestWAL series prices durability: the same server
// ingest with a write-ahead log under each fsync policy, so the
// always/interval/never tax stays visible in the trajectory. The
// BenchmarkLoadSnapshot pair is the cold-start ratio: gob decode vs
// zero-copy v6 mmap, each from file open to the first TopK answer —
// the mmap side must stay >= 10x ahead. The BenchmarkTopKHNSW /
// BenchmarkBuildHNSW / BenchmarkSaveV6HNSW trio tracks the graph ANN
// path: uncached query latency next to its one-time construction price
// and the price of persisting it (no graph is built at save), with
// recall@10 alongside so the speedup is never bought with silent
// quality loss. BenchmarkTrainPair (internal/embed, the second default
// package) is the step under the Word2Vec four, per dim and per arena
// size, so a training regression can be told from a memory one.
const defaultBench = "BenchmarkWord2VecSkipGram(96)?$|BenchmarkWord2VecCBOW(96)?$|BenchmarkTrainPair$|BenchmarkRandomWalks$|" +
	"BenchmarkGraphBuild$|BenchmarkTopKMatch$|BenchmarkTopKBatch$|" +
	"BenchmarkTopKHNSW$|BenchmarkBuildHNSW$|BenchmarkSaveV6HNSW$|" +
	"BenchmarkMatchAllSerialFlat$|BenchmarkMatchAllParallelFlat$|" +
	"BenchmarkEndToEndPipeline$|BenchmarkServeTopKCached$|" +
	"BenchmarkIngestSingleDoc$|BenchmarkIngestServerSingleDoc$|" +
	"BenchmarkIngestSegmented/scale(1|4|16)x$|BenchmarkCompactOnline$|" +
	"BenchmarkIngestWAL/(always|interval|never)$|" +
	"BenchmarkLoadSnapshotGob$|BenchmarkLoadSnapshotMmap$"

// benchLine matches `go test -bench -benchmem` output rows, e.g.
// "BenchmarkRandomWalks-8  50  6449439 ns/op  4118728 B/op  23 allocs/op".
// Custom metrics print between ns/op and the -benchmem columns; the ANN
// benchmarks report one, "recall@10", and the Word2Vec benchmarks
// another, "tokens/s" (see bench_test.go), each captured here as an
// optional group.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) recall@10)?(?:\s+([\d.e+]+) tokens/s)?(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	out := flag.String("out", "BENCH_build.json", "output JSON path (appended to; old entries preserved)")
	label := flag.String("label", "", "label recorded on the new trajectory entry (e.g. a PR number)")
	benchTime := flag.String("benchtime", "2x", "go test -benchtime value")
	bench := flag.String("bench", defaultBench, "go test -bench regexp")
	pkg := flag.String("pkg", ". ./internal/embed", "packages to benchmark, space-separated")
	flag.Parse()

	args := append([]string{"test", "-run", "^$", "-bench", *bench,
		"-benchmem", "-benchtime", *benchTime, "-count", "1"}, strings.Fields(*pkg)...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	start := time.Now()
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}

	entry := benchfmt.Entry{
		Label:      *label,
		RecordedAt: start.UTC().Format(time.RFC3339),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		BenchTime:  *benchTime,
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			entry.CPU = cpu
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		var recall float64
		if m[4] != "" {
			recall, _ = strconv.ParseFloat(m[4], 64)
		}
		var tokensPerS float64
		if m[5] != "" {
			tokensPerS, _ = strconv.ParseFloat(m[5], 64)
		}
		var bytesOp, allocsOp int64
		if m[6] != "" {
			bytesOp, _ = strconv.ParseInt(m[6], 10, 64)
		}
		if m[7] != "" {
			allocsOp, _ = strconv.ParseInt(m[7], 10, 64)
		}
		entry.Benchmarks = append(entry.Benchmarks, benchfmt.Result{
			Name:        strings.TrimPrefix(m[1], "Benchmark"),
			Iterations:  iters,
			NsPerOp:     ns,
			BytesPerOp:  bytesOp,
			AllocsPerOp: allocsOp,
			RecallAt10:  recall,
			TokensPerS:  tokensPerS,
		})
	}
	if len(entry.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results parsed")
		os.Exit(1)
	}

	count, err := benchfmt.Append(*out, entry)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: appended entry %d (%d results) to %s in %s\n",
		count, len(entry.Benchmarks), *out, time.Since(start).Round(time.Millisecond))
}
