// Command tdload is the serving-latency load harness: it drives TopK
// queries at one or more fixed concurrency levels — against an
// in-process Server (a model snapshot or a synthetic build) or a
// running tdserved daemon over HTTP — and reports achieved QPS plus
// p50/p95/p99 request latency per level as JSON. With -out/-label the
// levels are also appended to the BENCH_build.json performance
// trajectory (internal/benchfmt), next to the go-test benchmark
// entries, so serving latency is tracked across PRs with the same
// tooling as build-side ns/op.
//
// Usage:
//
//	tdload -synth 2000 -index hnsw -concurrency 1,8 -duration 3s
//	tdload -first movies.csv -second reviews.txt -model model.gob -concurrency 2
//	tdload -addr http://localhost:8080 -ids queries.txt -qps 500
//
// Queries are drawn from the query-side document IDs with a Zipf
// (default) or uniform distribution; -qps throttles total offered load
// (0 = closed loop, each worker fires as fast as answers return). The
// result cache is disabled by default so latencies measure the index
// scan, not cache hits; -cache re-enables it to measure the production
// mix. -warmup N fires N discarded read-only queries per level before
// its measured window — cold-start effects (page faults on a mapped
// snapshot, pool spin-up) stay out of the percentiles; warm-up traffic
// is never paced, -qps throttles only the measured window. -min-qps
// turns the harness into a smoke check: exit status 1 when any level
// undershoots, for CI.
//
// -ingest-frac mixes single-document ingest mutations into the load
// (each with a unique generated ID), reporting acknowledged ingests per
// level. Mutations draw from the same -qps token budget as reads: the
// total offered rate stays at -qps, with roughly ingest-frac of it
// spent on ingests, so read throughput under pacing drops by about that
// fraction rather than mutations arriving on top. Against a daemon
// running with -wal this is the durability drill: kill -TERM the daemon
// mid-run, restart it, and every ingest tdload reported as acknowledged
// must still be served — 503 sheds during the drain are counted
// separately and do not fail the run.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/tdmatch/tdmatch"
	"github.com/tdmatch/tdmatch/internal/benchfmt"
)

func main() {
	var (
		synthN     = flag.Int("synth", 0, "build a synthetic in-process model with this many documents per side")
		indexKind  = flag.String("index", "flat", "index kind for -synth: flat or hnsw")
		dim        = flag.Int("dim", 48, "embedding dimension for -synth")
		firstPath  = flag.String("first", "", "first corpus file (snapshot mode, as passed to the training run)")
		secondPath = flag.String("second", "", "second corpus file (snapshot mode)")
		modelPath  = flag.String("model", "", "model snapshot written by tdmatch -save (snapshot mode)")
		addr       = flag.String("addr", "", "base URL of a running tdserved (HTTP mode, e.g. http://localhost:8080)")
		idsPath    = flag.String("ids", "", "file of query document IDs, one per line (required with -addr, optional override otherwise)")
		k          = flag.Int("k", 10, "matches requested per query")
		duration   = flag.Duration("duration", 3*time.Second, "measurement duration per concurrency level")
		concList   = flag.String("concurrency", "1,4", "comma-separated concurrency levels, each run for -duration")
		qps        = flag.Float64("qps", 0, "total offered queries per second, ingest mutations included (0 = closed loop, unthrottled)")
		dist       = flag.String("dist", "zipf", "query-ID distribution: zipf or uniform")
		seed       = flag.Int64("seed", 1, "seed for query selection (and the synthetic build)")
		workers    = flag.Int("workers", 0, "serving worker-pool size (0 = model default, GOMAXPROCS)")
		cache      = flag.Bool("cache", false, "enable the result cache (disabled by default so latency measures the scan)")
		batchWin   = flag.Duration("batch-window", -1, "micro-batch coalescing window (negative = none: batch only what is already queued, 0 = 200µs)")
		out        = flag.String("out", "", "append the levels to this benchfmt trajectory file (e.g. BENCH_build.json)")
		label      = flag.String("label", "", "trajectory entry label recorded with -out")
		minQPS     = flag.Float64("min-qps", 0, "exit nonzero when any level's achieved QPS is below this")
		ingestFrac = flag.Float64("ingest-frac", 0, "fraction of requests that are single-doc ingest mutations, drawn per request (0 = read-only); under -qps pacing, mutations spend the same token budget as reads, so offered load stays qps total and read throughput drops by roughly the fraction")
		ingestSide = flag.Int("ingest-side", 2, "corpus side the generated ingest documents join")
		warmupN    = flag.Int("warmup", 0, "discarded read-only iterations per concurrency level before the measured window; warm-up traffic is unpaced (-qps throttles only the measured window)")
	)
	flag.Parse()

	levels, err := parseConcurrency(*concList)
	if err != nil {
		fatal(err)
	}
	if err := validateWorkloadFlags(*dist, *ingestFrac, *qps); err != nil {
		fatal(err)
	}

	var (
		tg   target
		ids  []string
		mode string
	)
	switch {
	case *addr != "":
		if *idsPath == "" {
			fatal(fmt.Errorf("-addr requires -ids (the daemon does not list query IDs)"))
		}
		ids, err = readIDs(*idsPath)
		if err != nil {
			fatal(err)
		}
		tg = &httpTarget{base: strings.TrimRight(*addr, "/")}
		mode = "http"
	case *modelPath != "":
		model, queryIDs, err := loadSnapshotModel(*firstPath, *secondPath, *modelPath)
		if err != nil {
			fatal(err)
		}
		tg, ids = newInproc(model, *workers, *cache, *batchWin), queryIDs
		mode = "snapshot"
	case *synthN > 0:
		model, queryIDs, err := buildSynthModel(*synthN, *dim, *indexKind, *seed)
		if err != nil {
			fatal(err)
		}
		tg, ids = newInproc(model, *workers, *cache, *batchWin), queryIDs
		mode = "synth"
	default:
		fmt.Fprintln(os.Stderr, "tdload: one of -synth, -model or -addr is required")
		flag.Usage()
		os.Exit(2)
	}
	if c, ok := tg.(io.Closer); ok {
		defer c.Close()
	}
	if *idsPath != "" && mode != "http" {
		if ids, err = readIDs(*idsPath); err != nil {
			fatal(err)
		}
	}
	if len(ids) == 0 {
		fatal(fmt.Errorf("no query IDs to draw from"))
	}

	// One warm query so lazily-allocated serving state (HTTP connections,
	// pool goroutines) is paid before the measured window.
	if err := tg.topk(ids[0], *k); err != nil {
		fatal(fmt.Errorf("warm-up query %q failed: %w", ids[0], err))
	}

	rep := report{Mode: mode, Dist: *dist, K: *k, QueryIDs: len(ids)}
	for _, conc := range levels {
		fmt.Fprintf(os.Stderr, "tdload: level c=%d for %s...\n", conc, *duration)
		rep.Levels = append(rep.Levels, runLevel(tg, ids, *k, conc, *duration, *qps, *dist, *seed, *ingestFrac, *ingestSide, *warmupN))
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}

	if *out != "" {
		entry := benchfmt.Entry{
			Label:      *label,
			RecordedAt: time.Now().UTC().Format(time.RFC3339),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			BenchTime:  duration.String(),
		}
		for _, lv := range rep.Levels {
			entry.Benchmarks = append(entry.Benchmarks, benchfmt.Result{
				Name:        fmt.Sprintf("TdloadTopK/c%d", lv.Concurrency),
				Iterations:  lv.Queries,
				NsPerOp:     lv.MeanNs,
				P50Ns:       float64(lv.P50Ns),
				P95Ns:       float64(lv.P95Ns),
				P99Ns:       float64(lv.P99Ns),
				QPS:         lv.QPS,
				Concurrency: lv.Concurrency,
			})
		}
		n, err := benchfmt.Append(*out, entry)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tdload: appended entry %d (%d levels) to %s\n", n, len(entry.Benchmarks), *out)
	}

	for _, lv := range rep.Levels {
		if *minQPS > 0 && lv.QPS < *minQPS {
			fmt.Fprintf(os.Stderr, "tdload: level c=%d achieved %.1f QPS, below -min-qps %.1f\n",
				lv.Concurrency, lv.QPS, *minQPS)
			os.Exit(1)
		}
		if lv.Errors > 0 {
			fmt.Fprintf(os.Stderr, "tdload: level c=%d had %d errors\n", lv.Concurrency, lv.Errors)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tdload:", err)
	os.Exit(1)
}

// report is the stdout payload: one levelReport per -concurrency entry.
type report struct {
	Mode     string        `json:"mode"`
	Dist     string        `json:"dist"`
	K        int           `json:"k"`
	QueryIDs int           `json:"query_ids"`
	Levels   []levelReport `json:"levels"`
}

// levelReport is the measurement of one concurrency level.
type levelReport struct {
	Concurrency int   `json:"concurrency"`
	Queries     int64 `json:"queries"`
	Errors      int64 `json:"errors"`
	// Sheds counts 503/overload refusals — deliberate degradation, not
	// failures; Ingests counts acknowledged (durable, when the daemon
	// runs with -wal) mutations of a mixed -ingest-frac workload.
	Sheds       int64   `json:"sheds"`
	Ingests     int64   `json:"ingests"`
	DurationSec float64 `json:"duration_sec"`
	QPS         float64 `json:"qps"`
	MeanNs      float64 `json:"mean_ns"`
	P50Ns       int64   `json:"p50_ns"`
	P95Ns       int64   `json:"p95_ns"`
	P99Ns       int64   `json:"p99_ns"`
}

// errShed marks a request the target deliberately refused under
// overload or drain (HTTP 503, ErrOverloaded): the harness counts it
// separately from hard errors so a graceful-degradation run — tdload
// hammering a daemon while it drains on SIGTERM — still exits 0.
var errShed = errors.New("shed")

// target answers one TopK query or applies one ingest; the harness
// never looks at the ranking, only at latency and success.
type target interface {
	topk(id string, k int) error
	ingest(doc tdmatch.IngestDoc) error
}

// inprocTarget drives an in-process Server directly — no HTTP or JSON
// on the measured path, so latency is the serving pipeline itself.
type inprocTarget struct {
	s *tdmatch.Server
}

func (t *inprocTarget) topk(id string, k int) error {
	_, err := t.s.TopK(id, k)
	if errors.Is(err, tdmatch.ErrOverloaded) {
		return errShed
	}
	return err
}

func (t *inprocTarget) ingest(doc tdmatch.IngestDoc) error {
	return t.s.Ingest([]tdmatch.IngestDoc{doc})
}

// Close stops the wrapped Server's collector goroutine.
func (t *inprocTarget) Close() error {
	t.s.Close()
	return nil
}

// newInproc wraps a model in a Server configured for the harness.
func newInproc(model *tdmatch.Model, workers int, cache bool, batchWin time.Duration) *inprocTarget {
	cacheSize := -1
	if cache {
		cacheSize = 0 // default size
	}
	return &inprocTarget{s: tdmatch.NewServer(model, tdmatch.ServeConfig{
		CacheSize:   cacheSize,
		BatchWindow: batchWin,
		Workers:     workers,
	})}
}

// httpTarget posts /v1/topk and /v1/ingest to a running tdserved.
type httpTarget struct {
	client http.Client
	base   string
}

func (t *httpTarget) topk(id string, k int) error {
	return t.post("/v1/topk", map[string]any{"id": id, "k": k})
}

func (t *httpTarget) ingest(doc tdmatch.IngestDoc) error {
	return t.post("/v1/ingest", map[string]any{"docs": []map[string]any{{
		"side": doc.Side, "id": doc.ID, "values": doc.Values,
	}}})
}

func (t *httpTarget) post(path string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := t.client.Post(t.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		return errShed
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return nil
}

// validateWorkloadFlags checks the workload-shape flags as one unit —
// the query distribution, the ingest mix and the pacing rate — so every
// misuse is a clean usage error instead of a surprising run (a negative
// -qps, for instance, would silently disable pacing).
func validateWorkloadFlags(dist string, ingestFrac, qps float64) error {
	if dist != "zipf" && dist != "uniform" {
		return fmt.Errorf("unknown -dist %q (want zipf or uniform)", dist)
	}
	if ingestFrac < 0 || ingestFrac > 1 {
		return fmt.Errorf("-ingest-frac %g out of range [0, 1]", ingestFrac)
	}
	if qps < 0 {
		return fmt.Errorf("-qps %g is negative (use 0 for an unthrottled closed loop)", qps)
	}
	return nil
}

// runLevel drives conc workers against the target for dur and folds
// their measurements into one levelReport. Each worker owns a seeded
// RNG (seed + worker index), so runs are reproducible for a fixed
// level list; qps > 0 paces each worker at qps/conc with per-worker
// phase offsets so the aggregate offered load is smooth.
//
// warmup > 0 first fires that many read-only queries (split across the
// conc workers, same ID distribution, offset seed) whose latencies are
// discarded — cold caches, first-touch page faults and JIT'd connection
// state land outside the measured window. Warm-up traffic ignores -qps:
// pacing starts with the measured window, so a paced run still warms at
// full speed.
func runLevel(tg target, ids []string, k, conc int, dur time.Duration, qps float64, dist string, seed int64, ingestFrac float64, ingestSide int, warmup int) levelReport {
	if warmup > 0 {
		var wwg sync.WaitGroup
		for w := 0; w < conc; w++ {
			wwg.Add(1)
			go func(w int) {
				defer wwg.Done()
				rng := rand.New(rand.NewSource(seed + 104729 + int64(w)*7919))
				var zipf *rand.Zipf
				if dist == "zipf" && len(ids) > 1 {
					zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(ids)-1))
				}
				for i := w; i < warmup; i += conc {
					id := ids[0]
					if zipf != nil {
						id = ids[zipf.Uint64()]
					} else if len(ids) > 1 {
						id = ids[rng.Intn(len(ids))]
					}
					tg.topk(id, k) // discarded: neither latency nor errors count
				}
			}(w)
		}
		wwg.Wait()
	}
	type workerOut struct {
		lats    []time.Duration
		errs    int64
		sheds   int64
		ingests int64
	}
	outs := make([]workerOut, conc)
	var interval time.Duration
	if qps > 0 {
		interval = time.Duration(float64(conc) / qps * float64(time.Second))
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			var zipf *rand.Zipf
			if dist == "zipf" && len(ids) > 1 {
				zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(ids)-1))
			}
			next := start.Add(time.Duration(w) * interval / time.Duration(conc))
			o := &outs[w]
			o.lats = make([]time.Duration, 0, 4096)
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				if interval > 0 {
					if sleep := next.Sub(now); sleep > 0 {
						time.Sleep(sleep)
						if !time.Now().Before(deadline) {
							return
						}
					}
					next = next.Add(interval)
				}
				var err error
				var wasIngest bool
				t0 := time.Now()
				if ingestFrac > 0 && rng.Float64() < ingestFrac {
					// A unique document per attempt: an acked ingest is a
					// durable write the daemon's WAL must preserve across a
					// concurrent kill -TERM.
					wasIngest = true
					o.ingests++ // counted as attempted, rolled back below on failure
					docID := fmt.Sprintf("load:c%d_w%d_%d", conc, w, len(o.lats))
					err = tg.ingest(tdmatch.IngestDoc{
						Side:   ingestSide,
						ID:     docID,
						Values: []string{"load harness generated document " + docID},
					})
				} else {
					id := ids[0]
					if zipf != nil {
						id = ids[zipf.Uint64()]
					} else if len(ids) > 1 {
						id = ids[rng.Intn(len(ids))]
					}
					err = tg.topk(id, k)
				}
				o.lats = append(o.lats, time.Since(t0))
				if err != nil {
					if wasIngest {
						o.ingests--
					}
					if errors.Is(err, errShed) {
						o.sheds++
					} else {
						o.errs++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	var errs, sheds, ingests int64
	for _, o := range outs {
		all = append(all, o.lats...)
		errs += o.errs
		sheds += o.sheds
		ingests += o.ingests
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var sum time.Duration
	for _, l := range all {
		sum += l
	}
	lv := levelReport{
		Concurrency: conc,
		Queries:     int64(len(all)),
		Errors:      errs,
		Sheds:       sheds,
		Ingests:     ingests,
		DurationSec: elapsed.Seconds(),
		P50Ns:       int64(percentile(all, 0.50)),
		P95Ns:       int64(percentile(all, 0.95)),
		P99Ns:       int64(percentile(all, 0.99)),
	}
	if len(all) > 0 {
		lv.QPS = float64(len(all)) / elapsed.Seconds()
		lv.MeanNs = float64(sum) / float64(len(all))
	}
	return lv
}

// percentile reads the p-quantile (0 <= p <= 1) of an ascending-sorted
// latency slice by nearest-rank interpolation.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted)-1) + 0.5)
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// parseConcurrency splits "1,4,16" into sorted-as-given positive levels.
func parseConcurrency(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid -concurrency level %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-concurrency is empty")
	}
	return out, nil
}

// readIDs loads query IDs, one per line, skipping blanks and #comments.
func readIDs(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ids = append(ids, line)
	}
	return ids, nil
}

// loadSnapshotModel mirrors tdserved's startup load: decode the
// snapshot once, bind it to the two corpora named in its metadata, and
// return the query-side (second corpus) IDs that have stored vectors.
func loadSnapshotModel(firstPath, secondPath, modelPath string) (*tdmatch.Model, []string, error) {
	if firstPath == "" || secondPath == "" {
		return nil, nil, fmt.Errorf("-model requires -first and -second")
	}
	f, err := os.Open(modelPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	snap, err := tdmatch.ReadSnapshot(f)
	if err != nil {
		return nil, nil, err
	}
	info := snap.Info()
	first, err := tdmatch.LoadCorpus(firstPath, info.FirstName)
	if err != nil {
		return nil, nil, fmt.Errorf("loading first corpus: %w", err)
	}
	second, err := tdmatch.LoadCorpus(secondPath, info.SecondName)
	if err != nil {
		return nil, nil, fmt.Errorf("loading second corpus: %w", err)
	}
	model, err := snap.Bind(first, second)
	if err != nil {
		return nil, nil, err
	}
	ids := embeddedIDs(model, second.IDs())
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("no document of corpus %q has a stored vector — wrong corpus files for this snapshot?", second.Name())
	}
	return model, ids, nil
}

// buildSynthModel trains a small deterministic model over synthetic
// movie/review corpora (the shape of the serve benchmarks) with n
// documents per side.
func buildSynthModel(n, dim int, indexKind string, seed int64) (*tdmatch.Model, []string, error) {
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
	movies, err := tdmatch.NewTable("movies", []string{"title", "director", "star", "genre"}, rows, nil)
	if err != nil {
		return nil, nil, err
	}
	reviews, err := tdmatch.NewText("reviews", snippets, nil)
	if err != nil {
		return nil, nil, err
	}
	cfg := tdmatch.Defaults()
	cfg.Seed = seed
	cfg.NumWalks = 4
	cfg.WalkLength = 10
	cfg.Dim = dim
	cfg.Epochs = 1
	if cfg.Index, err = tdmatch.ParseIndexKind(indexKind); err != nil {
		return nil, nil, err
	}
	model, err := tdmatch.Build(movies, reviews, cfg)
	if err != nil {
		return nil, nil, err
	}
	ids := embeddedIDs(model, reviews.IDs())
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("synthetic build produced no embedded query documents")
	}
	return model, ids, nil
}

// embeddedIDs filters candidate IDs down to those with stored vectors —
// the ones a TopK query can be answered for.
func embeddedIDs(m *tdmatch.Model, candidates []string) []string {
	var ids []string
	for _, id := range candidates {
		if m.Vector(id) != nil {
			ids = append(ids, id)
		}
	}
	return ids
}
