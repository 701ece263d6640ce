//go:build linux

package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"github.com/tdmatch/tdmatch"
	"github.com/tdmatch/tdmatch/internal/metrics"
)

// run is the state of one run of one workload.
type run struct {
	wl     string
	seed   int64
	window time.Duration // the -seconds measuring window
	sz     sizes
	dir    string // scratch directory, removed when the run ends
	bin    string // the built tdserved
	res    *result
	tr     *tracer // nil on an untraced run
	// logf prints one "# ..." header line as the run goes.
	logf func(format string, args ...any)

	daemons []*daemon
}

// rng returns the seeded random stream a part of the run draws from;
// distinct streams keep, say, the query order independent of how many
// ingest documents were generated.
func (r *run) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + stream))
}

// start launches the daemon with the given flags and registers it for
// reaping.
func (r *run) start(args []string) (*daemon, time.Duration, error) {
	d, ready, err := startDaemon(r.bin, args, filepath.Join(r.dir, "tdserved.log"))
	if err != nil {
		return nil, 0, err
	}
	r.daemons = append(r.daemons, d)
	return d, ready, nil
}

// reap stops every daemon the run started that is still alive, and
// waits for each to end.
func (r *run) reap() {
	for _, d := range r.daemons {
		d.stop()
	}
}

// execute runs the workload, traced or not, and returns its result.
func (r *run) execute() (*result, error) {
	defer r.reap()
	cpuBefore := readCPUTimes()
	var err error
	switch {
	case r.wl == wlBatchIMDb && r.tr == nil:
		err = r.batchIMDb()
	case r.wl == wlBatchIMDb:
		err = r.tracedBatch()
	case r.wl == wlServeMixed && r.tr == nil:
		err = r.serveMixed()
	case r.tr == nil:
		err = r.serveReadOnly()
	default:
		err = r.tracedServe()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.wl, err)
	}
	r.res.notef("time stolen by the hypervisor over the run: %s", readCPUTimes().stolenSince(cpuBefore))
	r.res.fillMissing()
	return r.res, nil
}

// built is a freshly built model with the corpora it owns.
type built struct {
	model         *tdmatch.Model
	first, second *tdmatch.Corpus
	// buildTime is tdmatch.Build alone; loadTime the corpus load before it.
	buildTime, loadTime time.Duration
}

// build loads the fixture's corpora and runs tdmatch.Build on them.
func (r *run) build(fx *fixture) (*built, error) {
	loadStart := time.Now()
	first, second, err := fx.corpora()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	m, err := tdmatch.Build(first, second, fx.cfg)
	if err != nil {
		return nil, err
	}
	return &built{model: m, first: first, second: second, buildTime: time.Since(start), loadTime: start.Sub(loadStart)}, nil
}

// universe lists every document of both corpora a query can be
// answered for.
func (b *built) universe() []string {
	return embedded(b.model, append(b.first.IDs(), b.second.IDs()...))
}

// batchConfig is the batch_imdb training configuration: the paper's
// pipeline with expansion, at a size one Build of which takes about two
// seconds. MSP compression is left off: at its default ratio it keeps
// a ninth of this graph's nodes and MRR falls from 0.9 to 0.1 (see
// README.md), so the traced run times compress.MSP on the side instead
// of letting it decide the quality metric.
func (r *run) batchConfig() tdmatch.Config {
	cfg := tdmatch.Defaults()
	cfg.Seed = r.seed
	cfg.NumWalks = 8
	cfg.WalkLength = 15
	cfg.Dim = 96
	cfg.Epochs = 2
	if r.sz.workers > 0 {
		cfg.Workers = r.sz.workers
	}
	return cfg
}

// batchFixture generates batch_imdb's inputs: the IMDb scenario with
// its knowledge base plugged in as a tdmatch.Resource and its lexicon
// as SynonymGroups.
func (r *run) batchFixture() (*fixture, error) {
	fx, err := imdbFixture(r.dir, r.seed, r.sz.imdbMovies, r.batchConfig())
	if err != nil {
		return nil, err
	}
	fx.cfg.Resource = kbResource{fx.scenario.KB}
	fx.cfg.SynonymGroups = synonymGroups(fx.scenario.Lexicon)
	return fx, nil
}

// mrrOf scores rankings of second-corpus documents against the
// fixture's ground truth (MRR over the top k).
func mrrOf(fx *fixture, rank func(id string) ([]string, error)) (float64, error) {
	results := make(map[string][]string, len(fx.truth))
	for id := range fx.truth {
		ranked, err := rank(id)
		if err != nil {
			return 0, err
		}
		results[id] = ranked
	}
	return metrics.EvaluateRanking(results, fx.truth, nil).MRR, nil
}

// matchIDs strips the scores off a ranking.
func matchIDs(ms []tdmatch.Match) []string {
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return ids
}

// readMetrics sets topk_p50_ms, topk_p95_ms, topk_qps and topk_p99_ms
// from a read sample set taken over a steady window.
//
// The three bounded metrics are each read off the window cut into
// slices, and the best slice is reported: the lowest p50, the lowest p95,
// the highest throughput. The sandbox slows down for a second or for
// minutes at a time, and only ever slows down, so the least disturbed
// slice is the steadiest estimate of what the code costs: over ten
// serve_hot runs in a slow phase the median slice's p50 spread 26 % of
// its median, the best slice's 10 % (README.md). topk_p99_ms stays
// pooled over the whole window, so a stall that comes only now and then
// still shows. weight is the number of queries one sample answered
// (MatchAll's whole batch on batch_imdb, one elsewhere).
func (r *run) readMetrics(s *samples, window, slice time.Duration, weight int) {
	parts, width := []*samples{s}, window
	if n := int(window / slice); n > 1 {
		parts, width = parts[:0], slice
		for i := 0; i < n; i++ {
			parts = append(parts, s.between(time.Duration(i)*width, time.Duration(i+1)*width))
		}
	}
	p50, p95, qps := make([]float64, len(parts)), make([]float64, len(parts)), make([]float64, len(parts))
	used95 := 0.0
	for i, part := range parts {
		// A slice in which nothing was answered is a stall, not a fast
		// slice: it reads as a miss.
		p50[i], p95[i] = ms(missed), ms(missed)
		if sorted := part.sorted(); len(sorted) > 0 {
			var tail time.Duration
			tail, used95 = tailQuantile(sorted, 0.95)
			p50[i], p95[i] = ms(quantile(sorted, 0.5)), ms(tail)
		}
		qps[i] = float64(part.answered()*weight) / width.Seconds()
	}
	p99, used99 := tailQuantile(s.sorted(), 0.99)
	r.res.set("topk_p50_ms", slices.Min(p50))
	r.res.set("topk_p95_ms", slices.Min(p95))
	r.res.set("topk_qps", slices.Max(qps))
	r.res.set("topk_p99_ms", ms(p99))
	r.res.notef("topk: %d samples in %d slice(s) of %.3gs, tails read at p%.4g (per slice) and p%.4g (pooled)",
		s.attempted(), len(parts), width.Seconds(), used95*100, used99*100)
	if len(parts) > 1 {
		r.res.notef("topk slices: p50 ms %.4g; p95 ms %.4g; 1/s %.6g", p50, p95, qps)
	}
}

// busySlice is the slice of the two workloads whose timed loop never
// waits, batch_imdb and serve_hot. What disturbs them comes and goes
// within a second (one-second slices of one serve_hot run: p50 0.038 to
// 0.078 ms), and over ten serve_hot runs the best quarter's p50, p95 and
// throughput spread 4 % where the best second's spread 9 to 11 %
// (README.md). A quarter still holds 600 MatchAll pairs or 6,000 requests,
// and several collections of the heap.
const busySlice = time.Second / 4

// batchIMDb is the paper's batch use, in process: Build over the IMDb
// scenario, then MatchAll in both directions.
// The serving stack does no work here, so training-path changes show
// on this workload and nowhere else.
func (r *run) batchIMDb() error {
	fx, err := r.batchFixture()
	if err != nil {
		return err
	}
	// Set-up here is corpus load + Build, and it is repeated: both it and
	// build_s are medians over the builds.
	var b *built
	var buildTimes, setupTimes []time.Duration
	for len(buildTimes) < r.sz.builds {
		if b, err = r.build(fx); err != nil {
			return err
		}
		buildTimes = append(buildTimes, b.buildTime)
		setupTimes = append(setupTimes, b.loadTime+b.buildTime)
	}
	r.res.set("setup_s", medianDur(setupTimes).Seconds())
	r.res.set("build_s", medianDur(buildTimes).Seconds())
	r.res.notef("build: median of %v", buildTimes)
	st := b.model.Stats()
	r.logf("fixture imdb: %d movies, %d reviews, graph %d nodes / %d edges, expanded to %d / %d",
		b.first.Len(), b.second.Len(), st.GraphNodes, st.GraphEdges, st.ExpandedNodes, st.ExpandedEdges)

	all := b.model.MatchAll(true, k)
	mrr, err := mrrOf(fx, func(id string) ([]string, error) { return matchIDs(all[id]), nil })
	if err != nil {
		return err
	}
	r.res.set("mrr", mrr)
	r.res.set("quality", mrr)

	// What the process holds once the builds are done: garbage collected
	// and returned first, because the peak depends on when the collector
	// happened to run; before the loop below allocates its samples.
	debug.FreeOSMemory()
	rss, err := residentMB(os.Getpid(), "VmRSS")
	if err != nil {
		return err
	}
	r.res.set("rss_mb", rss)

	// MatchAll in both directions for the window. One sample is one pair
	// of calls divided by the queries they answered: the latency a batch
	// user sees, amortized the way MatchAll amortizes it. (The two
	// directions cost differently per query, so a sample always holds one
	// call of each.)
	perPair := len(all) + len(b.model.MatchAll(false, k))
	// The loop runs one worker on one CPU. Two workers hand each call's few
	// batches across the two CPUs and wait for the slower, so whenever the
	// host takes time from either CPU the call waits with it: in one slow
	// phase the two-worker loop read 30 to 50 % slower, serve_hot on its
	// one CPU 0 to 7 % (README.md). What is timed is the scan kernel and
	// MatchAll's batching, not the fan-out.
	release, err := oneCPU(os.Getpid())
	if err != nil {
		return err
	}
	lat, loopStart := &samples{}, time.Now()
	for time.Since(loopStart) < r.window {
		start := time.Now()
		b.model.MatchAllWorkers(true, k, 1)
		b.model.MatchAllWorkers(false, k, 1)
		lat.add(start.Sub(loopStart), time.Since(start)/time.Duration(perPair))
	}
	elapsed := time.Since(loopStart)
	release()
	r.readMetrics(lat, r.window, busySlice, perPair)
	r.res.count("topk", "", lat)
	r.res.set("matchall_qps", float64(lat.attempted()*perPair)/elapsed.Seconds())
	r.res.notef("topk: one sample is one MatchAllWorkers(…, 1) call each way divided by their %d queries, on one CPU", perPair)

	universe := b.universe()
	orc, err := newOracle(b.model, b.first, b.second)
	if err != nil {
		return err
	}
	checked := &samples{}
	for _, id := range universe {
		got, err := b.model.TopK(id, k)
		record(checked, 0, 0, err)
		if _, same := recallAt10(matchIDs(got), orc.topk(id)); !same {
			r.res.failf("Model.TopK(%s) differs from the exact scan", id)
			break
		}
	}
	r.res.count("check", "", checked)

	ready, err := r.inProcessColdStart(fx, b.model, universe[0])
	if err != nil {
		return err
	}
	r.res.set("ready_s", ready.Seconds())
	return nil
}

// coldLoads is how many in-process cold starts make batch_imdb's
// ready_s median.
const coldLoads = 100

// inProcessColdStart is the library's counterpart of a daemon start:
// save the model once, then time corpus load + snapshot open + Bind +
// the first TopK, and return the median.
func (r *run) inProcessColdStart(fx *fixture, m *tdmatch.Model, query string) (time.Duration, error) {
	path := filepath.Join(r.dir, "batch.snap")
	if err := m.SaveFileV6(path); err != nil {
		return 0, err
	}
	times := make([]time.Duration, coldLoads)
	for i := range times {
		start := time.Now()
		loaded, err := fx.bind(path)
		if err != nil {
			return 0, err
		}
		if _, err := loaded.TopK(query, k); err != nil {
			return 0, err
		}
		times[i] = time.Since(start)
	}
	return medianDur(times), nil
}

// served is a fixture built, saved as a v6 snapshot and served by a
// running daemon, with the timings that make setup_s.
type served struct {
	fx    *fixture
	b     *built
	snap  string
	args  []string
	d     *daemon
	orc   *oracle
	save  time.Duration
	ready []time.Duration
}

// serve builds the fixture, saves it with SaveFileV6 and cold-starts
// the daemon on it the given number of times (stopping it in between),
// leaving the last one running. setup_s is Build + SaveFileV6 + the median
// start-to-/readyz time.
func (r *run) serve(fx *fixture, flags []string, starts int) (*served, error) {
	b, err := r.build(fx)
	if err != nil {
		return nil, err
	}
	s := &served{fx: fx, b: b, snap: filepath.Join(r.dir, "model.snap")}
	start := time.Now()
	if err := b.model.SaveFileV6(s.snap); err != nil {
		return nil, err
	}
	s.save = time.Since(start)
	s.args = append([]string{"-first", fx.firstPath, "-second", fx.secondPath, "-model", s.snap}, flags...)
	r.logf("daemon flags: %s", strings.Join(relativeTo(r.dir, s.args), " "))
	for i := 0; i < starts; i++ {
		if s.d != nil {
			s.d.stop()
		}
		d, ready, err := r.start(s.args)
		if err != nil {
			return nil, err
		}
		s.d, s.ready = d, append(s.ready, ready)
	}
	if s.orc, err = newOracle(b.model, b.first, b.second); err != nil {
		return nil, err
	}
	info, err := os.Stat(s.snap)
	if err != nil {
		return nil, err
	}
	universe := b.universe()
	r.logf("fixture %s/%s: %d + %d rows, dim %d, index %s, snapshot %d bytes, exact top-1 to top-%d score margin %.4f",
		fx.firstName, fx.secondName, b.first.Len(), b.second.Len(), fx.cfg.Dim, fx.cfg.Index, info.Size(), k,
		s.orc.margin(universe[:min(len(universe), 200)]))
	return s, nil
}

// relativeTo shortens the scratch-directory paths in a flag list.
func relativeTo(dir string, args []string) []string {
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = strings.TrimPrefix(a, dir+string(filepath.Separator))
	}
	return out
}

// setupMetrics sets setup_s, build_s and ready_s from a served fixture.
func (r *run) setupMetrics(s *served) {
	build, ready := s.b.buildTime, medianDur(s.ready)
	r.res.set("build_s", build.Seconds())
	r.res.set("ready_s", ready.Seconds())
	r.res.set("setup_s", (build + s.save + ready).Seconds())
	r.res.notef("setup: build %.3fs + save %.3fs + ready %.3fs (median of %d cold starts)",
		build.Seconds(), s.save.Seconds(), ready.Seconds(), len(s.ready))
}

// recallFloor is the lowest mean recall@10 a run may report: the exact
// scan's 1 less the 0.005 ISSUE 11 allows recall to worsen by. quality
// shares one bound with batch_imdb's MRR, which needs 8 %; this floor is
// what holds serve_ann's approximate index to the tighter one.
const recallFloor = 0.995

// checkAnswers compares checks sampled daemon answers with the exact
// scan and returns the mean recall@10. On a flat index every answer
// must equal the exact ranking, ID for ID, or the run fails; on any
// index the mean must reach recallFloor.
func (r *run) checkAnswers(s *served, ids []string, exact bool) float64 {
	client := newHTTPClient()
	checked := &samples{}
	sum, firstDiff := 0.0, ""
	for _, id := range ids {
		got, err := s.d.topk(client, id)
		record(checked, 0, 0, err)
		if err != nil {
			continue
		}
		recall, same := recallAt10(got, s.orc.topk(id))
		sum += recall
		if !same && firstDiff == "" {
			firstDiff = id
		}
	}
	r.res.count("check", "", checked)
	if checked.failed+checked.shed > 0 {
		r.res.failf("%d of %d sampled answers failed", checked.failed+checked.shed, len(ids))
	}
	recall := sum / float64(len(ids))
	if exact && firstDiff != "" {
		r.res.failf("flat answer for %s differs from the exact scan", firstDiff)
	}
	if recall < recallFloor {
		r.res.failf("recall_at_10 %.4f is below the floor of %.3f", recall, recallFloor)
	}
	return recall
}

// sample draws n IDs (or all of them, if fewer) without replacement.
func sample(rng *rand.Rand, ids []string, n int) []string {
	out := append([]string(nil), ids...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:min(n, len(out))]
}

// readTraffic generates the closed-loop clients' query sequences of a
// read-only serving workload, one per client: two clients drawing
// uniformly, or on serve_hot one client drawing from the hot set, which
// is returned too (nil otherwise). serve_hot has a single client because
// its requests are all processor and no waiting: one client and the
// daemon keep one CPU busy between them (see oneCPU), and a second
// client would only make the scheduler decide the latency.
func (r *run) readTraffic(universe []string) (seqs []querySeq, hot []string) {
	if r.wl == wlServeHot {
		hot = r.hotSet(universe)
		return []querySeq{zipfSeq(r.rng(1), hot, seqLen)}, hot
	}
	return []querySeq{uniformSeq(r.rng(1), universe, seqLen), uniformSeq(r.rng(2), universe, seqLen)}, nil
}

// hotSet is the seeded subset of IDs serve_hot queries.
func (r *run) hotSet(universe []string) []string {
	return sample(r.rng(3), universe, r.sz.hotSet)
}

// readOnlyFixture returns the synthetic fixture and daemon flags of a
// read-only serving workload.
func (r *run) readOnlyFixture() (*fixture, []string, error) {
	rows, index := r.sz.scanRows, tdmatch.IndexFlat
	if r.wl == wlServeANN {
		rows, index = r.sz.annRows, tdmatch.IndexHNSW
	}
	fx, err := synthFixture(r.dir, r.seed, rows, index, r.sz.workers)
	var flags []string
	if r.wl != wlServeHot {
		flags = []string{"-cache", "-1"}
	}
	return fx, flags, err
}

// confineHot puts the harness and the daemon on one CPU for serve_hot's
// timed traffic and returns the function that releases them; on every
// other workload it does nothing.
func (r *run) confineHot(d *daemon) (release func(), err error) {
	if r.wl != wlServeHot {
		return func() {}, nil
	}
	return oneCPU(os.Getpid(), d.cmd.Process.Pid)
}

// warm sends every hot-set ID once so the cache holds the whole set
// before the window opens.
func warm(d *daemon, hot []string) error {
	client := newHTTPClient()
	for _, id := range hot {
		if err := post(client, d.base+"/v1/topk", topkBody(id), nil); err != nil {
			return fmt.Errorf("warming %s: %w", id, err)
		}
	}
	return nil
}

// serveReadOnly is serve_scan, serve_hot and serve_ann: closed-loop
// clients against a real tdserved on a v6 snapshot of the synthetic
// fixture. serve_scan disables the result cache and draws uniformly from
// two clients, so the index scan and the batch queue dominate; serve_hot
// keeps the cache and draws Zipf(1.1) from a hot set that fits it, one
// client sharing one CPU with the daemon, so HTTP and the cache probe
// dominate; serve_ann is serve_scan on an HNSW index.
func (r *run) serveReadOnly() error {
	fx, flags, err := r.readOnlyFixture()
	if err != nil {
		return err
	}
	s, err := r.serve(fx, flags, r.sz.coldStarts)
	if err != nil {
		return err
	}
	r.setupMetrics(s)
	universe := s.b.universe()
	seqs, hot := r.readTraffic(universe)
	if err := warm(s.d, hot); err != nil {
		return err
	}

	release, err := r.confineHot(s.d)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.window)
	start := time.Now()
	reads := closedLoop(ctx, s.d, seqs, start, nil)
	cancel()
	release()
	// A slice is a second, which holds 600 requests a client; on serve_hot,
	// where it would hold 25,000, a quarter of one.
	slice := time.Second
	if r.wl == wlServeHot {
		slice = busySlice
	}
	r.readMetrics(reads, r.window, slice, 1)
	r.res.count("topk", "", reads)
	rss, err := s.d.rssMB()
	if err != nil {
		return err
	}
	r.res.set("rss_mb", rss)

	recall := r.checkAnswers(s, sample(r.rng(4), universe, r.sz.checks), r.wl != wlServeANN)
	r.res.set("recall_at_10", recall)
	r.res.set("quality", recall)
	return nil
}

// mixedFixture generates serve_mixed's inputs: a small IMDb scenario
// trained at the library defaults, which is also what the daemon's
// compaction retrains at.
func (r *run) mixedFixture() (*fixture, error) {
	cfg := tdmatch.Defaults()
	cfg.Seed = r.seed
	if r.sz.workers > 0 {
		cfg.Workers = r.sz.workers
	}
	return imdbFixture(r.dir, r.seed, r.sz.mixedMovies, cfg)
}

// serveMixed uses the same layers for writes beside reads: one
// closed-loop reader and one open-loop writer against tdserved -wal.
// Phase A ingests on the fold path (what a snapshot-loaded daemon
// does), then /v1/compact runs with the reader still going, phase B
// ingests on the warm path, and the daemon is SIGKILLed and restarted
// on the same snapshot and log.
func (r *run) serveMixed() error {
	fx, err := r.mixedFixture()
	if err != nil {
		return err
	}
	wal := filepath.Join(r.dir, "ingest.wal")
	// The result cache is off: with it on, the 45-document universe is
	// re-cached within a few requests of every purge, and the read
	// latency mixes hits and misses in a proportion set by how long each
	// phase happens to last rather than by the code under test.
	s, err := r.serve(fx, []string{"-wal", wal, "-cache", "-1"}, 1)
	if err != nil {
		return err
	}
	universe := s.b.universe()

	recall := r.checkAnswers(s, sample(r.rng(4), universe, r.sz.checks), true)
	r.res.set("recall_at_10", recall)
	r.res.set("quality", recall)
	client := newHTTPClient()
	mrr, err := mrrOf(fx, func(id string) ([]string, error) { return s.d.topk(client, id) })
	if err != nil {
		return err
	}
	r.res.set("mrr", mrr)

	// A fifth of the window ingests on the fold path, four fifths on
	// the hundredfold slower warm path.
	nFold := max(1, int(r.window.Seconds()/5*r.sz.foldRate))
	nWarm := max(1, int(r.window.Seconds()*4/5*r.sz.warmRate))
	docs := ingestDocs(s.b.model, s.b.second, r.seed, "ing", nFold+nWarm)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	origin := time.Now()
	readsDone := make(chan *samples, 1)
	go func() {
		readsDone <- closedLoop(ctx, s.d, []querySeq{uniformSeq(r.rng(1), universe, seqLen)}, origin, nil)
	}()

	rssStop := make(chan struct{})
	rssSeen := s.d.watchRSS(rssStop)
	phaseA := openLoop(s.d, client, docs[:nFold], r.sz.foldRate, origin)
	compactStart := time.Now()
	if err := post(client, s.d.base+"/v1/compact", nil, nil); err != nil {
		cancel()
		<-readsDone
		return fmt.Errorf("/v1/compact: %w", err)
	}
	compactEnd := time.Now()
	phaseB := openLoop(s.d, client, docs[nFold:], r.sz.warmRate, origin)
	cancel()
	reads := <-readsDone
	end := time.Now()
	close(rssStop)
	rssSamples := <-rssSeen

	// The run is three phases, not one steady state, so the percentiles
	// are pooled over all of it, compaction included. p95 is the bounded
	// tail: p99 sits where a few requests more or fewer in the 30 and 40 ms
	// scheduler quanta move it by a quarter (README.md).
	sorted := reads.sorted()
	p95, used95 := tailQuantile(sorted, 0.95)
	p99, used99 := tailQuantile(sorted, 0.99)
	r.res.set("topk_p50_ms", ms(quantile(sorted, 0.5)))
	r.res.set("topk_p95_ms", ms(p95))
	r.res.set("topk_p99_ms", ms(p99))
	r.res.notef("topk: %d samples over %.3gs, %.1f answered a second, tails read at p%.4g and p%.4g",
		reads.attempted(), end.Sub(origin).Seconds(), float64(reads.answered())/end.Sub(origin).Seconds(), used95*100, used99*100)
	for _, ph := range []struct {
		name     string
		from, to time.Time
	}{{"A", origin, compactStart}, {"compact", compactStart, compactEnd}, {"B", compactEnd, end}} {
		part := reads.between(ph.from.Sub(origin), ph.to.Sub(origin))
		sorted := part.sorted()
		tail, used := tailQuantile(sorted, 0.99)
		r.res.count("topk", ph.name, part)
		r.res.notef("topk phase=%s: %d samples, p50 %.3f ms, p%.4g %.3f ms",
			ph.name, part.attempted(), ms(quantile(sorted, 0.5)), used*100, ms(tail))
		if ph.name == "A" {
			// Throughput is phase A's: the reader beside fold-path ingests,
			// which is what a snapshot-loaded daemon does all day. Over the
			// whole run it is the share of the time spent retraining, and
			// two-worker training is what this machine's slow phases move
			// most (spread 13, 17 and 25 % in three ten-run sets).
			r.res.set("topk_qps", float64(part.answered())/ph.to.Sub(ph.from).Seconds())
		}
	}
	r.ingestMetrics("A", phaseA, "ingest_fold_p50_ms")
	r.ingestMetrics("B", phaseB, "ingest_p50_ms")
	r.res.set("compact_s", compactEnd.Sub(compactStart).Seconds())
	// The daemon's peak (VmHWM) is a bump of a second or less where
	// compaction swaps the models and checkpoints, 24 or 30 MB depending on
	// when the collector last ran; what repeats is the level it holds while it
	// retrains. So rss_mb here is the sustained peak: the level the
	// resident set was at or above for a quarter of the run.
	peak, err := s.d.rssMB()
	if err != nil {
		return err
	}
	if len(rssSamples) == 0 {
		return errors.New("no resident-set sample of the daemon could be read")
	}
	slices.Sort(rssSamples)
	r.res.set("rss_mb", rssSamples[len(rssSamples)*3/4])
	r.res.notef("rss: p75 of %d samples 50 ms apart; lowest %.1f MB, peak (VmHWM) %.1f MB", len(rssSamples), rssSamples[0], peak)

	// Crash and recover: SIGKILL, restart on the same snapshot and log,
	// and require every acknowledged ingest to answer.
	acked := append(phaseA.acked, phaseB.acked...)
	var recoveries []time.Duration
	lostTotal := 0
	for i := 0; i < r.sz.restarts; i++ {
		s.d.kill()
		d, ready, err := r.start(s.args)
		if err != nil {
			return fmt.Errorf("restart %d after SIGKILL: %w", i+1, err)
		}
		s.d = d
		recoveries = append(recoveries, ready)
		if i >= ackedRestarts {
			continue
		}
		lost := 0
		for _, id := range acked {
			if _, err := d.topk(client, id); err != nil {
				lost++
			}
		}
		lostTotal += lost
		if lost > 0 {
			r.res.failf("restart %d: acked_lost = %d of %d acknowledged ingests", i+1, lost, len(acked))
		}
	}
	// The fastest restart, not the median one: a recovery is a 5 ms process
	// start, and for half a second at a time every start on this machine
	// takes 6 or 8 ms instead. Six runs of 200 restarts each: the medians
	// ranged over 17 % of their middle, the fastest over 7 %.
	recovery := slices.Min(recoveries)
	r.res.set("recovery_s", recovery.Seconds())
	r.res.notef("recovery: fastest of %d restarts; median %.4f s, slowest %.4f s",
		len(recoveries), medianDur(recoveries).Seconds(), slices.Max(recoveries).Seconds())
	if lostTotal == 0 {
		r.res.notef("acked_lost = 0: all %d acknowledged ingests answered after each of the first %d of %d restarts", len(acked), min(ackedRestarts, len(recoveries)), len(recoveries))
	}

	// On this workload the cold start that matters is the recovery one.
	build := s.b.buildTime
	r.res.set("build_s", build.Seconds())
	r.res.set("ready_s", recovery.Seconds())
	r.res.set("setup_s", (build + s.save + s.ready[0]).Seconds())
	r.res.notef("setup: build %.3fs + save %.3fs + ready %.3fs", build.Seconds(), s.save.Seconds(), s.ready[0].Seconds())
	return nil
}

// ackedRestarts is how many of serve_mixed's restarts are followed by a
// query for every acknowledged ingest; the rest only time the recovery.
const ackedRestarts = 3

// ingestMetrics sets one phase's median ingest latency, files its
// accounting row and reports the tail — the highest percentile with ten
// samples beyond it, which at these rates is far below a p95 and so is
// a note, not a metric — and how late the open-loop generator ran.
func (r *run) ingestMetrics(phase string, log ingestLog, p50Name string) {
	sorted := log.lat.sorted()
	r.res.set(p50Name, ms(quantile(sorted, 0.5)))
	r.res.count("ingest", phase, log.lat)
	tail, used := tailQuantile(sorted, 0.95)
	late := sortedCopy(log.late)
	r.res.notef("ingest phase=%s: %d sent, p%.4g %.3f ms, max %.3f ms; generator lateness p50 %.3f ms, max %.3f ms",
		phase, len(late), used*100, ms(tail), ms(quantile(sorted, 1)), ms(quantile(late, 0.5)), ms(quantile(late, 1)))
}
