//go:build linux

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/tdmatch/tdmatch"
	"github.com/tdmatch/tdmatch/internal/compress"
	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/graph"
	"github.com/tdmatch/tdmatch/internal/kb"
	"github.com/tdmatch/tdmatch/internal/match"
	"github.com/tdmatch/tdmatch/internal/pipeline"
	"github.com/tdmatch/tdmatch/internal/textproc"
	"github.com/tdmatch/tdmatch/internal/wal"
	"github.com/tdmatch/tdmatch/internal/walk"
)

// span is one timed call into a layer, recorded by the harness around
// the call (spans inside the program are a later issue). Spans of one
// request share Op; Parent is the ID of the span one layer up that
// stands for the same request, 0 for a root.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       string `json:"op"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced invocation in memory; they are
// written to bench/out/trace.json when it ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// record appends one span and returns its ID.
func (t *tracer) record(wl, name, op string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.epoch.IsZero() {
		t.epoch = start
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Workload: wl, Op: op, Parent: parent,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// end moves a recorded span's end: a root span is recorded before its
// children, so that they can name it as parent, and closed after them.
func (t *tracer) end(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = end.Sub(t.epoch).Nanoseconds()
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timed runs fn inside a span and returns the span's ID and duration.
func (r *run) timed(name, op string, parent int, fn func() error) (int, time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	return r.tr.record(r.wl, name, op, parent, start, end), end.Sub(start), err
}

// pipelineConfig translates the fixture's public Config into the
// internal stage parameters the way tdmatch.Build does, for the fields
// the fixtures set; the traced run checks the translation by comparing
// the stage total with Build's own time.
func pipelineConfig(fx *fixture) pipeline.Config {
	cfg := fx.cfg
	bc := graph.BuildConfig{
		Pre:             textproc.Preprocessor{RemoveStopwords: true, Stem: true, MaxNGram: cfg.MaxNGram},
		Filter:          graph.FilterIntersect,
		ConnectMetadata: true,
	}
	if len(cfg.SynonymGroups) > 0 {
		lex := kb.NewLexicon()
		for _, g := range cfg.SynonymGroups {
			lex.AddSynonyms(g.Canonical, g.Variants...)
		}
		bc.Mergers = append(bc.Mergers, lex)
	}
	pc := pipeline.Config{
		Graph:    bc,
		Compress: cfg.Compression == tdmatch.CompressMSP,
		MSPRatio: cfg.CompressionRatio,
		Seed:     cfg.Seed,
		Walk:     walk.Config{NumWalks: cfg.NumWalks, Length: cfg.WalkLength, Seed: cfg.Seed, Workers: cfg.Workers},
		// Both fixtures have a table side, so Build picks Skip-gram with
		// window 3.
		Embed: embed.Config{
			Dim: cfg.Dim, Window: 3, Negative: cfg.Negative, Epochs: cfg.Epochs,
			Mode: embed.SkipGram, Seed: cfg.Seed, Workers: cfg.Workers, Subsample: cfg.Subsample,
		},
	}
	if fx.scenario != nil && cfg.Resource != nil {
		pc.Resource = fx.scenario.KB
	}
	return pc
}

// staged is one harness-run pass of the build pipeline: the retained
// state and the wall time of each stage.
type staged struct {
	state  *pipeline.State
	stages map[string]time.Duration
	total  time.Duration
	tokens int
}

// stagedBuild runs the repository's own pipeline stages one at a time
// over the fixture's corpora, each in a span under one root span, so
// the spans nest and their sum can be held against Build's wall time.
func (r *run) stagedBuild(fx *fixture, op string) (*staged, error) {
	first, second, err := fx.stageCorpora()
	if err != nil {
		return nil, err
	}
	sb := &staged{
		state:  &pipeline.State{Cfg: pipelineConfig(fx), First: first, Second: second},
		stages: map[string]time.Duration{},
	}
	rootStart := time.Now()
	root := r.tr.record(r.wl, "build", op, 0, rootStart, rootStart)
	for _, st := range pipeline.FullStages() {
		_, d, err := r.timed(stageSpan[st.Name], op, root, func() error { return st.Run(sb.state) })
		if err != nil {
			return nil, fmt.Errorf("stage %s: %w", st.Name, err)
		}
		sb.stages[st.Name] = d
		sb.total += d
		if st.Name == "walks" {
			sb.tokens = sb.state.Seqs.NumTokens()
		}
	}
	r.tr.end(root, time.Now())
	sb.state.Seqs = embed.Sequences{}
	return sb, nil
}

// stageSpan names the span of each pipeline stage after the layer
// (module) that does its work.
var stageSpan = map[string]string{
	"graph":    "graph.build",
	"expand":   "expand.expand",
	"compress": "compress.stage",
	"walks":    "walk.generate",
	"train":    "embed.train",
}

// sideMSP times compress.MSP over a freshly built and expanded graph
// without feeding its output to training — the compress layer's cost and
// the share of edges it keeps, measured apart from the quality it would
// cost (see batchConfig) — and sets the compress metrics.
func (r *run) sideMSP(fx *fixture) error {
	first, second, err := fx.stageCorpora()
	if err != nil {
		return err
	}
	st := &pipeline.State{Cfg: pipelineConfig(fx), First: first, Second: second}
	if err := pipeline.Run(st, pipeline.FullStages()[:2]); err != nil { // graph, expand
		return err
	}
	g := st.Build.Graph
	var out *graph.Graph
	_, d, _ := r.timed("compress.msp", "msp", 0, func() error {
		out = compress.MSP(g, compress.Options{Ratio: fx.cfg.CompressionRatio, Seed: fx.cfg.Seed})
		return nil
	})
	r.res.set("compress.msp_ms", ms(d))
	r.res.set("compress.kept_edge_ratio", float64(out.NumEdges())/float64(g.NumEdges()))
	return nil
}

// stageMetrics sets the build-stage layer metrics from staged passes
// (medians over the passes; counts from the last).
func (r *run) stageMetrics(passes []*staged, epochs int) {
	med := func(stage string) time.Duration {
		ds := make([]time.Duration, len(passes))
		for i, p := range passes {
			ds[i] = p.stages[stage]
		}
		return medianDur(ds)
	}
	last := passes[len(passes)-1]
	stats := last.state.Stats
	r.res.set("graph.build_ms", ms(med("graph")))
	r.res.set("graph.nodes", float64(stats.GraphNodes))
	r.res.set("graph.edges", float64(stats.GraphEdges))
	r.res.set("expand.expand_ms", ms(med("expand")))
	r.res.set("expand.added_edges", float64(stats.ExpandedEdges-stats.GraphEdges))
	r.res.set("walk.generate_ms", ms(med("walks")))
	r.res.set("walk.tokens", float64(last.tokens))
	train := med("train")
	r.res.set("embed.train_ms", ms(train))
	r.res.set("embed.tokens_per_s", float64(last.tokens*epochs)/train.Seconds())
}

// medianUS returns the median of a slice of durations in microseconds.
func medianUS(ds []time.Duration) float64 { return us(medianDur(ds)) }

// rung is one layer of a ladder: the span name and the call that
// issues operation i at that layer.
type rung struct {
	name string
	call func(i int) error
}

// ladder walks one operation sequence down the layers: rungs[0] is
// issued for every op, then rungs[1], and so on, each call a span whose
// parent is the same op's span one rung up. It returns each rung's
// per-op durations.
func (r *run) ladder(opPrefix string, n int, rungs []rung) ([][]time.Duration, error) {
	parents := make([]int, n)
	out := make([][]time.Duration, len(rungs))
	for ri, rg := range rungs {
		out[ri] = make([]time.Duration, n)
		for i := 0; i < n; i++ {
			id, d, err := r.timed(rg.name, fmt.Sprintf("%s#%d", opPrefix, i), parents[i], func() error { return rg.call(i) })
			if err != nil {
				return nil, fmt.Errorf("%s op %d: %w", rg.name, i, err)
			}
			parents[i], out[ri][i] = id, d
		}
		r.res.Ops = append(r.res.Ops, opCount{Op: rg.name, Phase: "ladder", Attempted: n})
	}
	return out, nil
}

// selfTimes reports a ladder's medians and each layer's self time (its
// rung's median minus the rung below), and checks that they account for
// the top rung.
func (r *run) selfTimes(what string, rungs []rung, times [][]time.Duration) {
	line := what + " ladder (median us, self = rung - rung below):"
	sum := 0.0
	for i, ds := range times {
		self := medianUS(ds)
		if i+1 < len(times) {
			self -= medianUS(times[i+1])
		}
		sum += self
		line += fmt.Sprintf(" %s %.1f (self %.1f)", rungs[i].name, medianUS(ds), self)
		// Microsecond rungs invert on scheduling noise alone; only an
		// inversion that is large both ways says the ladder is wrong.
		if self < -0.15*medianUS(times[0]) && self < -20 {
			r.res.failf("%s ladder: %s is slower than the rung above it by more than 15%% of the top rung and 20 us", what, rungs[i].name)
		}
	}
	r.res.notef("%s; self times sum to %.1f of %.1f", line, sum, medianUS(times[0]))
}

// tracedBatch is batch_imdb's traced run: the harness runs the build
// stages itself, once per repetition, then walks TopK from the model
// down to the raw index.
func (r *run) tracedBatch() error {
	fx, err := r.batchFixture()
	if err != nil {
		return err
	}
	var passes []*staged
	var builds []time.Duration
	var b *built
	for rep := 0; rep < r.sz.builds; rep++ {
		sb, err := r.stagedBuild(fx, fmt.Sprintf("build#%d", rep))
		if err != nil {
			return err
		}
		passes = append(passes, sb)
		_, _, err = r.timed("model.build", fmt.Sprintf("build#%d", rep), 0, func() error {
			b, err = r.build(fx)
			return err
		})
		if err != nil {
			return err
		}
		builds = append(builds, b.buildTime)
	}
	r.stageMetrics(passes, fx.cfg.Epochs)
	r.buildSelf(passes, builds, b.model.Stats())
	if err := r.sideMSP(fx); err != nil {
		return err
	}

	// MatchAll's allocation cost per query.
	var before, after runtime.MemStats
	queries := 0
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		queries += len(b.model.MatchAll(true, k)) + len(b.model.MatchAll(false, k))
	}
	runtime.ReadMemStats(&after)
	r.res.set("match.matchall_allocs_per_query", float64(after.Mallocs-before.Mallocs)/float64(queries))
	r.res.set("match.matchall_bytes_per_query", float64(after.TotalAlloc-before.TotalAlloc)/float64(queries))

	orc, err := newOracle(b.model, b.first, b.second)
	if err != nil {
		return err
	}
	seq := uniformSeq(r.rng(1), b.universe(), r.sz.ladderOps)
	rungs := []rung{
		{"model.topk", func(i int) error { _, err := b.model.TopK(seq.ids[i], k); return err }},
		{"match.flat_topk", func(i int) error { orc.target(seq.ids[i]).TopK(b.model.Vector(seq.ids[i]), k); return nil }},
	}
	times, err := r.ladder("topk", len(seq.ids), rungs)
	if err != nil {
		return err
	}
	r.res.set("model.topk_us", medianUS(times[0]))
	r.flatMetrics(orc, seq.ids, times[1])
	r.selfTimes("topk", rungs, times)
	return r.persistMetrics(fx, b.model, seq.ids[0])
}

// buildSelf sets model.build_self_ms — Build's wall time minus the
// stage spans: vector gather and index construction — and checks that
// the harness-run stages still are the pipeline Build itself runs: the
// counts every stage leaves behind must equal the built model's.
func (r *run) buildSelf(passes []*staged, builds []time.Duration, built tdmatch.Stats) {
	totals := make([]time.Duration, len(passes))
	for i, p := range passes {
		totals[i] = p.total
	}
	build, stages := medianDur(builds), medianDur(totals)
	r.res.set("model.build_self_ms", ms(build-stages))
	r.res.notef("build: tdmatch.Build %.3fs (the untraced build_s) = stage spans %.3fs + model self %.3fs; tracing overhead is the difference between this Build and an untraced run's build_s",
		build.Seconds(), stages.Seconds(), (build - stages).Seconds())
	st := passes[len(passes)-1].state.Stats
	got := [...]int{st.GraphNodes, st.GraphEdges, st.ExpandedNodes, st.ExpandedEdges, st.CompressedNodes, st.CompressedEdges, st.FilteredTerms, st.MergedTerms, st.Walks}
	want := [...]int{built.GraphNodes, built.GraphEdges, built.ExpandedNodes, built.ExpandedEdges, built.CompressedNodes, built.CompressedEdges, built.FilteredTerms, built.MergedTerms, built.Walks}
	if got != want {
		r.res.failf("stage counts %v differ from tdmatch.Build's %v (graph, expanded and compressed nodes/edges, filtered, merged, walks): the harness's stage configuration has drifted from Build's", got, want)
	}
	// The timing says the same thing less surely, so it is held loosely:
	// only medians of several passes, and only an excess that is large
	// both as a share and in absolute terms — a fraction of a second of
	// building wanders by more than a tenth on its own.
	if excess := stages - build; len(passes) > 1 && float64(stages) > 1.1*float64(build) && excess > 200*time.Millisecond {
		r.res.failf("stage spans (%.3fs) exceed tdmatch.Build (%.3fs) by more than 10%% and 0.2 s: the harness's stage configuration has drifted from Build's", stages.Seconds(), build.Seconds())
	}
}

// flatMetrics sets the raw flat-scan metrics from the bottom rung: the
// median scan time, and the median bandwidth it implies for the bytes
// a scan must read (rows x dim x 4, computed, not measured).
func (r *run) flatMetrics(orc *oracle, ids []string, scans []time.Duration) {
	r.res.set("match.flat_topk_us", medianUS(scans))
	rates := make([]float64, len(ids))
	for i, id := range ids {
		idx := orc.target(id)
		rates[i] = float64(len(idx.IDs())*idx.Dim()*4) / float64(scans[i]) // bytes per ns = GB/s
	}
	sort.Float64s(rates)
	r.res.set("match.flat_gb_per_s", rates[len(rates)/2])
}

// persistMetrics times the snapshot path in process: SaveFileV6, corpus
// load, and open + Bind + first TopK.
func (r *run) persistMetrics(fx *fixture, m *tdmatch.Model, query string) error {
	path := filepath.Join(r.dir, "traced.snap")
	_, save, err := r.timed("persist.save_v6", "save", 0, func() error { return m.SaveFileV6(path) })
	if err != nil {
		return err
	}
	r.res.set("persist.save_v6_ms", ms(save))
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.res.set("persist.snapshot_mb", float64(info.Size())/1e6)
	_, err = r.openBind(fx, path, query)
	return err
}

// openBind loads the corpora, opens the snapshot and binds it, timing
// the two halves as persist.corpus_load_ms and persist.open_bind_ms
// (medians of a few repetitions), and returns the last bound model.
func (r *run) openBind(fx *fixture, path, query string) (*tdmatch.Model, error) {
	const reps = 5
	var loads, binds []time.Duration
	var m *tdmatch.Model
	for i := 0; i < reps; i++ {
		var first, second *tdmatch.Corpus
		op := fmt.Sprintf("load#%d", i)
		root, load, err := r.timed("persist.corpus_load", op, 0, func() (err error) {
			first, second, err = fx.corpora()
			return err
		})
		if err != nil {
			return nil, err
		}
		_, bind, err := r.timed("persist.open_bind", op, root, func() error {
			snap, err := tdmatch.OpenSnapshotFile(path)
			if err != nil {
				return err
			}
			if m, err = snap.Bind(first, second); err != nil {
				return err
			}
			_, err = m.TopK(query, k)
			return err
		})
		if err != nil {
			return nil, err
		}
		loads, binds = append(loads, load), append(binds, bind)
	}
	r.res.set("persist.corpus_load_ms", ms(medianDur(loads)))
	r.res.set("persist.open_bind_ms", ms(medianDur(binds)))
	return m, nil
}

// tracedServe is the traced run of every serve_* workload: stage spans
// for the fixture build, the layer ladder for /v1/topk (and, on
// serve_mixed, /v1/ingest), and a short traffic window for the
// counters /v1/stats exposes.
func (r *run) tracedServe() error {
	mixed := r.wl == wlServeMixed
	var fx *fixture
	var flags []string
	var err error
	if mixed {
		fx, err = r.mixedFixture()
		flags = []string{"-wal", filepath.Join(r.dir, "ingest.wal"), "-cache", "-1"}
	} else {
		fx, flags, err = r.readOnlyFixture()
	}
	if err != nil {
		return err
	}
	sb, err := r.stagedBuild(fx, "build#0")
	if err != nil {
		return err
	}
	r.stageMetrics([]*staged{sb}, fx.cfg.Epochs)
	r.res.set("compress.kept_edge_ratio", 1) // the serving fixtures build uncompressed
	s, err := r.serve(fx, flags, 1)
	if err != nil {
		return err
	}
	r.buildSelf([]*staged{sb}, []time.Duration{s.b.buildTime}, s.b.model.Stats())
	r.res.set("persist.save_v6_ms", ms(s.save))
	info, err := os.Stat(s.snap)
	if err != nil {
		return err
	}
	r.res.set("persist.snapshot_mb", float64(info.Size())/1e6)

	universe := s.b.universe()
	var seq querySeq
	if r.wl == wlServeHot {
		hot := r.hotSet(universe)
		if err := warm(s.d, hot); err != nil {
			return err
		}
		seq = zipfSeq(r.rng(1), hot, r.sz.ladderOps)
	} else {
		seq = uniformSeq(r.rng(1), universe, r.sz.ladderOps)
	}
	loaded, err := r.openBind(fx, s.snap, seq.ids[0])
	if err != nil {
		return err
	}
	// serve_hot's ladder and window run where its untraced window does:
	// harness and daemon on one CPU.
	release, err := r.confineHot(s.d)
	if err != nil {
		return err
	}
	err = r.topkLadder(s, loaded, seq)
	if err == nil {
		err = r.tracedWindow(s, universe)
	}
	release()
	if err != nil {
		return err
	}
	if mixed {
		return r.ingestLadder(s, sb, loaded)
	}
	return nil
}

// topkLadder issues one seeded query sequence, single client, at every
// rung from the daemon's HTTP port down to the raw index, all over the
// same snapshot file: daemon round trip, in-process Server with the
// daemon's ServeConfig, Model.TopK on the bound snapshot, match index.
// On serve_hot the daemon answers from its cache, so its ladder ends at
// the cached Server and the rungs below are walked aside — the cost a
// miss would pay. Elsewhere the cached Server is the rung timed aside.
func (r *run) topkLadder(s *served, loaded *tdmatch.Model, seq querySeq) error {
	client, err := dial(s.d, "/v1/topk")
	if err != nil {
		return err
	}
	defer client.close()
	uncached := tdmatch.NewServer(loaded, tdmatch.ServeConfig{CacheSize: -1})
	defer uncached.Close()
	cached := tdmatch.NewServer(loaded, tdmatch.ServeConfig{})
	defer cached.Close()
	for _, id := range seq.ids { // fill the cached server's cache
		if _, err := cached.TopK(id, k); err != nil {
			return err
		}
	}
	flatScan := func(i int) error {
		s.orc.target(seq.ids[i]).TopK(s.b.model.Vector(seq.ids[i]), k)
		return nil
	}
	daemonRung := rung{"daemon.topk", func(i int) error { return client.post(seq.bodies[i]) }}
	cachedRung := rung{"serve.cached_topk", func(i int) error { _, err := cached.TopK(seq.ids[i], k); return err }}
	below := []rung{
		{"serve.topk", func(i int) error { _, err := uncached.TopK(seq.ids[i], k); return err }},
		{"model.topk", func(i int) error { _, err := loaded.TopK(seq.ids[i], k); return err }},
		{"match.flat_topk", flatScan},
	}
	if r.wl == wlServeANN {
		// The bottom rung is the HNSW beam; the flat scan is timed aside.
		beam := r.hnswBeam(s, seq)
		below[2] = rung{"match.hnsw_topk", func(i int) error { beam(seq.ids[i]); return nil }}
		flat, err := r.ladder("topk-flat", len(seq.ids), []rung{{"match.flat_topk", flatScan}})
		if err != nil {
			return err
		}
		r.flatMetrics(s.orc, seq.ids, flat[0])
	}
	main, aside := append([]rung{daemonRung}, below...), []rung{cachedRung}
	if r.wl == wlServeHot {
		main, aside = []rung{daemonRung, cachedRung}, below
	}
	out, err := r.ladder("topk", len(seq.ids), main)
	if err != nil {
		return err
	}
	side, err := r.ladder("topk-aside", len(seq.ids), aside)
	if err != nil {
		return err
	}
	r.selfTimes("topk", main, out)
	byName := map[string][]time.Duration{}
	for i, rg := range main {
		byName[rg.name] = out[i]
	}
	for i, rg := range aside {
		byName[rg.name] = side[i]
	}
	r.res.set("daemon.topk_rtt_us", medianUS(byName["daemon.topk"]))
	r.res.set("serve.topk_us", medianUS(byName["serve.topk"]))
	r.res.set("serve.cached_topk_us", medianUS(byName["serve.cached_topk"]))
	r.res.set("model.topk_us", medianUS(byName["model.topk"]))
	if r.wl == wlServeANN {
		r.res.set("match.hnsw_topk_us", medianUS(byName["match.hnsw_topk"]))
	} else {
		r.flatMetrics(s.orc, seq.ids, byName["match.flat_topk"])
	}
	return nil
}

// hnswBeam builds a raw match.HNSW over each side's exact index (timing
// the first as match.hnsw_build_ms), scores its recall@10 against the
// exact scan over the query sequence, and returns the beam query.
func (r *run) hnswBeam(s *served, seq querySeq) func(id string) []match.Scored {
	cfg := s.fx.cfg
	opts := match.HNSWOptions{M: cfg.HNSWM, Ef: cfg.HNSWEf, EfConstruct: cfg.HNSWEfConstruct, Seed: cfg.Seed}
	var overFirst *match.HNSW
	_, build, _ := r.timed("match.hnsw_build", "hnsw_build", 0, func() error {
		overFirst = match.NewHNSW(s.orc.first, opts)
		return nil
	})
	r.res.set("match.hnsw_build_ms", ms(build))
	overSecond := match.NewHNSW(s.orc.second, opts)
	beam := func(id string) []match.Scored {
		x := overSecond
		if s.orc.secondSide[id] {
			x = overFirst
		}
		return x.TopK(s.b.model.Vector(id), k)
	}
	recall := 0.0
	for _, id := range seq.ids {
		rc, _ := recallAt10(match.IDsOf(beam(id)), s.orc.topk(id))
		recall += rc
	}
	r.res.set("match.hnsw_recall_at_10", recall/float64(len(seq.ids)))
	return beam
}

// tracedWindow runs the workload's closed-loop traffic for two short
// windows — first without, then with a span around every request — and
// reads the serving counters from the /v1/stats deltas. The two
// windows' medians, side by side, are the tracing overhead.
func (r *run) tracedWindow(s *served, universe []string) error {
	seqs, _ := r.readTraffic(universe)
	if r.wl == wlServeMixed {
		seqs = seqs[:1]
	}
	before, err := s.d.stats()
	if err != nil {
		return err
	}
	window := func(observe func(client, i int, start, end time.Time)) *samples {
		ctx, cancel := context.WithTimeout(context.Background(), r.window/4)
		defer cancel()
		return closedLoop(ctx, s.d, seqs, time.Now(), observe)
	}
	plain := window(nil)
	traced := window(func(client, i int, start, end time.Time) {
		r.tr.record(r.wl, "client.topk", fmt.Sprintf("window#%d.%d", client, i), 0, start, end)
	})
	after, err := s.d.stats()
	if err != nil {
		return err
	}
	r.res.count("topk", "window-untraced", plain)
	r.res.count("topk", "window-traced", traced)
	p50 := func(s *samples) float64 { return ms(quantile(s.sorted(), 0.5)) }
	r.res.notef("tracing overhead: topk_p50_ms %.4f with a span per request vs %.4f without (%d and %d requests)",
		p50(traced), p50(plain), traced.attempted(), plain.attempted())

	if probes := (after.CacheHits - before.CacheHits) + (after.CacheMisses - before.CacheMisses); probes > 0 {
		r.res.set("serve.cache_hit_ratio", float64(after.CacheHits-before.CacheHits)/float64(probes))
	}
	if batches := after.Batches - before.Batches; batches > 0 {
		r.res.set("serve.batch_factor", float64(after.BatchedQueries-before.BatchedQueries)/float64(batches))
	}
	r.res.set("serve.shed", float64(after.Shed-before.Shed))
	r.res.set("match.segments", float64(after.FirstSegments.Segments+after.SecondSegments.Segments))
	r.res.set("match.delta_docs", float64(after.FirstSegments.DeltaDocs+after.SecondSegments.DeltaDocs))
	return nil
}

// ingestLadder is serve_mixed's write-side ladder, issued single
// client over the same snapshot: daemon round trip, in-process Server
// with a WAL, Model.Ingest on the fold path, the raw wal.Log append;
// then, aside, the warm path (Model.Ingest on the built model and the
// pipeline's delta stages), WAL replay and Model.Compact.
func (r *run) ingestLadder(s *served, sb *staged, loaded *tdmatch.Model) error {
	docs := ingestDocs(s.b.model, s.b.second, r.seed, "lad", r.sz.ladderIngests)
	client := newHTTPClient()
	before, err := s.d.stats()
	if err != nil {
		return err
	}

	walPath := filepath.Join(r.dir, "ladder.wal")
	w, err := tdmatch.OpenWAL(walPath, tdmatch.WALOptions{Sync: "always"})
	if err != nil {
		return err
	}
	srv := tdmatch.NewServer(loaded, tdmatch.ServeConfig{WAL: w, CacheSize: -1})
	defer srv.Close()
	// Model.Ingest mutates its model and corpora: the fold rung gets its
	// own bound copy of the snapshot.
	fold, err := s.fx.bind(s.snap)
	if err != nil {
		return err
	}
	raw, _, err := wal.Open(filepath.Join(r.dir, "raw.wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer raw.Close()

	out, err := r.ladder("ingest", len(docs), []rung{
		{"daemon.ingest", func(i int) error { return post(client, s.d.base+"/v1/ingest", ingestBody(docs[i]), nil) }},
		{"serve.ingest", func(i int) error { return srv.Ingest(docs[i : i+1]) }},
		{"model.ingest_fold", func(i int) error { return fold.Ingest(docs[i : i+1]) }},
		{"wal.append_sync", func(i int) error {
			payload, err := json.Marshal(map[string]any{"docs": docs[i : i+1]})
			if err != nil {
				return err
			}
			_, err = raw.Append(1, payload)
			return err
		}},
	})
	if err != nil {
		return err
	}
	r.res.set("daemon.ingest_rtt_us", medianUS(out[0]))
	r.res.set("serve.ingest_us", medianUS(out[1]))
	r.res.set("model.ingest_fold_us", medianUS(out[2]))
	r.res.set("wal.append_sync_us", medianUS(out[3]))
	// Server.Ingest's children are the model ingest and the log append,
	// side by side, so its self time subtracts both.
	serveSelf := medianUS(out[1]) - medianUS(out[2]) - medianUS(out[3])
	r.res.notef("ingest ladder (median us): daemon %.1f (self %.1f) serve %.1f (self %.1f = clone + swap) model fold %.1f wal append+sync %.1f",
		medianUS(out[0]), medianUS(out[0])-medianUS(out[1]), medianUS(out[1]), serveSelf, medianUS(out[2]), medianUS(out[3]))

	after, err := s.d.stats()
	if err != nil {
		return err
	}
	if before.WAL != nil && after.WAL != nil && after.WAL.Appends > before.WAL.Appends {
		appends := float64(after.WAL.Appends - before.WAL.Appends)
		r.res.set("wal.bytes_per_ingest", float64(after.WAL.SizeBytes-before.WAL.SizeBytes)/appends)
		r.res.set("wal.syncs_per_ingest", float64(after.WAL.Syncs-before.WAL.Syncs)/appends)
	}

	// Replay the in-process Server's log onto a fresh bind of the snapshot.
	srv.Close()
	if err := w.Close(); err != nil {
		return err
	}
	fresh, err := s.fx.bind(s.snap)
	if err != nil {
		return err
	}
	if w, err = tdmatch.OpenWAL(walPath, tdmatch.WALOptions{Sync: "always"}); err != nil {
		return err
	}
	defer w.Close()
	_, replay, err := r.timed("wal.replay", "replay", 0, func() error {
		applied, err := w.Replay(fresh)
		if err == nil && applied != len(docs) {
			err = fmt.Errorf("replay applied %d of %d records", applied, len(docs))
		}
		return err
	})
	if err != nil {
		return err
	}
	r.res.set("wal.replay_ms", ms(replay))

	// The warm path: Model.Ingest on the built model (which keeps its
	// pipeline state), and under it the delta stages run on the harness's
	// own state.
	warmDocs := ingestDocs(s.b.model, s.b.second, r.seed+1, "warm", r.sz.ladderWarm)
	var deltas [3][]time.Duration
	warm, err := r.ladder("ingest-warm", len(warmDocs), []rung{
		{"model.ingest_warm", func(i int) error { return s.b.model.Ingest(warmDocs[i : i+1]) }},
		{"pipeline.delta", func(i int) error {
			doc := corpus.Document{ID: warmDocs[i].ID, Values: []corpus.Value{{Text: warmDocs[i].Values[0]}}}
			st := sb.state
			if err := st.Second.Append(doc); err != nil {
				return err
			}
			st.Delta = &pipeline.Delta{AddSecond: []corpus.Document{doc}}
			defer func() { st.Delta, st.Seqs = nil, embed.Sequences{} }()
			for j, stage := range pipeline.DeltaStages() {
				start := time.Now()
				if err := stage.Run(st); err != nil {
					return fmt.Errorf("stage %s: %w", stage.Name, err)
				}
				deltas[j] = append(deltas[j], time.Since(start))
			}
			return nil
		}},
	})
	if err != nil {
		return err
	}
	r.res.set("model.ingest_warm_us", medianUS(warm[0]))
	r.res.set("graph.delta_us", medianUS(deltas[0]))
	r.res.set("walk.delta_us", medianUS(deltas[1]))
	r.res.set("embed.delta_us", medianUS(deltas[2]))

	// Model.Compact on the fold-ingested, snapshot-loaded model: the
	// retrain /v1/compact runs, without traffic beside it.
	_, compact, err := r.timed("model.compact", "compact", 0, fold.Compact)
	if err != nil {
		return err
	}
	r.res.set("model.compact_ms", ms(compact))
	return nil
}
