package tdmatch_test

// Benchmark harness: one benchmark per paper table and figure (delegating
// to the experiment runners at bench scale) plus micro-benchmarks for the
// pipeline's hot paths. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Absolute quality numbers are printed by `go run ./cmd/tdexp -exp all`;
// the benchmarks measure the cost of regenerating each artefact.

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/tdmatch/tdmatch"
	"github.com/tdmatch/tdmatch/internal/compress"
	"github.com/tdmatch/tdmatch/internal/datasets"
	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/experiments"
	"github.com/tdmatch/tdmatch/internal/graph"
	"github.com/tdmatch/tdmatch/internal/match"
	"github.com/tdmatch/tdmatch/internal/walk"
)

// benchScale trims the Small scale so the full -bench=. suite stays in the
// minutes range.
var benchScale = experiments.Scale{
	IMDbMovies: 40, CoronaCountries: 10, CoronaGenClaims: 60, CoronaUsrClaims: 25,
	AuditLevel1: 4, AuditConcepts: 8, AuditDocuments: 60, ClaimsFactor: 0.15,
	STSPairs: 100, GeneralSentences: 1000,
	NumWalks: 8, WalkLength: 14, Dim: 40, Epochs: 2, Seed: 7,
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(id, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkTable1IMDb regenerates paper Table I (IMDb WT/NT quality).
func BenchmarkTable1IMDb(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2Corona regenerates paper Table II (CoronaCheck quality).
func BenchmarkTable2Corona(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3Audit regenerates paper Table III (taxonomy Exact/Node).
func BenchmarkTable3Audit(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4Politifact regenerates paper Table IV.
func BenchmarkTable4Politifact(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5Snopes regenerates paper Table V.
func BenchmarkTable5Snopes(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkTable6STS regenerates paper Table VI (STS k=2,3).
func BenchmarkTable6STS(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkTable7Times regenerates paper Table VII (train/test times).
func BenchmarkTable7Times(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkTable8Compression regenerates paper Table VIII (MSP vs SSuM).
func BenchmarkTable8Compression(b *testing.B) { benchExperiment(b, "table8") }

// BenchmarkFig6WalkLength regenerates paper Figure 6 (MAP vs walk length).
func BenchmarkFig6WalkLength(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7NumWalks regenerates paper Figure 7 (MAP vs #walks).
func BenchmarkFig7NumWalks(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8Scaling regenerates paper Figure 8 (time vs graph size).
func BenchmarkFig8Scaling(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9Filtering regenerates paper Figure 9 (filter ablation).
func BenchmarkFig9Filtering(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10Combine regenerates paper Figure 10 (S-BE combination).
func BenchmarkFig10Combine(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkNGramsAblation regenerates the §V-F1 tokens-per-term sweep.
func BenchmarkNGramsAblation(b *testing.B) { benchExperiment(b, "ngrams") }

// BenchmarkMergingAblation regenerates the §V-F2 node-merging ablation.
func BenchmarkMergingAblation(b *testing.B) { benchExperiment(b, "merging") }

// BenchmarkMetaEdgesAblation regenerates the §V-F2 metadata-edge ablation.
func BenchmarkMetaEdgesAblation(b *testing.B) { benchExperiment(b, "metaedges") }

// BenchmarkBlockingAblation measures the token-blocking extension.
func BenchmarkBlockingAblation(b *testing.B) { benchExperiment(b, "blocking") }

// BenchmarkWalkBiasAblation measures the kind-weighted walk extension.
func BenchmarkWalkBiasAblation(b *testing.B) { benchExperiment(b, "walkbias") }

// --- Micro-benchmarks for the pipeline hot paths. ---

func benchIMDbScenario(b *testing.B) *datasets.Scenario {
	b.Helper()
	s, err := datasets.IMDb(datasets.IMDbConfig{Seed: 3, Movies: 80, WithTitle: true, GeneralSentences: 200})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkGraphBuild measures Algorithm 1 on the IMDb scenario.
func BenchmarkGraphBuild(b *testing.B) {
	s := benchIMDbScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := graph.Build(s.First, s.Second, graph.BuildConfig{})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Graph.NumNodes()
	}
}

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	s := benchIMDbScenario(b)
	res, err := graph.Build(s.First, s.Second, graph.BuildConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return res.Graph
}

// BenchmarkRandomWalks measures Algorithm 4 walk generation on the
// pipeline's hot path: packed sequences over a CSR-frozen graph.
func BenchmarkRandomWalks(b *testing.B) {
	g := benchGraph(b)
	g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seqs := walk.GeneratePacked(g, walk.Config{NumWalks: 10, Length: 20, Seed: int64(i)})
		if seqs.Len() == 0 {
			b.Fatal("no walks")
		}
	}
}

// benchWalkSequences generates the packed training corpus the Word2Vec
// benchmarks consume.
func benchWalkSequences(b *testing.B, g *graph.Graph) embed.Sequences {
	b.Helper()
	g.Freeze()
	return walk.GeneratePacked(g, walk.Config{NumWalks: 6, Length: 15, Seed: 1})
}

// benchWord2Vec trains one epoch over the benchmark walk corpus per
// iteration and reports walk tokens trained per second beside ns/op.
func benchWord2Vec(b *testing.B, cfg embed.Config) {
	g := benchGraph(b)
	seqs := benchWalkSequences(b, g)
	cfg.Epochs = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := embed.TrainPacked(seqs, g.Cap(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(seqs.NumTokens())*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
}

// BenchmarkWord2VecSkipGram measures embedding training on walk
// sequences at dim 48, the shape the trajectory has tracked since PR 3.
func BenchmarkWord2VecSkipGram(b *testing.B) {
	benchWord2Vec(b, embed.Config{Dim: 48, Window: 3, Mode: embed.SkipGram})
}

// BenchmarkWord2VecSkipGram96 is the same training at dim 96, the
// Config default and the dimension of every bench/ fixture.
func BenchmarkWord2VecSkipGram96(b *testing.B) {
	benchWord2Vec(b, embed.Config{Dim: 96, Window: 3, Mode: embed.SkipGram})
}

// BenchmarkWord2VecCBOW measures the CBOW objective used for text tasks.
func BenchmarkWord2VecCBOW(b *testing.B) {
	benchWord2Vec(b, embed.Config{Dim: 48, Window: 10, Mode: embed.CBOW})
}

// BenchmarkWord2VecCBOW96 is BenchmarkWord2VecCBOW at dim 96.
func BenchmarkWord2VecCBOW96(b *testing.B) {
	benchWord2Vec(b, embed.Config{Dim: 96, Window: 10, Mode: embed.CBOW})
}

// BenchmarkMSPCompression measures Algorithm 3 on an expanded graph.
func BenchmarkMSPCompression(b *testing.B) {
	s := benchIMDbScenario(b)
	pr, err := experiments.RunPipeline(s, benchScale, experiments.PipelineOpts{Expand: true})
	if err != nil {
		b.Fatal(err)
	}
	g := pr.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cg := compress.MSP(g, compress.Options{Ratio: 0.5, Seed: int64(i)})
		if cg.NumNodes() == 0 {
			b.Fatal("empty compressed graph")
		}
	}
}

// benchTopKIndex builds a 10k x 96 flat index over deterministic random
// vectors — the shared fixture of the single-index TopK benchmarks.
func benchTopKIndex(b *testing.B) (*match.Index, [][]float32) {
	b.Helper()
	const n, dim = 10000, 96
	ids := make([]string, n)
	vecs := make([][]float32, n)
	rng := uint64(12345)
	next := func() float32 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float32(rng%1000)/500 - 1
	}
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", i)
		v := make([]float32, dim)
		for d := range v {
			v[d] = next()
		}
		vecs[i] = v
	}
	idx, err := match.NewIndex(ids, vecs, dim)
	if err != nil {
		b.Fatal(err)
	}
	return idx, vecs
}

// reportRecallAt10 attaches an approximate index's recall@10 against
// the exact flat ranking to the benchmark, measured over a fixed sample
// of fixture queries. tools/benchjson parses the metric into the
// trajectory's recall_at_10 field, so retrieval quality is tracked per
// index kind right next to its ns/op. Call it after the timed loop with
// the timer stopped: ResetTimer clears previously reported metrics.
func reportRecallAt10(b *testing.B, flat *match.Index, approx match.VectorIndex, vecs [][]float32) {
	b.Helper()
	const sample, k = 50, 10
	hits, total := 0, 0
	for q := 0; q < sample; q++ {
		want := make(map[string]struct{}, k)
		for _, s := range flat.TopK(vecs[q], k) {
			want[s.ID] = struct{}{}
		}
		for _, s := range approx.TopK(vecs[q], k) {
			if _, ok := want[s.ID]; ok {
				hits++
			}
		}
		total += len(want)
	}
	b.ReportMetric(float64(hits)/float64(total), "recall@10")
}

// BenchmarkTopKMatch measures single-query cosine ranking at 10k targets.
func BenchmarkTopKMatch(b *testing.B) {
	idx, vecs := benchTopKIndex(b)
	query := vecs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := idx.TopK(query, 20); len(got) != 20 {
			b.Fatal("short result")
		}
	}
}

// BenchmarkTopKBatch measures the blocked multi-query kernel: 32
// queries per pass over the same 10k targets. ns/op covers the whole
// batch; divide by 32 for the per-query cost against BenchmarkTopKMatch.
func BenchmarkTopKBatch(b *testing.B) {
	idx, vecs := benchTopKIndex(b)
	queries := vecs[:32]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := idx.TopKBatch(queries, 20); len(got) != 32 {
			b.Fatal("short result")
		}
	}
}

// BenchmarkTopKHNSW measures single-query graph ANN ranking (greedy
// multi-layer descent + ef-bounded layer-0 beam + exact re-rank) at 10k
// targets — the other counterpart of BenchmarkTopKMatch, and the
// sub-100µs uncached path the graph index exists for.
func BenchmarkTopKHNSW(b *testing.B) {
	flat, vecs := benchTopKIndex(b)
	h := match.NewHNSW(flat, match.HNSWOptions{Seed: 1})
	query := vecs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := h.TopK(query, 20); len(got) != 20 {
			b.Fatal("short result")
		}
	}
	b.StopTimer()
	reportRecallAt10(b, flat, h, vecs)
}

// BenchmarkBuildHNSW measures the one-time graph construction cost over
// the shared 10k x 96 fixture — the build-side price of the query-side
// speedup, tracked next to it in BENCH_build.json.
func BenchmarkBuildHNSW(b *testing.B) {
	flat, _ := benchTopKIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := match.NewHNSW(flat, match.HNSWOptions{Seed: int64(i + 1)}); h.Len() != flat.Len() {
			b.Fatal("short graph")
		}
	}
}

// --- MatchAll throughput: exact vs ANN, serial vs parallel. ---
//
// The corpus has >= 2000 documents per side; one benchmark op is a full
// MatchAll sweep (every query ranked against every target), so ns/op
// ratios between the variants are throughput ratios. The serial-flat
// variant reproduces the seed's scan; the acceptance bar is parallel
// MatchAll at Workers = GOMAXPROCS beating it by >= 4x on multicore
// hardware.

const matchAllDocs = 2000

var matchAllModels = map[tdmatch.IndexKind]*tdmatch.Model{}

// matchAllModel builds (once per index kind) a model over two synthetic
// 2k-document corpora with overlapping vocabulary. Training is minimal:
// these benchmarks measure serving, not Build.
func matchAllModel(b *testing.B, kind tdmatch.IndexKind) *tdmatch.Model {
	b.Helper()
	if m := matchAllModels[kind]; m != nil {
		return m
	}
	rng := uint64(99)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	word := func() string { return fmt.Sprintf("term%d", next(400)) }
	rows := make([][]string, matchAllDocs)
	texts := make([]string, matchAllDocs)
	for i := range rows {
		w1, w2, w3 := word(), word(), word()
		rows[i] = []string{fmt.Sprintf("entity%d %s", i, w1), w2 + " " + w3}
		texts[i] = fmt.Sprintf("report on entity%d covering %s %s and %s", i, w1, w2, w3)
	}
	table, err := tdmatch.NewTable("items", []string{"name", "tags"}, rows, nil)
	if err != nil {
		b.Fatal(err)
	}
	docs, err := tdmatch.NewText("reports", texts, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := tdmatch.Defaults()
	cfg.Seed = 5
	cfg.NumWalks = 2
	cfg.WalkLength = 8
	cfg.Dim = 64
	cfg.Epochs = 1
	cfg.Index = kind
	model, err := tdmatch.Build(table, docs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	matchAllModels[kind] = model
	return model
}

// BenchmarkSaveV6HNSW measures one v6 save of a built HNSW model
// (2,000 documents a side): the other half of the graph's price, what
// every tdserved checkpoint pays. With both sealed segments clean the
// save serializes the live graphs; it builds none.
func BenchmarkSaveV6HNSW(b *testing.B) {
	model := matchAllModel(b, tdmatch.IndexHNSW)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := model.SaveV6(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMatchAll(b *testing.B, kind tdmatch.IndexKind, workers int) {
	model := matchAllModel(b, kind)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all := model.MatchAllWorkers(true, 10, workers)
		if len(all) < matchAllDocs/2 {
			b.Fatalf("MatchAll covered only %d queries", len(all))
		}
	}
}

// BenchmarkMatchAllSerialFlat is the seed's serving path: one goroutine,
// exact flat scan.
func BenchmarkMatchAllSerialFlat(b *testing.B) {
	benchMatchAll(b, tdmatch.IndexFlat, 1)
}

// BenchmarkMatchAllParallelFlat fans the exact scan out over GOMAXPROCS
// workers.
func BenchmarkMatchAllParallelFlat(b *testing.B) {
	benchMatchAll(b, tdmatch.IndexFlat, runtime.GOMAXPROCS(0))
}

// benchEndToEndInputs builds the corpora and configuration shared by
// the full-Build and incremental-ingest benchmarks, so their ns/op
// ratio is the ingest-vs-full-rebuild ratio on identical inputs.
func benchEndToEndInputs(b *testing.B) (*tdmatch.Corpus, *tdmatch.Corpus, tdmatch.Config) {
	b.Helper()
	s := benchIMDbScenario(b)
	first, err := tdmatch.NewTable("movies", s.First.Columns, rowsOf(s), s.First.IDs())
	if err != nil {
		b.Fatal(err)
	}
	texts := make([]string, 0, s.Second.Len())
	for _, d := range s.Second.Docs {
		texts = append(texts, d.Text())
	}
	second, err := tdmatch.NewText("reviews", texts, s.Second.IDs())
	if err != nil {
		b.Fatal(err)
	}
	cfg := tdmatch.Defaults()
	cfg.NumWalks = 8
	cfg.WalkLength = 14
	cfg.Dim = 40
	return first, second, cfg
}

// BenchmarkEndToEndPipeline measures the full public-API Build call —
// also the cost a single-document change pays without the incremental
// ingest path (compare BenchmarkIngestSingleDoc).
func BenchmarkEndToEndPipeline(b *testing.B) {
	first, second, cfg := benchEndToEndInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		model, err := tdmatch.Build(first, second, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if model.Stats().GraphNodes == 0 {
			b.Fatal("empty graph")
		}
	}
}

// --- Incremental ingest: per-document latency vs the full rebuild. ---

// ingestBenchText is the document every ingest benchmark op adds (under
// a fresh ID): vocabulary the seed IMDb corpus knows, so the fold-in
// sums representative term vectors.
const ingestBenchText = "a tense thriller remake where the detective confronts the syndicate boss"

// BenchmarkIngestSingleDoc measures Model.Ingest of one text document
// into the seed IMDb model: tokenize, fold the document's vector in
// from the trained term vectors, index append. The acceptance bar is
// >= 10x faster than BenchmarkEndToEndPipeline (the full rebuild over
// the same corpora).
func BenchmarkIngestSingleDoc(b *testing.B) {
	first, second, cfg := benchEndToEndInputs(b)
	cfg.Seed = 1
	model, err := tdmatch.Build(first, second, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := model.Ingest([]tdmatch.IngestDoc{{
			Side:   2,
			ID:     fmt.Sprintf("reviews:bench%d", i),
			Values: []string{ingestBenchText},
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestServerSingleDoc measures the full serving-layer ingest
// (Server.Ingest): model clone, fold-in Model.Ingest on the clone,
// atomic swap — the per-request cost of POST /v1/ingest.
func BenchmarkIngestServerSingleDoc(b *testing.B) {
	first, second, cfg := benchEndToEndInputs(b)
	cfg.Seed = 1
	model, err := tdmatch.Build(first, second, cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv := tdmatch.NewServer(model, tdmatch.ServeConfig{})
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := srv.Ingest([]tdmatch.IngestDoc{{
			Side:   2,
			ID:     fmt.Sprintf("reviews:srvbench%d", i),
			Values: []string{ingestBenchText},
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadSnapshotGob measures cold start from a gob (v5)
// snapshot: open the file, decode, rebuild the serving indexes, answer
// the first TopK. The baseline BenchmarkLoadSnapshotMmap is held
// against.
func BenchmarkLoadSnapshotGob(b *testing.B) { benchLoadSnapshot(b, "gob") }

// BenchmarkLoadSnapshotMmap measures cold start from a v6 snapshot
// through the zero-copy path: mmap the file (lazy verification, the
// daemon's trusted-checkpoint mode), bind the serving indexes onto the
// mapping, answer the first TopK. The PR 9 acceptance bar is >= 10x
// faster than BenchmarkLoadSnapshotGob.
func BenchmarkLoadSnapshotMmap(b *testing.B) { benchLoadSnapshot(b, "mmap") }

func benchLoadSnapshot(b *testing.B, format string) {
	first, second, cfg := benchEndToEndInputs(b)
	cfg.Seed = 1
	model, err := tdmatch.Build(first, second, cfg)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "model.snap")
	if format == "gob" {
		err = model.SaveFile(path)
	} else {
		err = model.SaveFileV6(path)
	}
	if err != nil {
		b.Fatal(err)
	}
	q := second.IDs()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var snap *tdmatch.Snapshot
		if format == "gob" {
			snap, err = tdmatch.OpenSnapshotFile(path)
		} else {
			snap, err = tdmatch.OpenSnapshotFileVerify(path, tdmatch.VerifyLazy)
		}
		if err != nil {
			b.Fatal(err)
		}
		m, err := snap.Bind(first, second)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.TopK(q, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func rowsOf(s *datasets.Scenario) [][]string {
	rows := make([][]string, 0, s.First.Len())
	for _, d := range s.First.Docs {
		row := make([]string, len(d.Values))
		for i, v := range d.Values {
			row[i] = v.Text
		}
		rows = append(rows, row)
	}
	return rows
}

// --- Segmented core: ingest cost vs graph size, online compaction. ---

// benchScaledModel builds the ingest-scaling model over IMDb corpora at
// mult times the 1x baseline size (20 movies / 100 general sentences),
// training config held fixed so only the graph size varies.
func benchScaledModel(b *testing.B, mult int) *tdmatch.Model {
	b.Helper()
	s, err := datasets.IMDb(datasets.IMDbConfig{
		Seed: 3, Movies: 20 * mult, WithTitle: true, GeneralSentences: 100 * mult,
	})
	if err != nil {
		b.Fatal(err)
	}
	first, err := tdmatch.NewTable("movies", s.First.Columns, rowsOf(s), s.First.IDs())
	if err != nil {
		b.Fatal(err)
	}
	texts := make([]string, 0, s.Second.Len())
	for _, d := range s.Second.Docs {
		texts = append(texts, d.Text())
	}
	second, err := tdmatch.NewText("reviews", texts, s.Second.IDs())
	if err != nil {
		b.Fatal(err)
	}
	cfg := tdmatch.Defaults()
	cfg.NumWalks = 8
	cfg.WalkLength = 14
	cfg.Dim = 40
	cfg.Seed = 1
	model, err := tdmatch.Build(first, second, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return model
}

// BenchmarkIngestSegmented measures per-document fold-in Model.Ingest
// against corpora 1x, 4x and 16x the baseline size. The segmented
// core's claim is O(delta) ingest: per-doc ns/op must stay flat (within
// roughly ±20%) as the graph grows 16x — appends land in the mutable
// delta segment and never touch sealed storage, where a monolithic
// design would pay an index rebuild scaling with corpus size.
func BenchmarkIngestSegmented(b *testing.B) {
	for _, mult := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("scale%dx", mult), func(b *testing.B) {
			model := benchScaledModel(b, mult)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := model.Ingest([]tdmatch.IngestDoc{{
					Side:   2,
					ID:     fmt.Sprintf("reviews:seg%d", i),
					Values: []string{ingestBenchText},
				}})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompactOnline measures one full online compaction through
// the serving layer: an ingest makes the served model stale, then
// Server.Compact clones it, retrains off-lock while queries keep
// serving, replays any concurrent deltas and swaps — the cost of
// POST /v1/compact.
func BenchmarkCompactOnline(b *testing.B) {
	first, second, cfg := benchEndToEndInputs(b)
	cfg.Seed = 1
	model, err := tdmatch.Build(first, second, cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv := tdmatch.NewServer(model, tdmatch.ServeConfig{})
	defer srv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := srv.Ingest([]tdmatch.IngestDoc{{
			Side:   2,
			ID:     fmt.Sprintf("reviews:cmp%d", i),
			Values: []string{ingestBenchText},
		}})
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestWAL measures the durability tax: the same
// Server.Ingest hot path as BenchmarkIngestServerSingleDoc with a WAL
// attached under each fsync policy. "always" pays one fsync per acked
// op (the default), "interval" batches flushes on a background timer,
// "never" leaves flushing to the OS — compare against the WAL-less
// server benchmark for the log's append-only overhead.
func BenchmarkIngestWAL(b *testing.B) {
	for _, policy := range []string{"always", "interval", "never"} {
		b.Run(policy, func(b *testing.B) {
			first, second, cfg := benchEndToEndInputs(b)
			cfg.Seed = 1
			model, err := tdmatch.Build(first, second, cfg)
			if err != nil {
				b.Fatal(err)
			}
			w, err := tdmatch.OpenWAL(filepath.Join(b.TempDir(), "bench.wal"), tdmatch.WALOptions{Sync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			srv := tdmatch.NewServer(model, tdmatch.ServeConfig{WAL: w})
			defer srv.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := srv.Ingest([]tdmatch.IngestDoc{{
					Side:   2,
					ID:     fmt.Sprintf("reviews:wal%s%d", policy, i),
					Values: []string{ingestBenchText},
				}})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
