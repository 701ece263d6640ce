package tdmatch

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/graph"
	"github.com/tdmatch/tdmatch/internal/match"
	"github.com/tdmatch/tdmatch/internal/mmapfile"
	"github.com/tdmatch/tdmatch/internal/pipeline"
	"github.com/tdmatch/tdmatch/internal/textproc"
	"github.com/tdmatch/tdmatch/internal/walk"
)

// Stats reports what the pipeline did, for logging and experiments.
type Stats struct {
	// GraphNodes / GraphEdges are the sizes after graph creation.
	GraphNodes, GraphEdges int
	// ExpandedNodes / ExpandedEdges are the sizes after expansion
	// (equal to the above when no resource is configured).
	ExpandedNodes, ExpandedEdges int
	// CompressedNodes / CompressedEdges are the sizes after compression
	// (equal to the expanded sizes when compression is off).
	CompressedNodes, CompressedEdges int
	// FilteredTerms counts second-corpus terms dropped by filtering.
	FilteredTerms int
	// MergedTerms counts term→canonical mappings applied.
	MergedTerms int
	// Walks is the number of generated random walks.
	Walks int
	// TrainTime is the wall time of walks + embedding training.
	TrainTime time.Duration
	// TrainTokens is the number of walk tokens the embedding was trained
	// on, epochs counted; over TrainTime it is the training rate.
	TrainTokens int64
	// IndexBuildTime is the wall time of constructing each side's
	// serving index (gather, normalize, kind wrap); the two sides build
	// concurrently when Workers allows, so the index phase of Build
	// took about the longer of the two.
	IndexBuildTime [2]time.Duration
	// BuildTime is the wall time of the whole Build call.
	BuildTime time.Duration
}

// Model is a trained matcher over two corpora. It holds no lock and no
// lazily built state: queries only read it, so any number may run at
// once. Ingest, Remove and Compact mutate it and must not run beside
// queries; the serving layer mutates a clone and swaps it in.
type Model struct {
	cfg Config
	// first and second are the corpora, nil while deferred is set: no
	// query reads them, only Ingest, Remove and Compact do.
	first  *Corpus
	second *Corpus
	// deferred names the corpus files of a model Snapshot.BindFiles bound
	// without parsing them; its first mutation parses them into first
	// and second (readCorpora) and clears it. Shared across clones.
	deferred *corpusFiles
	// files fingerprints the files the base corpora — the corpora before
	// the delta chain — were read from: recorded by LoadCorpus, carried
	// by Build, Bind and Compact, written by SaveV6. Nil when unknown.
	files *[2]fileSum
	// parseTime is how long this model's readCorpora took; zero when it
	// parsed nothing, and for every clone.
	parseTime time.Duration

	// g is the graph as built, kept for GraphSize and WriteGraphDOT; nil
	// for models restored from a snapshot. fold holds the trained term
	// vectors every Ingest folds new documents in from: filled by the
	// build, or restored from a snapshot that stores them. Both are
	// read-only and shared across clones.
	g    *graph.Graph
	fold *foldState
	// buildCap, when positive, replaces Config.Workers for the build-side
	// work of this model's Compact (walks, training, index construction).
	// The serving layer sets it on the clones it mutates
	// (Server.workingCopy) so that training beside live queries leaves
	// them a processor; query fan-out keeps Config.Workers.
	buildCap int

	vectors map[string][]float32
	dim     int
	// firstIdx/secondIdx are the serving indexes, one LSM-style segment
	// stack per side: the sealed base wraps the full build per
	// Config.Index (flat or HNSW) and the small mutable delta absorbs
	// ingests — what makes Ingest and clone O(delta) at any corpus size.
	firstIdx  *match.Segmented
	secondIdx *match.Segmented

	// deltas is the persistence delta chain: one record per Ingest or
	// Remove call since the model was built (or loaded), re-applied by
	// Snapshot.Bind so snapshots stay loadable against the pre-ingest
	// corpus files. deltas[:folded] are folded into a full (re)build —
	// Compact advances the watermark instead of resetting a counter, so
	// an ingest that lands while a background compaction rebuilds stays
	// counted as stale. staleBase carries the staleness a snapshot
	// recorded for deltas the chain no longer itemizes per record.
	deltas    []savedDelta
	folded    int
	staleBase int

	stats Stats

	// backing pins the mmap a zero-copy (v6) snapshot load bound this
	// model's arenas onto: the vector map, term vectors and sealed index
	// segments are views into it, so it must stay mapped for the model's
	// lifetime (clones share it). Nil for built or gob-loaded models.
	// The mapping is PROT_READ; mutations promote the touched arena to a
	// heap copy instead of writing through (see match.Index).
	backing *mmapfile.Mapping
}

// Build runs the full pipeline over two corpora and returns a ready model.
// The pipeline is an explicit stage list (internal/pipeline) — graph
// creation (§II), expansion (§III-A), compression (§III-B), walk
// generation and embedding training (§IV-A) — followed by index
// construction (§IV-B); each stage fills its slice of Stats. The model
// keeps the trained term vectors, from which Ingest folds in new
// documents, and the built graph; the rest of the stage state is
// released.
func Build(first, second *Corpus, cfg Config) (*Model, error) {
	if first == nil || second == nil {
		return nil, fmt.Errorf("tdmatch: Build requires two corpora")
	}
	if k := max(cfg.HNSWM, cfg.HNSWEf, cfg.HNSWEfConstruct); k > maxHNSWKnob {
		return nil, fmt.Errorf("tdmatch: HNSW parameter %d exceeds %d", k, maxHNSWKnob)
	}
	m := &Model{cfg: cfg.withDefaults(), first: first, second: second}
	if first.file != nil && second.file != nil {
		m.files = &[2]fileSum{*first.file, *second.file}
	}
	if err := m.build(); err != nil {
		return nil, err
	}
	return m, nil
}

// build runs the pipeline and the index construction over the model's
// corpora and configuration: Build's body, shared with Compact, which
// carries a serving clone's buildCap into the rebuild.
func (m *Model) build() error {
	start := time.Now()
	st := &pipeline.State{Cfg: m.pipelineConfig(), First: m.first.c, Second: m.second.c}
	if err := pipeline.Run(st, pipeline.FullStages()); err != nil {
		return err
	}
	m.g = st.Build.Graph
	m.dim = m.cfg.Dim
	m.copyStageStats(st.Stats)
	m.gatherVectors(st.Embed, st.Build.DocNode)
	ids, arena, err := trainedTerms(st.Build.Graph, st.Embed, m.dim)
	if err != nil {
		return err
	}
	m.fold = &foldState{pre: preprocessor(m.cfg.MaxNGram), ids: ids, arena: arena}
	if err := m.buildIndexes(); err != nil {
		return err
	}
	m.stats.BuildTime = time.Since(start)
	return nil
}

// buildWorkers is the worker count of build-side work: Config.Workers,
// or the serving layer's bound on it (limitBuild).
func (m *Model) buildWorkers() int {
	if m.buildCap > 0 {
		return m.buildCap
	}
	return m.cfg.Workers
}

// limitBuild bounds the workers of this model's later Compact at n, and
// never raises them above Config.Workers.
func (m *Model) limitBuild(n int) {
	m.buildCap = max(1, min(n, m.cfg.Workers))
}

// preprocessor is the tokenization every model builds and folds with:
// stopwords removed, stemmed, terms of up to maxNGram tokens.
func preprocessor(maxNGram int) textproc.Preprocessor {
	return textproc.Preprocessor{RemoveStopwords: true, Stem: true, MaxNGram: maxNGram}
}

// pipelineConfig translates the public Config into the internal stage
// parameters.
func (m *Model) pipelineConfig() pipeline.Config {
	cfg := m.cfg
	bc := graph.BuildConfig{
		Pre:                  preprocessor(cfg.MaxNGram),
		ConnectMetadata:      true,
		DisableMetadataEdges: cfg.DisableMetadataEdges,
		Bucketing:            cfg.Bucketing,
		BucketWidth:          cfg.BucketWidth,
		TFIDFTopK:            cfg.TFIDFTopK,
	}
	switch cfg.Filter {
	case FilterNone:
		bc.Filter = graph.FilterNone
	case FilterTFIDF:
		bc.Filter = graph.FilterTFIDF
	default:
		bc.Filter = graph.FilterIntersect
	}
	if lex := buildLexicon(cfg.SynonymGroups); lex != nil {
		bc.Mergers = append(bc.Mergers, lex)
	}
	pc := pipeline.Config{
		Graph:               bc,
		MaxRelationsPerNode: cfg.MaxRelationsPerNode,
		Compress:            cfg.Compression == CompressMSP,
		MSPRatio:            cfg.CompressionRatio,
		Seed:                cfg.Seed,
		Walk: walk.Config{
			NumWalks:    cfg.NumWalks,
			Length:      cfg.WalkLength,
			Seed:        cfg.Seed,
			Workers:     m.buildWorkers(),
			KindWeights: kindWeights(cfg.WalkBias),
		},
	}
	if cfg.Resource != nil {
		pc.Resource = resourceAdapter{cfg.Resource}
	}
	if cfg.ReturnParam > 0 || cfg.InOutParam > 0 {
		p, q := cfg.ReturnParam, cfg.InOutParam
		if p <= 0 {
			p = 1
		}
		if q <= 0 {
			q = 1
		}
		pc.SecondOrder = &walk.SecondOrder{P: p, Q: q}
	}
	mode, window := pipeline.Objective(m.first.c, m.second.c)
	if cfg.Window > 0 {
		window = cfg.Window
	}
	pc.Embed = embed.Config{
		Dim:       cfg.Dim,
		Window:    window,
		Negative:  cfg.Negative,
		Epochs:    cfg.Epochs,
		Mode:      mode,
		Seed:      cfg.Seed,
		Workers:   m.buildWorkers(),
		Subsample: cfg.Subsample,
	}
	return pc
}

// copyStageStats mirrors the stage-layer statistics into the public
// Stats struct.
func (m *Model) copyStageStats(ss pipeline.Stats) {
	m.stats.GraphNodes = ss.GraphNodes
	m.stats.GraphEdges = ss.GraphEdges
	m.stats.ExpandedNodes = ss.ExpandedNodes
	m.stats.ExpandedEdges = ss.ExpandedEdges
	m.stats.CompressedNodes = ss.CompressedNodes
	m.stats.CompressedEdges = ss.CompressedEdges
	m.stats.FilteredTerms = ss.FilteredTerms
	m.stats.MergedTerms = ss.MergedTerms
	m.stats.Walks = ss.Walks
	m.stats.TrainTime = ss.TrainTime
	m.stats.TrainTokens = ss.TrainTokens
}

// gatherVectors extracts the documents' rows out of the trainer's
// vocabulary-sized arena into one compact per-document arena; the
// vector map values are views into it.
func (m *Model) gatherVectors(em *embed.Model, docNode map[string]graph.NodeID) {
	m.vectors = make(map[string][]float32, len(docNode))
	docArena := make([]float32, len(docNode)*m.dim)
	used := 0
	for docID, node := range docNode {
		v := em.Vector(int32(node))
		if v == nil {
			continue
		}
		row := docArena[used*m.dim : (used+1)*m.dim : (used+1)*m.dim]
		copy(row, v)
		m.vectors[docID] = row
		used++
	}
}

// trainedTerms gathers the fold state's term table from the built graph:
// the label of every live data and external node with a trained vector,
// sorted, and those vectors in that order in one arena of rows of dim
// floats. The graph keys both kinds by label, so no label repeats, which
// the table's binary search relies on.
func trainedTerms(g *graph.Graph, em *embed.Model, dim int) ([]string, []float32, error) {
	type term struct {
		label string
		v     []float32
	}
	var terms []term
	for _, node := range g.DataNodes() {
		if v := em.Vector(int32(node)); v != nil {
			terms = append(terms, term{g.Label(node), v})
		}
	}
	slices.SortFunc(terms, func(a, b term) int { return strings.Compare(a.label, b.label) })
	ids := make([]string, len(terms))
	arena := make([]float32, len(terms)*dim)
	for i, t := range terms {
		if i > 0 && t.label == ids[i-1] {
			return nil, nil, fmt.Errorf("tdmatch: two trained terms labelled %q", t.label)
		}
		ids[i] = t.label
		copy(arena[i*dim:(i+1)*dim], t.v)
	}
	return ids, arena, nil
}

// buildIndexes constructs the per-side serving indexes (§IV-B): the
// exact arena-backed flat index of each side becomes the sealed base
// segment of a segmented stack, wrapped per Config.Index. Also used by
// LoadModel to rebuild serving state from persisted vectors.
func (m *Model) buildIndexes() error {
	return m.buildSegmentedIndexes(nil, nil)
}

// buildSegmentedIndexes is buildIndexes with explicit per-side segment
// manifests (lists of live document IDs; sealed segments in stack
// order, the mutable delta last). A nil manifest builds the fresh
// single-segment layout over the side's whole corpus. Snapshot.Bind
// passes a version-5 snapshot's manifests so a restored stack keeps
// its saved segment boundaries. The two sides are independent — they
// read the shared vector map and write their own index and Stats slots
// — so they build as two pool tasks, concurrently when Config.Workers
// (or a serving clone's lower buildCap) allows.
func (m *Model) buildSegmentedIndexes(firstSegs, secondSegs [][]string) error {
	corpora := [2]*corpus.Corpus{m.first.c, m.second.c}
	manifests := [2][][]string{firstSegs, secondSegs}
	var idx [2]*match.Segmented
	var errs [2]error
	runPool(2, m.buildWorkers(), func(side int) {
		start := time.Now()
		idx[side], errs[side] = m.buildSide(corpora[side], side, manifests[side])
		m.stats.IndexBuildTime[side] = time.Since(start)
	})
	m.firstIdx, m.secondIdx = idx[0], idx[1]
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// buildSide assembles one side's segment stack: manifest[0] becomes the
// sealed base (wrapped per Config.Index), the middle entries are
// re-sealed in order, and the last entry fills the mutable delta.
func (m *Model) buildSide(c *corpus.Corpus, side int, manifest [][]string) (*match.Segmented, error) {
	if len(manifest) == 0 {
		manifest = [][]string{c.IDs(), nil}
	}
	flat, err := m.buildFlatIDs(manifest[0])
	if err != nil {
		return nil, err
	}
	stack, err := match.NewSegmented(m.cfg.wrapSegment(flat, side, 0), m.dim, m.sealFunc(side), m.cfg.SegmentMaxDocs)
	if err != nil {
		return nil, err
	}
	for i, ids := range manifest[1:] {
		if len(ids) == 0 {
			continue
		}
		if err := stack.Append(ids, m.gatherArena(ids)); err != nil {
			return nil, err
		}
		if i < len(manifest)-2 { // not the delta entry
			if err := stack.Seal(); err != nil {
				return nil, err
			}
		}
	}
	return stack, nil
}

// gatherArena copies the documents' vectors into one contiguous arena
// (documents without an embedding stay zero rows, scoring 0 against
// everything, exactly as after a full build).
func (m *Model) gatherArena(ids []string) []float32 {
	arena := make([]float32, len(ids)*m.dim)
	for i, id := range ids {
		copy(arena[i*m.dim:(i+1)*m.dim], m.vectors[id])
	}
	return arena
}

func (m *Model) buildFlatIDs(ids []string) (*match.Index, error) {
	return match.NewIndexArena(ids, m.gatherArena(ids), m.dim)
}

// segmentSeedStride spaces the seeds of sealed delta segments apart
// from the base segment's and from each other.
const segmentSeedStride = 1_000_003

// segmentSeed derives the construction seed (HNSW levels) of one side's
// segment at the given stack ordinal: side (0 or 1) offsets it so the
// two sides don't share draws, and sealed deltas (ordinal >= 1) space
// theirs from the base's by segmentSeedStride. The
// builder, the seal hook, the v6 snapshot writer and the v6 binder all
// derive it here: a drift between them would turn every save of a clean
// segment into the rebuild fallback, or break resave byte-identity.
func (c Config) segmentSeed(side, ordinal int) int64 {
	seed := c.Seed + int64(side) + 1
	if ordinal > 0 {
		seed += (int64(ordinal) + 1) * segmentSeedStride
	}
	return seed
}

// hnswOptions resolves the HNSW construction options for one side's
// segment at the given stack ordinal.
func (c Config) hnswOptions(side, ordinal int) match.HNSWOptions {
	return match.HNSWOptions{
		M:           c.HNSWM,
		Ef:          c.HNSWEf,
		EfConstruct: c.HNSWEfConstruct,
		Seed:        c.segmentSeed(side, ordinal),
	}
}

// wrapSegment wraps a flat segment into its serving kind per
// Config.Index — HNSW graph construction, seeded per (side, ordinal),
// or the flat segment itself.
func (c Config) wrapSegment(flat *match.Index, side, ordinal int) match.VectorIndex {
	if c.Index == IndexHNSW {
		return match.NewHNSW(flat, c.hnswOptions(side, ordinal))
	}
	return flat
}

// sealFunc returns the stack's seal hook for one side: a freshly
// sealed delta segment gets the same kind wrap as the base (HNSW
// construction), seeded per ordinal so a replayed
// ingest sequence builds an identical stack. The hook captures the
// configuration by value and never touches the model, so clones can
// share it.
func (m *Model) sealFunc(side int) match.SealFunc {
	cfg := m.cfg
	return func(flat *match.Index, ordinal int) match.VectorIndex {
		return cfg.wrapSegment(flat, side, ordinal)
	}
}

// SegmentStats describes one side's serving segment stack.
type SegmentStats struct {
	// Segments is the sealed-segment count (1 right after a build or
	// Compact; each SegmentMaxDocs ingested documents seal another).
	Segments int `json:"segments"`
	// DeltaDocs is the live row count of the mutable delta segment.
	DeltaDocs int `json:"delta_docs"`
	// Tombstones counts sealed rows masked by the removal overlay
	// (reclaimed by Compact).
	Tombstones int `json:"tombstones"`
}

// SegmentStats snapshots the segment layout of both serving indexes.
func (m *Model) SegmentStats() (first, second SegmentStats) {
	return segmentStatsOf(m.firstIdx), segmentStatsOf(m.secondIdx)
}

func segmentStatsOf(seg *match.Segmented) SegmentStats {
	return SegmentStats{
		Segments:   seg.Segments(),
		DeltaDocs:  seg.DeltaLen(),
		Tombstones: seg.Tombstones(),
	}
}

// IndexStats identifies one side's serving index for monitoring: the
// configured kind plus resident/live row counts, and the graph shape
// when the side serves HNSW.
type IndexStats struct {
	// Kind is the serving index kind ("flat" or "hnsw").
	Kind string `json:"kind"`
	// Rows counts resident rows including tombstoned ones; LiveRows
	// counts rows a query can actually return. Compact closes the gap.
	Rows     int `json:"rows"`
	LiveRows int `json:"live_rows"`
	// MaxLevel, AvgDegree and Ef describe the base segment's HNSW graph
	// (absent for other kinds): the hierarchy's top layer, the mean
	// layer-0 out-degree, and the query-time beam width.
	MaxLevel  int     `json:"max_level,omitempty"`
	AvgDegree float64 `json:"avg_degree,omitempty"`
	Ef        int     `json:"ef,omitempty"`
}

// IndexStats snapshots both serving indexes' identity blocks.
func (m *Model) IndexStats() (first, second IndexStats) {
	return m.indexStatsOf(m.firstIdx), m.indexStatsOf(m.secondIdx)
}

func (m *Model) indexStatsOf(seg *match.Segmented) IndexStats {
	st := IndexStats{Kind: m.cfg.Index.String(), Rows: seg.Rows(), LiveRows: seg.Len()}
	if h, ok := seg.Base().(*match.HNSW); ok {
		st.MaxLevel = h.MaxLevel()
		st.AvgDegree = h.AvgDegree()
		st.Ef = h.Ef()
	}
	return st
}

// Stats returns pipeline statistics.
func (m *Model) Stats() Stats { return m.stats }

// TrainTokensPerSecond is the training rate, TrainTokens over TrainTime
// (0 for a model that was loaded, not trained).
func (s Stats) TrainTokensPerSecond() float64 {
	if s.TrainTime <= 0 {
		return 0
	}
	return float64(s.TrainTokens) / s.TrainTime.Seconds()
}

// TrainKernel names the implementation of the Word2Vec
// negative-sampling step this process trains with: "avx2" (the
// assembly kernels, on amd64 CPUs that have AVX2) or "portable" (the Go
// loops, everywhere else and under the purego build tag). The two leave
// the same bits behind at Workers 1; only the speed differs.
func TrainKernel() string { return embed.Kernel() }

// Vector returns the learned embedding of a document's metadata node, nil
// when the document is unknown or was pruned.
func (m *Model) Vector(docID string) []float32 { return m.vectors[docID] }

// Vectors returns the embeddings of all metadata documents, keyed by ID.
// Callers must not mutate the returned slices.
func (m *Model) Vectors() map[string][]float32 { return m.vectors }

// sideOf reports which corpus a document belongs to: 1, 2, or 0
// (unknown). It asks the serving indexes, which hold a row for every
// live document of their side, so queries never read the corpora.
func (m *Model) sideOf(docID string) int {
	if m.firstIdx.Has(docID) {
		return 1
	}
	if m.secondIdx.Has(docID) {
		return 2
	}
	return 0
}

// TopK returns the k documents of the *other* corpus most similar to the
// given document (§IV-B), served by the configured index. The query may
// come from either corpus.
func (m *Model) TopK(docID string, k int) ([]Match, error) {
	var idx *match.Segmented
	switch m.sideOf(docID) {
	case 1:
		idx = m.secondIdx
	case 2:
		idx = m.firstIdx
	default:
		return nil, fmt.Errorf("tdmatch: unknown document %q", docID)
	}
	q := m.vectors[docID]
	if q == nil {
		return nil, fmt.Errorf("tdmatch: document %q has no embedding (pruned or isolated)", docID)
	}
	return idx.TopK(q, k), nil
}

// MatchAll ranks, for every document of the query corpus, the top-k
// documents of the other corpus, fanning the queries out over
// Config.Workers goroutines. fromSecond selects the query side (the paper
// defaults to the larger corpus; pick the side natural for the
// application, e.g. claims in fact checking).
func (m *Model) MatchAll(fromSecond bool, k int) map[string][]Match {
	return m.MatchAllWorkers(fromSecond, k, m.cfg.Workers)
}

// matchBatch is the number of queries one worker hands to a blocked
// TopKBatch kernel pass: large enough to amortize each arena tile read
// over the whole batch, small enough that the per-batch query block
// (matchBatch x Dim float32s) stays cache-resident next to the tile.
const matchBatch = 32

// batchChunk sizes one kernel chunk for n queries over the given worker
// count: matchBatch by default, but never so large that idle workers
// watch one chunk run — a burst smaller than workers*matchBatch (the
// common micro-batch shape) still splits across every worker.
func batchChunk(n, workers int) int {
	size := matchBatch
	if workers > 1 {
		if per := (n + workers - 1) / workers; per < size {
			size = per
		}
	}
	if size < 1 {
		size = 1
	}
	return size
}

// MatchAllWorkers is MatchAll with an explicit worker count; 1 reproduces
// the serial scan. Queries are batched matchBatch at a time into the
// serving index's blocked multi-query kernel — one arena read amortized
// across each batch — and the batches are fanned out over the workers.
// Batching and worker count never change results: every path selects
// with the same kernel and tie rule.
func (m *Model) MatchAllWorkers(fromSecond bool, k, workers int) map[string][]Match {
	from, idx := m.firstIdx, m.secondIdx
	if fromSecond {
		from, idx = m.secondIdx, m.firstIdx
	}
	ids := from.LiveIDs()
	results := make([][]Match, len(ids))
	size := batchChunk(len(ids), workers)
	batches := (len(ids) + size - 1) / size
	runPool(batches, workers, func(bi int) {
		lo := bi * size
		hi := min(lo+size, len(ids))
		bs := leaseBatch()
		defer bs.release()
		for i := lo; i < hi; i++ {
			if q := m.vectors[ids[i]]; q != nil {
				bs.queries = append(bs.queries, q)
				bs.slots = append(bs.slots, i)
			}
		}
		for j, ms := range idx.TopKBatch(bs.queries, k) {
			results[bs.slots[j]] = ms
		}
	})
	out := make(map[string][]Match, len(ids))
	for i, id := range ids {
		if results[i] != nil {
			out[id] = results[i]
		}
	}
	return out
}

// batchScratch is one kernel chunk's query list and the result slot of
// each query, pooled so a chunk allocates only its rankings.
type batchScratch struct {
	queries [][]float32
	slots   []int
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func leaseBatch() *batchScratch { return batchPool.Get().(*batchScratch) }

// release empties the scratch, dropping its references to query
// vectors, and returns it to the pool.
func (b *batchScratch) release() {
	clear(b.queries)
	b.queries, b.slots = b.queries[:0], b.slots[:0]
	batchPool.Put(b)
}

// TopKBatch answers many queries in one call, batching them through the
// serving indexes' blocked multi-query kernels with Config.Workers
// parallelism. Results are position-aligned with docIDs; unknown
// documents and documents without an embedding fail per query without
// affecting the rest.
func (m *Model) TopKBatch(docIDs []string, k int) []BatchResult {
	return m.TopKBatchWorkers(docIDs, k, m.cfg.Workers)
}

// TopKBatchWorkers is TopKBatch with an explicit worker count. Queries
// are grouped by which side's index serves them, chunked matchBatch at
// a time into the blocked kernel, and the chunks fanned out over the
// workers — the serving counterpart of MatchAllWorkers for ad-hoc query
// sets (Server.TopKBatch and the micro-batch executor feed it).
func (m *Model) TopKBatchWorkers(docIDs []string, k, workers int) []BatchResult {
	out := make([]BatchResult, len(docIDs))
	var side1, side2 []int
	for i, id := range docIDs {
		out[i].ID = id
		switch m.sideOf(id) {
		case 1:
			side1 = append(side1, i)
		case 2:
			side2 = append(side2, i)
		default:
			out[i].Err = fmt.Errorf("tdmatch: unknown document %q", id)
		}
	}
	type chunk struct {
		idx   *match.Segmented
		slots []int
	}
	var chunks []chunk
	addChunks := func(idx *match.Segmented, slots []int) {
		size := batchChunk(len(slots), workers)
		for lo := 0; lo < len(slots); lo += size {
			hi := lo + size
			if hi > len(slots) {
				hi = len(slots)
			}
			chunks = append(chunks, chunk{idx: idx, slots: slots[lo:hi]})
		}
	}
	addChunks(m.secondIdx, side1) // side-1 queries rank side-2 targets
	addChunks(m.firstIdx, side2)
	runPool(len(chunks), workers, func(ci int) {
		ch := chunks[ci]
		bs := leaseBatch()
		defer bs.release()
		for _, slot := range ch.slots {
			q := m.vectors[out[slot].ID]
			if q == nil {
				out[slot].Err = fmt.Errorf("tdmatch: document %q has no embedding (pruned or isolated)", out[slot].ID)
				continue
			}
			bs.queries = append(bs.queries, q)
			bs.slots = append(bs.slots, slot)
		}
		for j, ms := range ch.idx.TopKBatch(bs.queries, k) {
			out[bs.slots[j]].Matches = ms
		}
	})
	return out
}

// runPool fans run(i) for i in [0, n) out over up to workers goroutines,
// blocking until every call returns; workers <= 1 (or n < 2) runs
// serially on the calling goroutine. The shared worker-pool scaffolding
// of MatchAllWorkers, Model.TopKBatchWorkers and the micro-batch
// executor. The work channel is buffered so the producer streams items
// without a scheduler round-trip per handoff — measurable when the
// per-item work is one small kernel call.
func runPool(n, workers int, run func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	buf := n
	if buf > 4096 {
		buf = 4096
	}
	var wg sync.WaitGroup
	next := make(chan int, buf)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// GraphSize returns the live node and edge counts of the graph as the
// last Build or Compact built it; ingested documents do not change it.
// Models restored with LoadModel carry no graph and report zeros.
func (m *Model) GraphSize() (nodes, edges int) {
	if m.g == nil {
		return 0, 0
	}
	return m.g.NumNodes(), m.g.NumEdges()
}

// WriteGraphDOT renders the graph as the last Build or Compact built it
// in Graphviz DOT format, for inspection. It fails for models restored
// with LoadModel, which do not retain the graph.
func (m *Model) WriteGraphDOT(w io.Writer, name string) error {
	if m.g == nil {
		return fmt.Errorf("tdmatch: model has no graph (restored from a save?)")
	}
	return m.g.WriteDOT(w, name)
}

// kindWeights translates the public WalkBias into internal kind weights.
func kindWeights(b *WalkBias) map[graph.NodeKind]float64 {
	if b == nil {
		return nil
	}
	w := map[graph.NodeKind]float64{}
	set := func(v float64, kinds ...graph.NodeKind) {
		if v == 0 {
			return // unspecified: keep default weight 1
		}
		for _, k := range kinds {
			w[k] = v
		}
	}
	set(b.Attribute, graph.Attribute)
	set(b.Metadata, graph.Tuple, graph.Snippet, graph.Concept)
	set(b.External, graph.External)
	return w
}
