package tdmatch

import (
	"fmt"
	"io"
	"reflect"
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

// extIndexCache memoizes the external-scorer index TopKCombined builds
// over one target side, keyed on the identity of the caller's vector map.
// src retains the keyed map so its address cannot be recycled for a new
// map while the cache entry is alive.
type extIndexCache struct {
	src map[string][]float32
	dim int
	idx *match.Index
}

// Model is a trained matcher over two corpora.
type Model struct {
	cfg    Config
	first  *Corpus
	second *Corpus

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
	// firstIdx/secondIdx are the serving indexes: LSM-style segment
	// stacks (match.Segmented) whose sealed base wraps the full build
	// per Config.Index (flat or HNSW) and whose small mutable delta
	// absorbs ingests — what makes Ingest and clone O(delta) at any
	// corpus size. firstFlat/secondFlat are
	// monolithic exact indexes over each side's live rows, backing
	// TopKCombined and TopKBlocked; they are built eagerly by Build,
	// invalidated by mutations and clones, and lazily rebuilt under
	// flatMu on first use.
	firstIdx   match.VectorIndex
	secondIdx  match.VectorIndex
	flatMu     sync.Mutex
	firstFlat  *match.Index
	secondFlat *match.Index

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

	blkMu     sync.Mutex
	firstBlk  *match.Blocker
	secondBlk *match.Blocker
	extMu     sync.Mutex
	extCache  [2]extIndexCache
	stats     Stats

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
	m := &Model{cfg: cfg.withDefaults(), first: first, second: second}
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
	m.fold = &foldState{pre: preprocessor(m.cfg.MaxNGram), terms: trainedTerms(st.Build.Graph, st.Embed)}
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
	mode, window := m.objective()
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

// trainedTerms maps the label of every live data and external node of
// the built graph to its trained vector: a view into the trainer's input
// arena, which the returned map keeps alive.
func trainedTerms(g *graph.Graph, em *embed.Model) map[string][]float32 {
	nodes := g.DataNodes()
	terms := make(map[string][]float32, len(nodes))
	for _, node := range nodes {
		if v := em.Vector(int32(node)); v != nil {
			terms[g.Label(node)] = v
		}
	}
	return terms
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
// read the shared vector map and write their own index, cache and Stats
// slots — so they build as two pool tasks, concurrently when
// Config.Workers (or a serving clone's lower buildCap) allows.
func (m *Model) buildSegmentedIndexes(firstSegs, secondSegs [][]string) error {
	corpora := [2]*corpus.Corpus{m.first.c, m.second.c}
	manifests := [2][][]string{firstSegs, secondSegs}
	var idx [2]match.VectorIndex
	var flat [2]*match.Index
	var errs [2]error
	runPool(2, m.buildWorkers(), func(side int) {
		start := time.Now()
		idx[side], flat[side], errs[side] = m.buildSide(corpora[side], side, manifests[side])
		m.stats.IndexBuildTime[side] = time.Since(start)
	})
	m.firstIdx, m.secondIdx = idx[0], idx[1]
	m.firstFlat, m.secondFlat = flat[0], flat[1]
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// buildSide assembles one side's segment stack: manifest[0] becomes the
// sealed base (wrapped per Config.Index), the middle entries are
// re-sealed in order, and the last entry fills the mutable delta. The
// monolithic exact cache is populated only for the single-segment
// layout; multi-segment restores leave it to the lazy exactFlat
// rebuild.
func (m *Model) buildSide(c *corpus.Corpus, side int, manifest [][]string) (match.VectorIndex, *match.Index, error) {
	if len(manifest) == 0 {
		manifest = [][]string{c.IDs(), nil}
	}
	flat, err := m.buildFlatIDs(manifest[0])
	if err != nil {
		return nil, nil, err
	}
	stack, err := match.NewSegmented(m.cfg.wrapSegment(flat, side, 0), m.dim, m.sealFunc(side), m.cfg.SegmentMaxDocs)
	if err != nil {
		return nil, nil, err
	}
	single := true
	for i, ids := range manifest[1:] {
		if len(ids) == 0 {
			continue
		}
		single = false
		if err := stack.Append(ids, m.gatherArena(ids)); err != nil {
			return nil, nil, err
		}
		if i < len(manifest)-2 { // not the delta entry
			if err := stack.Seal(); err != nil {
				return nil, nil, err
			}
		}
	}
	if single {
		return stack, flat, nil
	}
	return stack, nil, nil
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

// exactFlat returns the side's (1 = first corpus, 2 = second)
// monolithic exact index, rebuilding it over the serving stack's live
// rows when a mutation or clone invalidated it — TopKCombined and
// TopKBlocked are exact-only surfaces and pay this O(side) rebuild at
// most once per mutation, not per query.
func (m *Model) exactFlat(side int) (*match.Index, error) {
	m.flatMu.Lock()
	defer m.flatMu.Unlock()
	slot, idx := &m.firstFlat, m.firstIdx
	if side == 2 {
		slot, idx = &m.secondFlat, m.secondIdx
	}
	if *slot == nil {
		var ids []string
		if seg, ok := idx.(*match.Segmented); ok {
			for _, segIDs := range seg.SegmentManifest() {
				ids = append(ids, segIDs...)
			}
		} else {
			ids = idx.IDs()
		}
		flat, err := m.buildFlatIDs(ids)
		if err != nil {
			return nil, err
		}
		*slot = flat
	}
	return *slot, nil
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

func segmentStatsOf(idx match.VectorIndex) SegmentStats {
	seg, ok := idx.(*match.Segmented)
	if !ok {
		return SegmentStats{}
	}
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

func (m *Model) indexStatsOf(idx match.VectorIndex) IndexStats {
	st := IndexStats{Kind: m.cfg.Index.String()}
	base := idx
	if seg, ok := idx.(*match.Segmented); ok {
		st.LiveRows = seg.Len()
		st.Rows = seg.Len() + seg.Tombstones()
		base = seg.Base()
	} else {
		st.LiveRows = idx.Len()
		st.Rows = len(idx.IDs())
	}
	if h, ok := base.(*match.HNSW); ok {
		st.MaxLevel = h.MaxLevel()
		st.AvgDegree = h.AvgDegree()
		st.Ef = h.Ef()
	}
	return st
}

// objective picks Skip-gram window 3 when a table is involved and CBOW
// window 15 for text-only tasks, as in §V — unless overridden.
func (m *Model) objective() (embed.Mode, int) {
	mode := embed.SkipGram
	window := m.cfg.Window
	if m.cfg.ChooseObjective {
		tableInvolved := m.first.c.Kind == corpus.Table || m.second.c.Kind == corpus.Table
		if !tableInvolved {
			mode = embed.CBOW
			if window <= 0 {
				window = 15
			}
		} else if window <= 0 {
			window = 3
		}
	} else {
		if m.cfg.CBOW {
			mode = embed.CBOW
		}
		if window <= 0 {
			window = 5
		}
	}
	return mode, window
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

// docOf resolves a document ID to its side (1 or 2) and document; side 0
// and ok false for unknown IDs.
func (m *Model) docOf(docID string) (int, corpus.Document, bool) {
	if d, ok := m.first.c.Doc(docID); ok {
		return 1, d, true
	}
	if d, ok := m.second.c.Doc(docID); ok {
		return 2, d, true
	}
	return 0, corpus.Document{}, false
}

// sideOf reports which corpus a document belongs to: 1, 2, or 0 (unknown).
func (m *Model) sideOf(docID string) int {
	side, _, _ := m.docOf(docID)
	return side
}

// TopK returns the k documents of the *other* corpus most similar to the
// given document (§IV-B), served by the configured index. The query may
// come from either corpus.
func (m *Model) TopK(docID string, k int) ([]Match, error) {
	var idx match.VectorIndex
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
	return toMatches(idx.TopK(q, k)), nil
}

// extIndex returns the cached external-scorer index over the given
// target side, rebuilding it only when the caller passes a different
// vector map (identity, not content: mutating a cached map between
// calls is not supported) or dimension. side is 1 for the first corpus,
// 2 for the second; the index is built position-aligned with that
// side's flat index (including tombstoned rows, which never surface),
// so TopKCombined stays correct after ingests and removals.
func (m *Model) extIndex(side int, flat *match.Index, extVectors map[string][]float32, extDim int) (*match.Index, error) {
	m.extMu.Lock()
	defer m.extMu.Unlock()
	cached := &m.extCache[side-1]
	if cached.idx != nil && cached.dim == extDim &&
		reflect.ValueOf(cached.src).Pointer() == reflect.ValueOf(extVectors).Pointer() {
		return cached.idx, nil
	}
	ids := flat.IDs()
	extVecs := make([][]float32, len(ids))
	for i, id := range ids {
		extVecs[i] = extVectors[id]
	}
	idx, err := match.NewIndex(ids, extVecs, extDim)
	if err != nil {
		return nil, err
	}
	*cached = extIndexCache{src: extVectors, dim: extDim, idx: idx}
	return idx, nil
}

// TopKCombined averages the model's cosine scores with an external scorer's
// vectors (e.g. a pre-trained sentence embedder), reproducing the Fig. 10
// combination. extVectors must map document IDs of both corpora to vectors
// of consistent dimension extDim; weight balances model vs external (0.5 =
// plain average). The external index is cached per side on the identity of
// extVectors, so repeated calls with the same map pay the build once.
func (m *Model) TopKCombined(docID string, k int, extVectors map[string][]float32, extDim int, weight float64) ([]Match, error) {
	var sideNo int
	switch m.sideOf(docID) {
	case 1:
		sideNo = 2
	case 2:
		sideNo = 1
	default:
		return nil, fmt.Errorf("tdmatch: unknown document %q", docID)
	}
	idx, err := m.exactFlat(sideNo)
	if err != nil {
		return nil, err
	}
	q := m.vectors[docID]
	if q == nil {
		return nil, fmt.Errorf("tdmatch: document %q has no embedding", docID)
	}
	extQ := extVectors[docID]
	if extQ == nil {
		return toMatches(idx.TopK(q, k)), nil
	}
	extIdx, err := m.extIndex(sideNo, idx, extVectors, extDim)
	if err != nil {
		return nil, err
	}
	scored, err := idx.TopKCombined(extIdx, q, extQ, 1-weight, weight, k)
	if err != nil {
		return nil, err
	}
	return toMatches(scored), nil
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
	c, idx := m.first.c, m.secondIdx
	if fromSecond {
		c, idx = m.second.c, m.firstIdx
	}
	ids := c.IDs()
	results := make([][]Match, len(ids))
	size := batchChunk(len(ids), workers)
	batches := (len(ids) + size - 1) / size
	runPool(batches, workers, func(bi int) {
		lo := bi * size
		hi := lo + size
		if hi > len(ids) {
			hi = len(ids)
		}
		queries := make([][]float32, 0, hi-lo)
		slots := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if q := m.vectors[ids[i]]; q != nil {
				queries = append(queries, q)
				slots = append(slots, i)
			}
		}
		for j, ranked := range idx.TopKBatch(queries, k) {
			results[slots[j]] = toMatches(ranked)
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
		idx   match.VectorIndex
		slots []int
	}
	var chunks []chunk
	addChunks := func(idx match.VectorIndex, slots []int) {
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
		queries := make([][]float32, 0, len(ch.slots))
		live := make([]int, 0, len(ch.slots))
		for _, slot := range ch.slots {
			q := m.vectors[out[slot].ID]
			if q == nil {
				out[slot].Err = fmt.Errorf("tdmatch: document %q has no embedding (pruned or isolated)", out[slot].ID)
				continue
			}
			queries = append(queries, q)
			live = append(live, slot)
		}
		for j, ranked := range ch.idx.TopKBatch(queries, k) {
			out[live[j]].Matches = toMatches(ranked)
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

func toMatches(scored []match.Scored) []Match {
	out := make([]Match, len(scored))
	for i, s := range scored {
		out[i] = Match{ID: s.ID, Score: s.Score}
	}
	return out
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

// TopKBlocked is TopK restricted to candidates that share at least one
// processed token with the query document — the blocking speed-up the
// paper plans as future work (§VII). When no candidate shares a token the
// full ranking is returned.
func (m *Model) TopKBlocked(docID string, k int) ([]Match, error) {
	side, doc, ok := m.docOf(docID)
	if !ok {
		return nil, fmt.Errorf("tdmatch: unknown document %q", docID)
	}
	var targets *corpus.Corpus
	var blocker **match.Blocker
	targetSide := 2
	if side == 1 {
		targets, blocker = m.second.c, &m.secondBlk
	} else {
		targetSide = 1
		targets, blocker = m.first.c, &m.firstBlk
	}
	idx, err := m.exactFlat(targetSide)
	if err != nil {
		return nil, err
	}
	q := m.vectors[docID]
	if q == nil {
		return nil, fmt.Errorf("tdmatch: document %q has no embedding", docID)
	}
	m.blkMu.Lock()
	if *blocker == nil {
		// Position-align the blocker with the exact index (not the corpus):
		// a lazily rebuilt index holds live rows only, but the eager
		// post-build one may keep tombstoned rows, whose documents are gone
		// from the corpus — they get no postings and are skipped by the
		// scoring kernel anyway.
		indexIDs := idx.IDs()
		texts := make([]string, len(indexIDs))
		for i, id := range indexIDs {
			if d, ok := targets.Doc(id); ok {
				texts[i] = d.Text()
			}
		}
		*blocker = match.NewBlocker(texts)
	}
	blk := *blocker
	m.blkMu.Unlock()
	return toMatches(idx.TopKBlocked(blk, doc.Text(), q, k)), nil
}
