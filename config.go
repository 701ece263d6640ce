package tdmatch

import (
	"fmt"
	"runtime"

	"github.com/tdmatch/tdmatch/internal/match"
)

// DefaultHNSWM, DefaultHNSWEf and DefaultHNSWEfConstruct are the HNSW
// graph parameters an IndexHNSW model uses when the corresponding
// Config knob is 0.
const (
	DefaultHNSWM           = match.DefaultHNSWM
	DefaultHNSWEf          = match.DefaultHNSWEf
	DefaultHNSWEfConstruct = match.DefaultHNSWEfConstruct
)

// FilterStrategy selects how data nodes are filtered at graph creation
// (§II-B, Fig. 9).
type FilterStrategy uint8

const (
	// FilterIntersect is the paper's technique: the corpus with fewer
	// distinct tokens defines the vocabulary; terms exclusive to the other
	// corpus are dropped. The default.
	FilterIntersect FilterStrategy = iota
	// FilterNone keeps every term of both corpora.
	FilterNone
	// FilterTFIDF keeps each document's top-k TF-IDF tokens.
	FilterTFIDF
)

// CompressionStrategy selects the §III-B graph compression.
type CompressionStrategy uint8

const (
	// CompressNone disables compression (the paper's default pipeline;
	// compression is an optional trade-off, Table VIII).
	CompressNone CompressionStrategy = iota
	// CompressMSP samples shortest paths between cross-corpus metadata
	// node pairs (Algorithm 3).
	CompressMSP
)

// IndexKind selects the vector index serving TopK and MatchAll queries.
type IndexKind uint8

const (
	// IndexFlat is the exact ranking of the paper (§IV-B): a full cosine
	// scan over one contiguous vector arena. The default.
	IndexFlat IndexKind = iota
	// indexRemovedIVF and indexRemovedSQ8 are the persisted values of
	// the removed IVF and SQ8 index kinds, reserved so IndexHNSW keeps
	// its value (see removedIndexKinds).
	indexRemovedIVF
	indexRemovedSQ8
	// IndexHNSW is a hierarchical navigable-small-world graph index:
	// queries descend a layered proximity graph and an ef-bounded beam
	// over the bottom layer collects candidates that are re-scored
	// exactly in float32, making per-query cost independent of corpus
	// size — the sublinear option for very large sides.
	IndexHNSW
)

// removedIndexKinds names the persisted values of the index kinds that
// were removed. A snapshot saved with one of them serves its stored
// arena as an exact IndexFlat scan, and ModelInfo.LegacyIndex reports
// the name.
var removedIndexKinds = map[IndexKind]string{
	indexRemovedIVF: "ivf",
	indexRemovedSQ8: "sq8",
}

// String returns the flag-style name of the index kind: "flat" or
// "hnsw" (or "indexkind(n)" for values outside the defined set).
func (k IndexKind) String() string {
	switch k {
	case IndexFlat:
		return "flat"
	case IndexHNSW:
		return "hnsw"
	default:
		return fmt.Sprintf("indexkind(%d)", uint8(k))
	}
}

// ParseIndexKind is the inverse of IndexKind.String: it maps "flat" and
// "hnsw" to their kinds and rejects every other name — a removed kind
// ("ivf", "sq8") with an error saying it was removed.
func ParseIndexKind(s string) (IndexKind, error) {
	for _, k := range []IndexKind{IndexFlat, IndexHNSW} {
		if s == k.String() {
			return k, nil
		}
	}
	for _, name := range removedIndexKinds {
		if s == name {
			return 0, fmt.Errorf("index kind %q was removed (flat and hnsw remain; its snapshots load as flat)", s)
		}
	}
	return 0, fmt.Errorf("unknown index kind %q (want flat or hnsw)", s)
}

// Config parametrizes the pipeline. Zero values select paper defaults via
// Defaults(); construct from Defaults() and override selectively.
type Config struct {
	// Seed drives all randomness (walks, sampling, training order).
	Seed int64

	// MaxNGram is the largest multi-token term size (§II-D; default 3).
	MaxNGram int
	// Filter selects data-node filtering (§II-B; default intersect).
	Filter FilterStrategy
	// TFIDFTopK is the per-document token budget under FilterTFIDF.
	TFIDFTopK int
	// DisableMetadataEdges drops taxonomy parent-child edges (§V-F2
	// ablation; default false, i.e. edges present).
	DisableMetadataEdges bool

	// Bucketing merges numeric data nodes by equal-width binning with the
	// Freedman–Diaconis rule (§II-C).
	Bucketing bool
	// BucketWidth overrides the computed bucket width when > 0.
	BucketWidth float64
	// SynonymGroups merge known surface variants into one node (§II-C).
	SynonymGroups []Synonyms

	// Resource enables graph expansion (§III-A) when non-nil.
	Resource Resource
	// MaxRelationsPerNode caps KB relations fetched per node (0 = all).
	MaxRelationsPerNode int

	// Compression selects the §III-B strategy (default none).
	Compression CompressionStrategy
	// CompressionRatio is β of Algorithm 3 (default 0.5).
	CompressionRatio float64

	// NumWalks per node (§IV-A; paper default 100, library default 20 —
	// the quality plateau of Fig. 7 at laptop-friendly cost).
	NumWalks int
	// WalkLength in nodes (§IV-A; paper and library default 30, the
	// plateau of Fig. 6).
	WalkLength int

	// Dim is the embedding size (paper uses 300; default 96 keeps quality
	// at laptop-friendly cost — override for larger corpora).
	Dim int
	// Window is the Word2Vec context window. Build picks the objective
	// from the corpus kinds as the paper does (§V): Skip-gram with window
	// 3 when a table is involved, CBOW with window 15 for text-only tasks.
	// A positive Window overrides the window, not the objective.
	Window int
	// Negative is the negative-sampling count (default 5).
	Negative int
	// Epochs over the walk corpus (default 2).
	Epochs int
	// Subsample is the frequent-token down-sampling threshold (word2vec's
	// `sample`; default 1e-2). High-degree metadata hubs occur in a large
	// share of walk tokens, and without down-sampling their vectors
	// diffuse — low-degree nodes then act as proxies of their single
	// neighbor and outrank genuinely related nodes. Set negative to
	// disable.
	Subsample float64
	// Workers bounds parallelism (default GOMAXPROCS). Training is
	// hogwild-parallel; set 1 for bit-reproducible output.
	Workers int

	// Index selects the serving index for TopK, TopKBatch and MatchAll
	// (default IndexFlat, the paper's exact scan): the kind of every
	// sealed segment of both sides' segment stacks.
	Index IndexKind
	// HNSWM caps the neighbor count per node on the upper layers of an
	// IndexHNSW graph (the bottom layer allows 2×HNSWM). 0 selects the
	// default (16); larger values raise recall and memory per node.
	HNSWM int
	// HNSWEf is the query-time beam width of an IndexHNSW index: the
	// bottom-layer search keeps the best HNSWEf candidates, all of which
	// are re-scored exactly. 0 selects the default (96); the beam is
	// always at least k, and when it would cover the whole corpus the
	// query delegates to the exact scan.
	HNSWEf int
	// HNSWEfConstruct is the construction-time beam width of an
	// IndexHNSW index (0 = default 128). Wider construction beams find
	// better neighbors — higher recall per unit of query beam — at
	// build-time cost. Build, and every snapshot reader, refuse an HNSW
	// parameter above 65,536.
	HNSWEfConstruct int

	// SegmentMaxDocs caps the mutable delta segment of the segmented
	// serving indexes: ingested documents accumulate in a small flat
	// delta segment, and once it reaches this many rows it is sealed
	// into an immutable segment (wrapped per Index, like the base).
	// Smaller values keep the always-rescanned delta tiny at the cost
	// of more segments to merge per query; Compact collapses the stack
	// back to one segment. 0 selects the default (512); negative
	// disables auto-sealing so the delta grows until the next Compact.
	SegmentMaxDocs int
}

// Defaults returns the paper-faithful configuration at library scale.
func Defaults() Config {
	return Config{
		MaxNGram:         3,
		Filter:           FilterIntersect,
		CompressionRatio: 0.5,
		NumWalks:         20,
		WalkLength:       30,
		Dim:              96,
		Negative:         5,
		Epochs:           2,
		Subsample:        1e-2,
		Workers:          runtime.GOMAXPROCS(0),
		SegmentMaxDocs:   512,
	}
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if c.MaxNGram <= 0 {
		c.MaxNGram = d.MaxNGram
	}
	if c.CompressionRatio <= 0 {
		c.CompressionRatio = d.CompressionRatio
	}
	if c.NumWalks <= 0 {
		c.NumWalks = d.NumWalks
	}
	if c.WalkLength <= 0 {
		c.WalkLength = d.WalkLength
	}
	if c.Dim <= 0 {
		c.Dim = d.Dim
	}
	if c.Negative <= 0 {
		c.Negative = d.Negative
	}
	if c.Epochs <= 0 {
		c.Epochs = d.Epochs
	}
	if c.Subsample == 0 {
		c.Subsample = d.Subsample
	} else if c.Subsample < 0 {
		c.Subsample = 0
	}
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.SegmentMaxDocs == 0 {
		c.SegmentMaxDocs = d.SegmentMaxDocs
	}
	return c
}
