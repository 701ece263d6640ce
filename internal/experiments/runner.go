// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V) on the synthetic scenario suite: quality tables
// for the three matching tasks, the compression and timing tables, and the
// parameter-sweep figures. Each experiment has a runner returning printable
// rows, shared between the tdexp binary and the benchmark harness.
package experiments

import (
	"cmp"
	"fmt"
	"sort"
	"time"

	"github.com/tdmatch/tdmatch/internal/baselines"
	"github.com/tdmatch/tdmatch/internal/compress"
	"github.com/tdmatch/tdmatch/internal/datasets"
	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/graph"
	"github.com/tdmatch/tdmatch/internal/match"
	"github.com/tdmatch/tdmatch/internal/metrics"
	"github.com/tdmatch/tdmatch/internal/pipeline"
	"github.com/tdmatch/tdmatch/internal/pretrained"
	"github.com/tdmatch/tdmatch/internal/textproc"
	"github.com/tdmatch/tdmatch/internal/walk"
)

// Scale bundles the dataset and training sizes so experiments can run at
// bench scale (Small) or evaluation scale (Standard).
type Scale struct {
	IMDbMovies       int
	CoronaCountries  int
	CoronaGenClaims  int
	CoronaUsrClaims  int
	AuditLevel1      int
	AuditConcepts    int
	AuditDocuments   int
	ClaimsFactor     float64 // scales the Snopes/Politifact pools
	STSPairs         int
	GeneralSentences int

	NumWalks   int
	WalkLength int
	Dim        int
	Epochs     int
	Seed       int64
	Workers    int
}

// Small is the bench/test scale: minutes for the full suite.
var Small = Scale{
	IMDbMovies: 60, CoronaCountries: 12, CoronaGenClaims: 80, CoronaUsrClaims: 30,
	AuditLevel1: 5, AuditConcepts: 10, AuditDocuments: 80, ClaimsFactor: 0.25,
	STSPairs: 150, GeneralSentences: 1500,
	NumWalks: 12, WalkLength: 16, Dim: 48, Epochs: 2, Seed: 7, Workers: 0,
}

// Standard approximates the paper's dataset proportions at laptop scale.
var Standard = Scale{
	IMDbMovies: 250, CoronaCountries: 30, CoronaGenClaims: 300, CoronaUsrClaims: 50,
	AuditLevel1: 8, AuditConcepts: 16, AuditDocuments: 300, ClaimsFactor: 1,
	STSPairs: 600, GeneralSentences: 4000,
	NumWalks: 25, WalkLength: 25, Dim: 80, Epochs: 2, Seed: 7, Workers: 0,
}

// Scenario constructs one of the five datasets at the given scale.
func (sc Scale) Scenario(name string) (*datasets.Scenario, error) {
	switch name {
	case "imdb-wt":
		return datasets.IMDb(datasets.IMDbConfig{Seed: sc.Seed, Movies: sc.IMDbMovies, WithTitle: true, GeneralSentences: sc.GeneralSentences})
	case "imdb-nt":
		return datasets.IMDb(datasets.IMDbConfig{Seed: sc.Seed, Movies: sc.IMDbMovies, WithTitle: false, GeneralSentences: sc.GeneralSentences})
	case "corona-gen":
		return datasets.Corona(datasets.CoronaConfig{Seed: sc.Seed, Countries: sc.CoronaCountries, GenClaims: sc.CoronaGenClaims, GeneralSentences: sc.GeneralSentences}, false)
	case "corona-usr":
		return datasets.Corona(datasets.CoronaConfig{Seed: sc.Seed, Countries: sc.CoronaCountries, UsrClaims: sc.CoronaUsrClaims, GeneralSentences: sc.GeneralSentences}, true)
	case "audit":
		return datasets.Audit(datasets.AuditConfig{Seed: sc.Seed, Level1: sc.AuditLevel1, ConceptsPerCategory: sc.AuditConcepts, Documents: sc.AuditDocuments, GeneralSentences: sc.GeneralSentences})
	case "snopes":
		return datasets.Claims(datasets.ClaimsConfig{Seed: sc.Seed, Facts: int(1100 * sc.ClaimsFactor), Claims: int(120 * sc.ClaimsFactor), OverlapHigh: true, GeneralSentences: sc.GeneralSentences}, "snopes")
	case "politifact":
		return datasets.Claims(datasets.ClaimsConfig{Seed: sc.Seed, Facts: int(1700 * sc.ClaimsFactor), Claims: int(100 * sc.ClaimsFactor), OverlapHigh: false, GeneralSentences: sc.GeneralSentences}, "politifact")
	case "sts-k2":
		return datasets.STS(datasets.STSConfig{Seed: sc.Seed, Pairs: sc.STSPairs, GeneralSentences: sc.GeneralSentences}, 2)
	case "sts-k3":
		return datasets.STS(datasets.STSConfig{Seed: sc.Seed, Pairs: sc.STSPairs, GeneralSentences: sc.GeneralSentences}, 3)
	default:
		return nil, fmt.Errorf("experiments: unknown scenario %q", name)
	}
}

// Pretrained trains the shared pre-trained model substitute for a scenario.
func (sc Scale) Pretrained(s *datasets.Scenario) (*pretrained.Model, error) {
	return pretrained.Train(s.General, embed.Config{
		Dim: sc.Dim, Window: 4, Epochs: 2, Seed: sc.Seed + 9, Workers: sc.Workers,
	})
}

// PipelineOpts selects the graph-method variant to run.
type PipelineOpts struct {
	// Expand applies §III-A expansion with the scenario KB (W-RW-EX).
	Expand bool
	// UseLexicon merges nodes with the scenario lexicon (§II-C).
	UseLexicon bool
	// Bucketing merges numeric nodes (§II-C).
	Bucketing bool
	// Filter overrides the data-node filtering mode.
	Filter graph.FilterMode
	// TFIDFTopK applies under FilterTFIDF.
	TFIDFTopK int
	// MaxNGram caps term size (default 3).
	MaxNGram int
	// DisableMetaEdges drops taxonomy metadata-metadata edges (§V-F2).
	DisableMetaEdges bool
	// Compression: "" (none), "msp" with Ratio, "ssum" with Ratio as the
	// kept-node fraction.
	Compression string
	Ratio       float64
	// Walk/training overrides; zero uses the Scale values.
	NumWalks, WalkLength, Dim, Epochs, Window int
	// KindWeights enables kind-weighted walks (the typed-walk extension).
	KindWeights map[graph.NodeKind]float64
}

// PipelineResult exposes the trained artifacts and costs.
type PipelineResult struct {
	Scenario *datasets.Scenario
	Graph    *graph.Graph
	// OriginalNodes/Edges are the graph sizes before expansion.
	OriginalNodes, OriginalEdges int
	// ExpandedNodes/Edges are sizes after expansion (== original without).
	ExpandedNodes, ExpandedEdges int
	// DocVecs maps document IDs to metadata-node embeddings.
	DocVecs map[string][]float32
	Dim     int
	// TrainTime covers the graph freeze, walks and embedding training.
	TrainTime time.Duration
}

// RunPipeline runs the product's stage list (pipeline.FullStages) over a
// scenario — graph creation → (expansion) → (compression) → walks →
// embeddings — with the experiment settings, and returns the artifacts.
// The SSuM baseline takes the compress stage's place.
func RunPipeline(s *datasets.Scenario, sc Scale, o PipelineOpts) (*PipelineResult, error) {
	bc := graph.BuildConfig{
		Pre:                  textproc.Preprocessor{RemoveStopwords: true, Stem: true, MaxNGram: cmp.Or(o.MaxNGram, 3)},
		Filter:               o.Filter,
		TFIDFTopK:            o.TFIDFTopK,
		ConnectMetadata:      true,
		DisableMetadataEdges: o.DisableMetaEdges,
		Bucketing:            o.Bucketing,
	}
	if o.UseLexicon && s.Lexicon != nil && s.Lexicon.Len() > 0 {
		bc.Mergers = append(bc.Mergers, s.Lexicon)
	}
	mode, window := pipeline.Objective(s.First, s.Second)
	cfg := pipeline.Config{
		Graph:               bc,
		MaxRelationsPerNode: 64,
		Compress:            o.Compression == "msp",
		MSPRatio:            o.Ratio,
		Seed:                sc.Seed + 31,
		Walk: walk.Config{
			NumWalks: cmp.Or(o.NumWalks, sc.NumWalks), Length: cmp.Or(o.WalkLength, sc.WalkLength),
			Seed: sc.Seed, Workers: sc.Workers, KindWeights: o.KindWeights,
		},
		Embed: embed.Config{
			Dim: cmp.Or(o.Dim, sc.Dim), Window: cmp.Or(o.Window, window), Epochs: cmp.Or(o.Epochs, sc.Epochs),
			Mode: mode, Negative: 5, Subsample: 1e-2, Seed: sc.Seed, Workers: sc.Workers,
		},
	}
	if o.Expand {
		cfg.Resource = s.KB
	}
	stages := pipeline.FullStages()
	if o.Compression == "ssum" {
		stages[2] = pipeline.Stage{Name: "ssum", Run: func(st *pipeline.State) error {
			st.Build.Graph = compress.SSuM(st.Build.Graph, o.Ratio, cfg.Seed)
			return nil
		}}
	}
	st := &pipeline.State{Cfg: cfg, First: s.First, Second: s.Second}
	if err := pipeline.Run(st, stages); err != nil {
		return nil, err
	}
	g := st.Build.Graph
	pr := &PipelineResult{
		Scenario:      s,
		Graph:         g,
		OriginalNodes: st.Stats.GraphNodes,
		OriginalEdges: st.Stats.GraphEdges,
		ExpandedNodes: st.Stats.ExpandedNodes,
		ExpandedEdges: st.Stats.ExpandedEdges,
		DocVecs:       map[string][]float32{},
		Dim:           cfg.Embed.Dim,
		TrainTime:     st.Stats.TrainTime,
	}
	for _, ids := range [][]string{s.Targets, s.Queries} {
		for _, id := range ids {
			if node, ok := g.MetaNode(id); ok {
				if v := st.Embed.Vector(int32(node)); v != nil {
					pr.DocVecs[id] = v
				}
			}
		}
	}
	return pr, nil
}

// GraphRanker ranks scenario targets with the pipeline's embeddings,
// implementing baselines.Ranker for uniform evaluation.
type GraphRanker struct {
	name string
	s    *datasets.Scenario
	idx  *match.Index
	vecs map[string][]float32
}

// Ranker wraps the pipeline result as a named Ranker ("W-RW" / "W-RW-EX").
func (pr *PipelineResult) Ranker(name string) (*GraphRanker, error) {
	vecs := make([][]float32, len(pr.Scenario.Targets))
	for i, id := range pr.Scenario.Targets {
		vecs[i] = pr.DocVecs[id]
	}
	idx, err := match.NewIndex(pr.Scenario.Targets, vecs, pr.Dim)
	if err != nil {
		return nil, err
	}
	return &GraphRanker{name: name, s: pr.Scenario, idx: idx, vecs: pr.DocVecs}, nil
}

// Name implements baselines.Ranker.
func (r *GraphRanker) Name() string { return r.name }

// Rank implements baselines.Ranker.
func (r *GraphRanker) Rank(queryID string, k int) []match.Scored {
	v := r.vecs[queryID]
	if v == nil {
		return nil
	}
	return r.idx.TopK(v, k)
}

// Index exposes the target index for score combination (Fig. 10).
func (r *GraphRanker) Index() *match.Index { return r.idx }

// QueryVector returns the query embedding (nil if pruned).
func (r *GraphRanker) QueryVector(queryID string) []float32 { return r.vecs[queryID] }

// EvaluateRanker runs a ranker over all scenario queries and scores it.
func EvaluateRanker(s *datasets.Scenario, r baselines.Ranker, ks []int) (metrics.RankSummary, time.Duration) {
	maxK := 0
	for _, k := range ks {
		if k > maxK {
			maxK = k
		}
	}
	start := time.Now()
	results := baselines.RankAll(r, s.Queries, maxK)
	elapsed := time.Since(start)
	return metrics.EvaluateRanking(results, s.Truth, ks), elapsed
}

// CombinedRanker averages the graph ranker's cosine scores with the S-BE
// substitute's, the Fig. 10 combination.
type CombinedRanker struct {
	name  string
	graph *GraphRanker
	sbe   *baselines.SBE
}

// NewCombinedRanker pairs a graph ranker with an S-BE baseline.
func NewCombinedRanker(g *GraphRanker, sbe *baselines.SBE) *CombinedRanker {
	return &CombinedRanker{name: g.Name() + "&S-BE", graph: g, sbe: sbe}
}

// Name implements baselines.Ranker.
func (c *CombinedRanker) Name() string { return c.name }

// Rank implements baselines.Ranker.
func (c *CombinedRanker) Rank(queryID string, k int) []match.Scored {
	gv := c.graph.QueryVector(queryID)
	if gv == nil {
		return c.sbe.Rank(queryID, k)
	}
	scored, err := c.graph.Index().TopKCombined(c.sbe.Index(), gv, c.sbe.QueryVector(queryID), 1, 1, k)
	if err != nil {
		// Index mismatch cannot happen (both built over s.Targets); fall
		// back to the graph ranking defensively.
		return c.graph.Rank(queryID, k)
	}
	return scored
}

// MAPKey is the cutoff used for single-number Mean Average Precision
// reports in the figures (the paper plots "Mean Avg Precision").
const MAPKey = 5

// ScenarioNames lists the five figure scenarios in paper order.
var ScenarioNames = []string{"imdb-wt", "corona-gen", "audit", "politifact", "snopes"}

// sortedKeys returns map keys sorted, for deterministic printing.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
