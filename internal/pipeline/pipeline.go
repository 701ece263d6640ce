// Package pipeline decomposes the paper's build pipeline — graph
// creation (§II), expansion (§III-A), compression (§III-B), random
// walks and embedding training (§IV-A) — into reusable stage
// components that operate on one explicit shared State. The same
// stages run in two regimes:
//
//   - FullStages rebuilds everything from the two corpora, the batch
//     path the paper describes. The public tdmatch.Build and Compact
//     translate the public Config, run it, and keep the document and
//     term vectors the serving indexes and ingest need.
//   - DeltaStages applies a Delta (documents added to or removed from a
//     built State): the graph is patched in place against its frozen
//     CSR, walks are seeded only from the delta's neighborhood, and the
//     embedder warm-starts from the existing arenas so new rows are
//     fine-tuned into the established embedding space instead of
//     retraining it. No public call runs it; the benchmark harness
//     times it stage by stage.
package pipeline

import (
	"fmt"
	"time"

	"github.com/tdmatch/tdmatch/internal/compress"
	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/expand"
	"github.com/tdmatch/tdmatch/internal/graph"
	"github.com/tdmatch/tdmatch/internal/kb"
	"github.com/tdmatch/tdmatch/internal/walk"
)

// Config carries the per-stage parameters, already translated from the
// public configuration into the internal packages' terms.
type Config struct {
	// Graph parametrizes graph creation (§II).
	Graph graph.BuildConfig
	// Resource, when non-nil, enables expansion (§III-A).
	Resource kb.Resource
	// MaxRelationsPerNode caps relations fetched per node during
	// expansion (0 = all).
	MaxRelationsPerNode int
	// Compress enables MSP compression (§III-B) with ratio MSPRatio.
	Compress bool
	// MSPRatio is β of Algorithm 3.
	MSPRatio float64
	// Seed drives compression sampling.
	Seed int64
	// Walk parametrizes random-walk generation (§IV-A).
	Walk walk.Config
	// SecondOrder, when non-nil, switches to node2vec-style walks.
	SecondOrder *walk.SecondOrder
	// Embed parametrizes Word2Vec training (§IV-A).
	Embed embed.Config
}

// Stats aggregates what the stages did; the public Stats mirrors it.
type Stats struct {
	// GraphNodes / GraphEdges are the sizes after graph creation.
	GraphNodes, GraphEdges int
	// ExpandedNodes / ExpandedEdges are the sizes after expansion.
	ExpandedNodes, ExpandedEdges int
	// CompressedNodes / CompressedEdges are the sizes after compression.
	CompressedNodes, CompressedEdges int
	// FilteredTerms counts terms dropped by data-node filtering.
	FilteredTerms int
	// MergedTerms counts term→canonical mappings applied.
	MergedTerms int
	// Walks is the number of generated random walks.
	Walks int
	// TrainTime is the wall time of walk generation plus training.
	TrainTime time.Duration
	// TrainTokens is the number of walk tokens trained on, epochs
	// counted: with TrainTime, the training rate.
	TrainTokens int64
}

// State is the explicit shared state the stages operate on. A full run
// fills it from the two corpora; a later delta run patches it.
type State struct {
	// Cfg holds the stage parameters.
	Cfg Config
	// First and Second are the corpora (mutated by the caller before a
	// delta run: appended documents, removed documents).
	First, Second *corpus.Corpus
	// Build is the graph-construction result: the graph itself plus the
	// document/attribute node maps and the term canonicalizer the delta
	// path reuses.
	Build *graph.Result
	// Seqs is the packed walk corpus handed from the walk stage to the
	// train stage; callers may release it (assign the zero value) once
	// training is done.
	Seqs embed.Sequences
	// Embed is the trained embedding model over graph node IDs. Delta
	// runs fine-tune its arenas in place.
	Embed *embed.Model
	// Delta is the pending delta of a DeltaStages run (nil otherwise).
	Delta *Delta
	// Stats aggregates stage statistics.
	Stats Stats
}

// Delta describes one incremental mutation: documents appended to
// either corpus and/or document IDs removed. The graph-delta stage
// fills the output fields consumed by the later stages.
type Delta struct {
	// AddFirst / AddSecond are documents already appended to the
	// respective corpus, to be inserted into the graph.
	AddFirst, AddSecond []corpus.Document
	// Remove lists document IDs to delete from the graph.
	Remove []string

	// NewNodes are the nodes the graph patch created (metadata plus
	// first-seen terms).
	NewNodes []graph.NodeID
	// Affected is the walk seed set: the new nodes plus the existing
	// nodes they connect to.
	Affected []graph.NodeID
}

// Stage is one named pipeline step over the shared State.
type Stage struct {
	// Name identifies the stage in errors and logs.
	Name string
	// Run executes the stage.
	Run func(*State) error
}

// Run executes the stages in order, stopping at the first error.
func Run(s *State, stages []Stage) error {
	for _, st := range stages {
		if err := st.Run(s); err != nil {
			return fmt.Errorf("pipeline: stage %s: %w", st.Name, err)
		}
	}
	return nil
}

// FullStages returns the batch pipeline: graph creation, expansion,
// compression, walk generation and embedding training over the whole
// corpora.
func FullStages() []Stage {
	return []Stage{
		{Name: "graph", Run: runGraph},
		{Name: "expand", Run: runExpand},
		{Name: "compress", Run: runCompress},
		{Name: "walks", Run: runWalks},
		{Name: "train", Run: runTrain},
	}
}

// DeltaStages returns the incremental pipeline over State.Delta: patch
// the graph (frozen-CSR insert/remove), seed walks from the affected
// neighborhood only, and warm-start training from the existing arenas.
// Pure removals skip the walk and train stages entirely.
func DeltaStages() []Stage {
	return []Stage{
		{Name: "graph-delta", Run: runGraphDelta},
		{Name: "walks-delta", Run: runWalksDelta},
		{Name: "train-delta", Run: runTrainDelta},
	}
}

// runGraph is the §II stage: build the joint graph over both corpora.
func runGraph(s *State) error {
	res, err := graph.Build(s.First, s.Second, s.Cfg.Graph)
	if err != nil {
		return err
	}
	s.Build = res
	s.Stats.GraphNodes = res.Graph.NumNodes()
	s.Stats.GraphEdges = res.Graph.NumEdges()
	s.Stats.FilteredTerms = res.FilteredTerms
	s.Stats.MergedTerms = res.Canon.Mappings()
	return nil
}

// runExpand is the §III-A stage: add external-resource relations; a
// no-op recording unchanged sizes when no resource is configured.
func runExpand(s *State) error {
	if s.Cfg.Resource != nil {
		expand.Expand(s.Build.Graph, s.Cfg.Resource, expand.Options{
			MaxRelationsPerNode: s.Cfg.MaxRelationsPerNode,
		})
	}
	s.Stats.ExpandedNodes = s.Build.Graph.NumNodes()
	s.Stats.ExpandedEdges = s.Build.Graph.NumEdges()
	return nil
}

// runCompress is the §III-B stage: MSP compression when configured,
// with the document and attribute node maps rebuilt over the surviving
// nodes (compression renumbers the graph).
func runCompress(s *State) error {
	if s.Cfg.Compress {
		g := compress.MSP(s.Build.Graph, compress.Options{Ratio: s.Cfg.MSPRatio, Seed: s.Cfg.Seed})
		s.Build.Graph = g
		rebuiltDocs := make(map[string]graph.NodeID, len(s.Build.DocNode))
		for docID := range s.Build.DocNode {
			if id, ok := g.MetaNode(docID); ok {
				rebuiltDocs[docID] = id
			}
		}
		s.Build.DocNode = rebuiltDocs
		rebuiltAttrs := make(map[string]graph.NodeID, len(s.Build.AttrNode))
		for key := range s.Build.AttrNode {
			if id, ok := g.MetaNode(key); ok {
				rebuiltAttrs[key] = id
			}
		}
		s.Build.AttrNode = rebuiltAttrs
	}
	s.Stats.CompressedNodes = s.Build.Graph.NumNodes()
	s.Stats.CompressedEdges = s.Build.Graph.NumEdges()
	return nil
}

// runWalks is the first half of the §IV-A stage: freeze the
// structurally-final graph into its CSR layout and generate the packed
// walk corpus over every live node.
func runWalks(s *State) error {
	start := time.Now()
	g := s.Build.Graph
	g.Freeze()
	if so := s.Cfg.SecondOrder; so != nil {
		walks := walk.GenerateSecondOrder(g, s.Cfg.Walk, *so)
		s.Seqs = walk.PackWalks(walks)
	} else {
		s.Seqs = walk.GeneratePacked(g, s.Cfg.Walk)
	}
	s.Stats.Walks = s.Seqs.Len()
	s.Stats.TrainTime += time.Since(start)
	return nil
}

// runTrain is the second half of the §IV-A stage: Word2Vec over the
// packed walk corpus, one row per graph node ID.
func runTrain(s *State) error {
	start := time.Now()
	em, err := embed.TrainPacked(s.Seqs, s.Build.Graph.Cap(), s.Cfg.Embed)
	if err != nil {
		return err
	}
	s.Embed = em
	s.Stats.TrainTime += time.Since(start)
	s.Stats.TrainTokens += s.Cfg.Embed.TrainTokens(s.Seqs)
	return nil
}
