package pipeline

import (
	"time"

	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/expand"
	"github.com/tdmatch/tdmatch/internal/graph"
	"github.com/tdmatch/tdmatch/internal/walk"
)

// runGraphDelta patches the built graph with the pending Delta:
// removals first (frozen-CSR compaction, term nodes kept), then
// insertions, which reuse the build's tokenization, canonicalizer (new
// terms are learned through the retained merger chain) and filtering
// policy (only the vocabulary-defining side creates data nodes under
// intersect filtering). The per-document TF-IDF token filter
// (FilterTFIDF) applies to delta documents too, scored against the
// build's retained document-frequency statistics, and when an external
// resource is configured the nodes created by the delta are expanded
// with its relations — so the only drift against a from-scratch
// rebuild is the DF statistics themselves lagging behind removals.
func runGraphDelta(s *State) error {
	d := s.Delta
	s.Build.RemoveDocs(d.Remove)

	intersect := s.Cfg.Graph.Filter == graph.FilterIntersect
	if len(d.AddFirst) > 0 {
		createTerms := s.Build.PrimaryFirst || !intersect
		gd, err := s.Build.InsertDocs(s.First, d.AddFirst, graph.First, createTerms)
		if err != nil {
			return err
		}
		d.NewNodes = append(d.NewNodes, gd.NewNodes...)
		d.Affected = append(d.Affected, gd.Affected...)
		s.Stats.FilteredTerms += gd.FilteredTerms
	}
	if len(d.AddSecond) > 0 {
		createTerms := !s.Build.PrimaryFirst || !intersect
		gd, err := s.Build.InsertDocs(s.Second, d.AddSecond, graph.Second, createTerms)
		if err != nil {
			return err
		}
		d.NewNodes = append(d.NewNodes, gd.NewNodes...)
		d.Affected = append(d.Affected, gd.Affected...)
		s.Stats.FilteredTerms += gd.FilteredTerms
	}
	expanded := false
	if s.Cfg.Resource != nil && len(d.NewNodes) > 0 {
		added, touched, _ := expand.ExpandNodes(s.Build.Graph, s.Cfg.Resource, d.NewNodes, expand.Options{
			MaxRelationsPerNode: s.Cfg.MaxRelationsPerNode,
		})
		d.NewNodes = append(d.NewNodes, added...)
		d.Affected = append(d.Affected, added...)
		d.Affected = append(d.Affected, touched...)
		expanded = len(added)+len(touched) > 0
	}
	// A term touched by documents of both sides appears in both insert
	// results — and an expansion object may coincide with a term a
	// document touched; dedup so the walk stage seeds each node once.
	if expanded || (len(d.AddFirst) > 0 && len(d.AddSecond) > 0) {
		seen := make(map[graph.NodeID]struct{}, len(d.Affected))
		uniq := d.Affected[:0]
		for _, id := range d.Affected {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				uniq = append(uniq, id)
			}
		}
		d.Affected = uniq
	}
	s.Stats.MergedTerms = s.Build.Canon.Mappings()
	return nil
}

// runWalksDelta generates the fine-tuning walk corpus: walks seeded
// only from the delta's affected set (new nodes plus their existing
// neighbors). Pure removals leave no seeds and produce no corpus.
// Second-order (node2vec) configurations fine-tune with first-order
// walks — the delta corpus is a local perturbation, not a full
// retraining.
func runWalksDelta(s *State) error {
	d := s.Delta
	if len(d.Affected) == 0 {
		s.Seqs = embed.Sequences{Offsets: []int32{0}}
		return nil
	}
	start := time.Now()
	s.Seqs = walk.GeneratePackedFrom(s.Build.Graph, d.Affected, s.Cfg.Walk)
	s.Stats.Walks += s.Seqs.Len()
	s.Stats.TrainTime += time.Since(start)
	return nil
}

// runTrainDelta warm-starts training from the existing arenas: rows of
// pre-existing nodes are preserved (and only nudged where the delta
// walks visit them), appended vocabulary rows are initialized fresh and
// fine-tuned into the existing space. Pure removals skip training — the
// embedding space is untouched.
func runTrainDelta(s *State) error {
	d := s.Delta
	if len(d.Affected) == 0 && len(d.NewNodes) == 0 {
		return nil
	}
	start := time.Now()
	cfg := s.Cfg.Embed
	cfg.Initial = s.Embed
	// The State is the only holder of its arenas, so it fine-tunes them
	// in place — O(delta) instead of the O(vocabulary) copying warm
	// start, with bit-identical output.
	cfg.InPlace = true
	// No frequent-token subsampling on fine-tunes. Subsampling keys on
	// relative token frequency, and in a walk corpus every node's
	// relative frequency shrinks as the graph grows — so the survivor
	// count (and with it the fine-tune cost) would creep up with corpus
	// size. A few thousand locally-seeded walk tokens carry no meaningful
	// frequency signal to subsample on; training on all of them keeps the
	// per-document ingest cost a pure function of the delta.
	cfg.Subsample = 0
	em, err := embed.TrainPacked(s.Seqs, s.Build.Graph.Cap(), cfg)
	if err != nil {
		return err
	}
	s.Embed = em
	s.Stats.TrainTime += time.Since(start)
	s.Stats.TrainTokens += cfg.TrainTokens(s.Seqs)
	return nil
}
