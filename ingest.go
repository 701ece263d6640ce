package tdmatch

import (
	"errors"
	"fmt"
	"strings"

	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/graph"
	"github.com/tdmatch/tdmatch/internal/match"
	"github.com/tdmatch/tdmatch/internal/pipeline"
	"github.com/tdmatch/tdmatch/internal/textproc"
)

// ErrUnknownDocument reports an operation on a document ID that is in
// neither corpus. Wrapped by Model.Remove's per-ID failures; match with
// errors.Is (the serving daemon maps it to HTTP 404).
var ErrUnknownDocument = errors.New("unknown document")

// ErrDuplicateDocument reports an ingest of a document ID that already
// exists in one of the corpora. Wrapped by Model.Ingest's per-document
// failures; match with errors.Is. WAL replay relies on it to recognize
// operations the snapshot already contains (see WAL.Replay).
var ErrDuplicateDocument = errors.New("document already exists")

// IngestDoc is one document added by Model.Ingest.
type IngestDoc struct {
	// Side is the corpus the document joins: 1 (first) or 2 (second).
	Side int
	// ID is the new document's unique ID (required).
	ID string
	// Values carries the document content: for a table corpus the values
	// align with the schema columns (shorter documents are padded, more
	// values than columns is an error); for text and taxonomy corpora the
	// values are joined into the document text.
	Values []string
	// Parent references the parent document for taxonomy corpora.
	Parent string
}

// Staleness returns the number of delta documents (ingested plus
// removed) not yet folded into a full retrain. It grows with every
// Ingest and Remove and drops to zero on Compact. Deployments watch it
// to decide when the incremental approximation has drifted enough to be
// worth a rebuild.
//
// The count is derived from the delta chain against the fold watermark
// rather than kept as a resettable counter, so a mutation that lands
// while a background compaction rebuilds (Server.Compact's replay
// window) stays counted: Compact folds exactly the deltas its rebuild
// saw, never ones appended afterwards.
func (m *Model) Staleness() int {
	folded := m.folded
	if folded > len(m.deltas) {
		folded = len(m.deltas)
	}
	n := m.staleBase
	for _, d := range m.deltas[folded:] {
		n += len(d.Added) + len(d.Removed)
	}
	return n
}

// Ingest adds documents to the model without a full rebuild — the
// incremental counterpart of Build. On a trained model the delta
// pipeline stages run against the retained state: the graph is patched
// in place (frozen-CSR insert), walks are seeded from the new
// documents' neighborhood only, and training warm-starts from the
// existing arenas so the new rows are fine-tuned into the established
// embedding space while every previously served vector stays frozen.
// On a snapshot-restored model (no trainer state) the new documents are
// folded in from the snapshot's term vectors: each document's vector is
// the sum of its known terms' trained vectors — cheaper and slightly
// less faithful; the staleness counter tracks how far either
// approximation has drifted and Compact is the full-rebuild escape
// hatch. Delta documents get the full build treatment: the per-document
// TF-IDF token filter (FilterTFIDF) scores them against the build's
// retained document-frequency statistics, and external-resource
// expansion fetches relations for the nodes they create.
//
// Ingest mutates the model and must not run concurrently with queries;
// Server.Ingest wraps it in a clone-and-swap for live serving.
func (m *Model) Ingest(docs []IngestDoc) error {
	if len(docs) == 0 {
		return nil
	}
	if m.ps == nil && m.fold == nil {
		return fmt.Errorf("tdmatch: model cannot ingest: it was restored from a snapshot without term vectors — rebuild with Build, or re-save with the current snapshot version")
	}
	var addFirst, addSecond []corpus.Document
	var record []savedDoc
	seen := make(map[string]struct{}, len(docs))
	for _, d := range docs {
		var c *corpus.Corpus
		switch d.Side {
		case 1:
			c = m.first.c
		case 2:
			c = m.second.c
		default:
			return fmt.Errorf("tdmatch: ingest document %q has side %d, want 1 or 2", d.ID, d.Side)
		}
		if d.ID == "" {
			return fmt.Errorf("tdmatch: ingest document without an ID")
		}
		if _, dup := seen[d.ID]; dup {
			return fmt.Errorf("tdmatch: duplicate document %q in ingest batch", d.ID)
		}
		seen[d.ID] = struct{}{}
		if m.sideOf(d.ID) != 0 {
			return fmt.Errorf("tdmatch: document %q: %w", d.ID, ErrDuplicateDocument)
		}
		if g := m.graph(); g != nil {
			// Document IDs become graph metadata labels; reject collisions
			// with non-document labels (attribute nodes like "movies/title")
			// here, so the graph patch below can no longer fail after the
			// corpora have been mutated.
			if _, taken := g.MetaNode(d.ID); taken {
				return fmt.Errorf("tdmatch: document ID %q collides with an existing graph label", d.ID)
			}
		}
		doc, err := ingestDocument(c, d)
		if err != nil {
			return err
		}
		if d.Side == 1 {
			addFirst = append(addFirst, doc)
		} else {
			addSecond = append(addSecond, doc)
		}
		record = append(record, savedDocOf(d.Side, doc))
	}
	// Append to the corpora, rolling back on a mid-batch failure (e.g. a
	// Structured document referencing an unknown parent, which only the
	// corpus can check): nothing downstream has run yet, so removing the
	// already-appended documents fully restores the model.
	var appended []*corpus.Corpus
	var appendedIDs []string
	rollback := func() {
		for i := range appended {
			appended[i].Remove(appendedIDs[i])
		}
	}
	for _, doc := range addFirst {
		if err := m.first.c.Append(doc); err != nil {
			rollback()
			return err
		}
		appended = append(appended, m.first.c)
		appendedIDs = append(appendedIDs, doc.ID)
	}
	for _, doc := range addSecond {
		if err := m.second.c.Append(doc); err != nil {
			rollback()
			return err
		}
		appended = append(appended, m.second.c)
		appendedIDs = append(appendedIDs, doc.ID)
	}

	if m.ps != nil {
		if err := m.ingestWarm(addFirst, addSecond); err != nil {
			return err
		}
	} else {
		m.ingestFold(append(append([]corpus.Document(nil), addFirst...), addSecond...))
	}

	if err := m.appendToIndex(m.firstIdx, addFirst); err != nil {
		return err
	}
	if err := m.appendToIndex(m.secondIdx, addSecond); err != nil {
		return err
	}
	m.invalidateDerived()
	m.deltas = append(m.deltas, savedDelta{Added: record})
	return nil
}

// ingestWarm runs the delta pipeline stages against the retained state
// and gathers the new documents' trained vectors. A spilled trainer
// output arena is reloaded first, so serving-only processes that
// called SpillTrainer keep full warm-start capability.
func (m *Model) ingestWarm(addFirst, addSecond []corpus.Document) error {
	if err := m.reloadSpill(); err != nil {
		return err
	}
	st := m.ps
	st.Delta = &pipeline.Delta{AddFirst: addFirst, AddSecond: addSecond}
	err := pipeline.Run(st, pipeline.DeltaStages())
	st.Delta = nil
	st.Seqs = embed.Sequences{}
	if err != nil {
		return err
	}
	newDocs := make(map[string]graph.NodeID, len(addFirst)+len(addSecond))
	for _, doc := range addFirst {
		if node, ok := st.Build.DocNode[doc.ID]; ok {
			newDocs[doc.ID] = node
		}
	}
	for _, doc := range addSecond {
		if node, ok := st.Build.DocNode[doc.ID]; ok {
			newDocs[doc.ID] = node
		}
	}
	m.gatherVectors(newDocs)
	return nil
}

// ingestFold computes fold-in vectors for the new documents of a
// snapshot-restored model: the sum of the trained vectors of the
// document's known terms (terms the training vocabulary never saw
// contribute nothing; a document with no known term gets no embedding,
// like an isolated node after a full build).
func (m *Model) ingestFold(docs []corpus.Document) {
	arena := make([]float32, len(docs)*m.dim)
	used := 0
	for _, doc := range docs {
		row := arena[used*m.dim : (used+1)*m.dim : (used+1)*m.dim]
		known := 0
		for _, v := range doc.Values {
			toks := m.fold.pre.Tokens(v.Text)
			for _, term := range textproc.NGrams(toks, m.fold.maxNGram()) {
				tv, ok := m.fold.terms[term]
				if !ok {
					continue
				}
				known++
				for d := range row {
					row[d] += tv[d]
				}
			}
		}
		if known > 0 {
			m.vectors[doc.ID] = row
			used++
		}
	}
}

// Remove deletes documents from the model: their corpus entries and
// vectors go away, their index rows are tombstoned (rankings never
// surface them again), and on a trained model their graph nodes are
// removed in place — term nodes and the embedding space stay, so a
// later re-ingest of similar content lands in familiar territory.
// Unknown IDs are an error and nothing is removed.
//
// Like Ingest, Remove mutates the model and must not run concurrently
// with queries; Server.Remove wraps it in a clone-and-swap.
func (m *Model) Remove(ids []string) error {
	if len(ids) == 0 {
		return nil
	}
	var firstIDs, secondIDs []string
	seen := make(map[string]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("tdmatch: duplicate document %q in remove batch", id)
		}
		seen[id] = struct{}{}
		switch m.sideOf(id) {
		case 1:
			firstIDs = append(firstIDs, id)
		case 2:
			secondIDs = append(secondIDs, id)
		default:
			return fmt.Errorf("tdmatch: %w %q", ErrUnknownDocument, id)
		}
	}
	m.first.c.RemoveBatch(firstIDs)
	m.second.c.RemoveBatch(secondIDs)
	if m.ps != nil {
		st := m.ps
		st.Delta = &pipeline.Delta{Remove: ids}
		err := pipeline.Run(st, pipeline.DeltaStages())
		st.Delta = nil
		if err != nil {
			return err
		}
	}
	for _, id := range ids {
		delete(m.vectors, id)
	}
	m.firstIdx.Remove(firstIDs)
	m.secondIdx.Remove(secondIDs)
	m.invalidateDerived()
	m.deltas = append(m.deltas, savedDelta{Removed: append([]string(nil), ids...)})
	return nil
}

// Compact is the full-rebuild escape hatch: it re-runs the complete
// build pipeline over the current corpora (including every ingested
// document), replacing the incrementally-patched state — and the whole
// serving segment stack, collapsed back to one sealed base segment —
// with a freshly trained one. The fold watermark advances to the end of
// the delta chain as it stands now, so Staleness drops to zero; the
// chain itself is kept — it records which documents are absent from the
// original corpus files, which a rebuild does not change. For rebuilds
// under live traffic use Server.Compact, which runs this off to the
// side and replays mutations that land mid-rebuild.
func (m *Model) Compact() error {
	nm := &Model{cfg: m.cfg.withDefaults(), first: m.first, second: m.second, buildCap: m.buildCap}
	if err := nm.build(); err != nil {
		return err
	}
	m.ps = nm.ps
	m.fold = nil
	m.vectors = nm.vectors
	m.dim = nm.dim
	m.firstIdx = nm.firstIdx
	m.secondIdx = nm.secondIdx
	m.stats = nm.stats
	m.folded = len(m.deltas)
	m.staleBase = 0
	m.spillPath = ""
	// Drops the blockers, the combined-scorer caches and the monolithic
	// exact indexes; the latter rebuild lazily over the fresh stack.
	m.invalidateDerived()
	return nil
}

// appendToIndex appends the documents' vectors to a serving index (a
// segment stack lands them in its mutable delta). Documents without an
// embedding become zero rows, exactly as after a full build.
func (m *Model) appendToIndex(idx match.VectorIndex, docs []corpus.Document) error {
	if len(docs) == 0 {
		return nil
	}
	ids := make([]string, len(docs))
	arena := make([]float32, len(docs)*m.dim)
	for i, doc := range docs {
		ids[i] = doc.ID
		if v := m.vectors[doc.ID]; v != nil {
			copy(arena[i*m.dim:(i+1)*m.dim], v)
		}
	}
	return idx.Append(ids, arena)
}

// invalidateDerived drops the lazily-built serving caches that depend
// on corpus or index composition: the token blockers, the external
// combined-scorer indexes and the monolithic exact indexes (rebuilt on
// the next TopKCombined/TopKBlocked call over the stack's live rows).
func (m *Model) invalidateDerived() {
	m.blkMu.Lock()
	m.firstBlk, m.secondBlk = nil, nil
	m.blkMu.Unlock()
	m.extMu.Lock()
	m.extCache = [2]extIndexCache{}
	m.extMu.Unlock()
	m.flatMu.Lock()
	m.firstFlat, m.secondFlat = nil, nil
	m.flatMu.Unlock()
}

// clone returns a deep-enough copy for the serving layer's
// clone-mutate-swap: everything Ingest/Remove mutates is copied
// (corpora, vector map, graph overlay state, delta chain), immutable
// artefacts (vector rows, trained arenas, sealed index segments) are
// shared. Index cloning is O(delta + tombstones) — the sealed segment
// stack is shared outright, only the mutable delta segment and the
// tombstone overlay are copied — so cloning never re-touches the full
// arena the way a monolithic index clone would. The monolithic exact
// caches are not carried over; a clone rebuilds them on first
// TopKCombined/TopKBlocked use.
func (m *Model) clone() *Model {
	first := &Corpus{c: m.first.c.Clone()}
	second := &Corpus{c: m.second.c.Clone()}
	nm := &Model{
		cfg:       m.cfg,
		first:     first,
		second:    second,
		fold:      m.fold,
		dim:       m.dim,
		folded:    m.folded,
		staleBase: m.staleBase,
		spillPath: m.spillPath,
		buildCap:  m.buildCap,
		stats:     m.stats,
		deltas:    append([]savedDelta(nil), m.deltas...),
		backing:   m.backing,
	}
	nm.vectors = make(map[string][]float32, len(m.vectors))
	for id, v := range m.vectors {
		nm.vectors[id] = v
	}
	if m.ps != nil {
		nm.ps = m.ps.Clone(first.c, second.c)
	}
	nm.firstIdx = cloneIndex(m.firstIdx)
	nm.secondIdx = cloneIndex(m.secondIdx)
	return nm
}

// cloneIndex clones a serving index for the swap chain: segment stacks
// share their sealed segments (O(delta)); anything else falls back to
// a full copy.
func cloneIndex(idx match.VectorIndex) match.VectorIndex {
	if seg, ok := idx.(*match.Segmented); ok {
		return seg.Clone()
	}
	if flat, ok := idx.(*match.Index); ok {
		return flat.Clone()
	}
	return idx
}

// foldState is the ingest state of a snapshot-restored model: the
// trained term vectors plus the preprocessor that reproduces the
// build's tokenization. Term vectors are read-only and shared across
// clones.
type foldState struct {
	pre   textproc.Preprocessor
	terms map[string][]float32
}

// maxNGram returns the term length bound of the restored preprocessor.
func (f *foldState) maxNGram() int {
	if f.pre.MaxNGram <= 0 {
		return 1
	}
	return f.pre.MaxNGram
}

// ingestDocument converts the public IngestDoc into the internal
// document shape of its corpus.
func ingestDocument(c *corpus.Corpus, d IngestDoc) (corpus.Document, error) {
	doc := corpus.Document{ID: d.ID}
	switch c.Kind {
	case corpus.Table:
		if len(d.Values) > len(c.Columns) {
			return doc, fmt.Errorf("tdmatch: document %q has %d values for %d columns", d.ID, len(d.Values), len(c.Columns))
		}
		vals := make([]corpus.Value, len(c.Columns))
		for j, col := range c.Columns {
			v := ""
			if j < len(d.Values) {
				v = d.Values[j]
			}
			vals[j] = corpus.Value{Column: col, Text: v}
		}
		doc.Values = vals
	case corpus.Structured:
		doc.Values = []corpus.Value{{Text: strings.Join(d.Values, " ")}}
		doc.Parent = d.Parent
	default:
		doc.Values = []corpus.Value{{Text: strings.Join(d.Values, " ")}}
	}
	return doc, nil
}

// shareTrainer marks the model's trainer arenas as shared: the serving
// layer calls it when it takes a caller-owned model (NewServer,
// Reload), so the first ingest on the swap chain warm-starts by
// copying instead of fine-tuning arenas the caller may still read
// (Save, further Ingest on their own reference). Later clones in the
// chain own their arenas exclusively and fine-tune in place.
func (m *Model) shareTrainer() {
	if m.ps != nil {
		m.ps.OwnsEmbed = false
	}
}

// ingestDocsOfSaved converts persisted delta documents back into the
// public ingest shape, for replaying a delta-chain suffix onto a
// compacted model.
func ingestDocsOfSaved(saved []savedDoc) []IngestDoc {
	out := make([]IngestDoc, len(saved))
	for i, sd := range saved {
		out[i] = IngestDoc{
			Side:   int(sd.Side),
			ID:     sd.ID,
			Values: append([]string(nil), sd.Texts...),
			Parent: sd.Parent,
		}
	}
	return out
}

// savedDocOf converts an ingested document into its persisted form.
func savedDocOf(side int, doc corpus.Document) savedDoc {
	sd := savedDoc{Side: uint8(side), ID: doc.ID, Parent: doc.Parent}
	for _, v := range doc.Values {
		sd.Columns = append(sd.Columns, v.Column)
		sd.Texts = append(sd.Texts, v.Text)
	}
	return sd
}

// documentOfSaved restores a persisted delta document.
func documentOfSaved(sd savedDoc) corpus.Document {
	doc := corpus.Document{ID: sd.ID, Parent: sd.Parent}
	for i := range sd.Texts {
		col := ""
		if i < len(sd.Columns) {
			col = sd.Columns[i]
		}
		doc.Values = append(doc.Values, corpus.Value{Column: col, Text: sd.Texts[i]})
	}
	return doc
}
