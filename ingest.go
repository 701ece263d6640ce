package tdmatch

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/match"
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

// Ingest adds documents to the model without retraining — the
// incremental counterpart of Build. Each new document is folded in
// from the trained term vectors: its vector is the sum of the trained
// vectors of its known terms, tokenized the way the build tokenized
// (terms the training vocabulary never saw contribute nothing). Every
// model ingests this way, built or snapshot-restored, and every
// previously served vector stays as it was. The build's TF-IDF filter,
// expansion and synonym merging do not run on ingested documents; the
// staleness counter tracks how far the approximation has drifted, and
// Compact retrains over every document.
//
// Ingest mutates the model and must not run concurrently with queries;
// Server.Ingest wraps it in a clone-and-swap for live serving.
func (m *Model) Ingest(docs []IngestDoc) error {
	if len(docs) == 0 {
		return nil
	}
	if m.fold == nil {
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
		// Document IDs become graph labels at the next Compact, beside the
		// table attribute labels: an ID equal to one would fail every later
		// rebuild, so it is rejected here, built model or restored alike.
		if m.isAttributeLabel(d.ID) {
			return fmt.Errorf("tdmatch: document ID %q collides with a table attribute label", d.ID)
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

	m.ingestFold(addFirst)
	m.ingestFold(addSecond)
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

// isAttributeLabel reports whether id is the graph label of a table
// attribute, "<corpus name>/<column>", of either corpus.
func (m *Model) isAttributeLabel(id string) bool {
	for _, c := range []*corpus.Corpus{m.first.c, m.second.c} {
		if c.Kind != corpus.Table {
			continue
		}
		if col, ok := strings.CutPrefix(id, c.Name+"/"); ok && slices.Contains(c.Columns, col) {
			return true
		}
	}
	return false
}

// ingestFold computes the fold-in vectors of new documents: the sum of
// the trained vectors of each document's known terms (a document with
// no known term gets no embedding, like an isolated node after a full
// build).
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
// vectors go away and their index rows are tombstoned (rankings never
// surface them again). The term vectors stay, so a later re-ingest of
// similar content lands in familiar territory. Unknown IDs are an error
// and nothing is removed.
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
// document), replacing the folded-in vectors, the term vectors and the
// graph — and the whole serving segment stack, collapsed back to one
// sealed base segment — with freshly trained ones. The fold watermark
// advances to the end of the delta chain as it stands now, so Staleness
// drops to zero; the chain itself is kept — it records which documents
// are absent from the original corpus files, which a rebuild does not
// change. For rebuilds under live traffic use Server.Compact, which runs
// this off to the side and replays mutations that land mid-rebuild.
func (m *Model) Compact() error {
	nm := &Model{cfg: m.cfg.withDefaults(), first: m.first, second: m.second, buildCap: m.buildCap}
	if err := nm.build(); err != nil {
		return err
	}
	m.g = nm.g
	m.fold = nm.fold
	m.vectors = nm.vectors
	m.dim = nm.dim
	m.firstIdx = nm.firstIdx
	m.secondIdx = nm.secondIdx
	m.stats = nm.stats
	m.folded = len(m.deltas)
	m.staleBase = 0
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
// (corpora, vector map, delta chain), immutable artefacts (vector rows,
// term vectors, the built graph, sealed index segments) are shared.
// Index cloning is O(delta + tombstones) — the sealed segment
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
		g:         m.g,
		fold:      m.fold,
		dim:       m.dim,
		folded:    m.folded,
		staleBase: m.staleBase,
		buildCap:  m.buildCap,
		stats:     m.stats,
		deltas:    append([]savedDelta(nil), m.deltas...),
		backing:   m.backing,
	}
	nm.vectors = make(map[string][]float32, len(m.vectors))
	for id, v := range m.vectors {
		nm.vectors[id] = v
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

// foldState is the ingest state of a model: the trained term vectors
// plus the preprocessor that reproduces the build's tokenization. Term
// vectors are read-only and shared across clones.
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
