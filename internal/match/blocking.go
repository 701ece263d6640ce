package match

import (
	"sort"

	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/textproc"
)

// Blocker implements token blocking, the classic entity-resolution
// speed-up the paper lists as future work (§VII): instead of scoring a
// query against every target, only targets sharing at least one processed
// token with the query are scored. On corpora with selective vocabulary
// this prunes most of the candidate set with little quality loss; the
// blocking ablation benchmark quantifies the trade-off.
type Blocker struct {
	pre      textproc.Preprocessor
	postings map[string][]int32 // token -> target positions (sorted)
	nTargets int
}

// NewBlocker indexes target documents (aligned with an Index built over
// the same ID order) by their processed tokens.
func NewBlocker(texts []string) *Blocker {
	b := &Blocker{
		pre:      textproc.Preprocessor{RemoveStopwords: true, Stem: true, MaxNGram: 1},
		postings: make(map[string][]int32),
		nTargets: len(texts),
	}
	for i, text := range texts {
		seen := map[string]struct{}{}
		for _, tok := range b.pre.Tokens(text) {
			if _, dup := seen[tok]; dup {
				continue
			}
			seen[tok] = struct{}{}
			b.postings[tok] = append(b.postings[tok], int32(i))
		}
	}
	return b
}

// Candidates returns the sorted positions of targets sharing at least one
// token with the query text. The boolean reports whether blocking was
// effective; when the query has no known tokens it returns (nil, false)
// and the caller should fall back to the full scan.
func (b *Blocker) Candidates(query string) ([]int32, bool) {
	seen := map[int32]struct{}{}
	known := false
	for _, tok := range b.pre.Tokens(query) {
		posting, ok := b.postings[tok]
		if !ok {
			continue
		}
		known = true
		for _, p := range posting {
			seen[p] = struct{}{}
		}
	}
	if !known {
		return nil, false
	}
	out := make([]int32, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// TopKBlocked ranks only the blocker's candidates for the query text with
// the index's cosine scores, falling back to the full TopK when blocking
// yields nothing.
func (x *Index) TopKBlocked(b *Blocker, queryText string, query []float32, k int) []Scored {
	cands, ok := b.Candidates(queryText)
	if !ok || len(cands) == 0 {
		return x.TopK(query, k)
	}
	q := make([]float32, x.dim)
	copy(q, query)
	embed.Normalize(q)
	return x.topKPositions(q, cands, k)
}
