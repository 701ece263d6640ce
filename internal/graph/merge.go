package graph

// Merger decides which terms should share one data node (§II-C). Mergers
// return a term → canonical-term map; terms absent from the map stay as
// they are. The implementations are numeric bucketing (Bucketer in this
// package) and lexicon merging (kb.Lexicon) for synonyms/acronyms/typos;
// the paper's embedding-similarity merge above a threshold γ is not
// reproduced (see README).
type Merger interface {
	Merge(terms []string) map[string]string
}

// Canonicalizer resolves a term through a chain of mergers, following
// canonical chains to a fixpoint (a lexicon may map "b willis" to
// "bruce willis" and a bucketer may then leave it alone).
type Canonicalizer struct {
	mapping map[string]string
}

// NewCanonicalizer applies each merger to the term universe in order and
// composes the resulting mappings.
func NewCanonicalizer(terms []string, mergers ...Merger) *Canonicalizer {
	c := &Canonicalizer{mapping: make(map[string]string)}
	current := terms
	for _, m := range mergers {
		if m == nil {
			continue
		}
		step := m.Merge(current)
		if len(step) == 0 {
			continue
		}
		next := make([]string, 0, len(current))
		seen := make(map[string]struct{}, len(current))
		for _, t := range current {
			ct := t
			if to, ok := step[t]; ok && to != t {
				ct = to
				c.addMapping(t, ct)
			}
			if _, ok := seen[ct]; !ok {
				seen[ct] = struct{}{}
				next = append(next, ct)
			}
		}
		current = next
	}
	return c
}

func (c *Canonicalizer) addMapping(from, to string) {
	// Redirect anything already pointing at from.
	for k, v := range c.mapping {
		if v == from {
			c.mapping[k] = to
		}
	}
	c.mapping[from] = to
}

// Learn extends the canonicalizer with terms first seen after
// construction (the delta-ingest path): each merger is applied to the
// new terms in order, the resulting mappings are composed into the
// existing table, and chains are followed to a fixpoint so a new term
// canonicalizes exactly as it would have in a full rebuild (e.g. a new
// numeric value lands in the Bucketer's existing bucket, whose label may
// itself have been merged further).
func (c *Canonicalizer) Learn(terms []string, mergers ...Merger) {
	if c == nil || len(terms) == 0 {
		return
	}
	current := terms
	var learned []string
	for _, m := range mergers {
		if m == nil {
			continue
		}
		step := m.Merge(current)
		if len(step) == 0 {
			continue
		}
		next := make([]string, 0, len(current))
		seen := make(map[string]struct{}, len(current))
		for _, t := range current {
			ct := t
			if to, ok := step[t]; ok && to != t {
				ct = to
				// Direct assignment, not addMapping: its redirect scan
				// walks the whole table looking for entries pointing at t,
				// and nothing can point at a term that was unseen until
				// now — chains formed within this call are flattened by
				// the fixpoint below.
				c.mapping[t] = ct
				learned = append(learned, t)
			}
			if _, ok := seen[ct]; !ok {
				seen[ct] = struct{}{}
				next = append(next, ct)
			}
		}
		current = next
	}
	// Only the mappings learned this call can chain through pre-existing
	// ones (nothing old can point at a term that was unseen until now),
	// so the fixpoint resolution is bounded by the delta, not the table.
	for _, from := range learned {
		c.mapping[from] = c.resolve(c.mapping[from])
	}
}

// resolve follows the mapping chain from t to its terminal form, with a
// small depth bound as a cycle guard (well-formed mergers never cycle).
func (c *Canonicalizer) resolve(t string) string {
	for i := 0; i < 8; i++ {
		next, ok := c.mapping[t]
		if !ok || next == t {
			break
		}
		t = next
	}
	return t
}

// Canonical resolves a term to its canonical form (itself when unmapped).
func (c *Canonicalizer) Canonical(term string) string {
	if c == nil {
		return term
	}
	if to, ok := c.mapping[term]; ok {
		return to
	}
	return term
}

// Mappings returns the number of non-identity mappings.
func (c *Canonicalizer) Mappings() int {
	if c == nil {
		return 0
	}
	return len(c.mapping)
}
