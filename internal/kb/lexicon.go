package kb

// Lexicon is the WordNet-style resource used for merging synonym, acronym
// and typo data nodes (§II-C). It maps surface forms to a canonical term;
// unlike Memory, it expresses equivalence rather than relatedness.
type Lexicon struct {
	canon map[string]string
}

// NewLexicon returns an empty lexicon.
func NewLexicon() *Lexicon {
	return &Lexicon{canon: make(map[string]string)}
}

// AddSynonyms declares that all variants share the canonical form. The
// canonical term maps to itself, so Len counts every member of a group.
func (l *Lexicon) AddSynonyms(canonical string, variants ...string) {
	c := normalize(canonical)
	if c == "" {
		return
	}
	l.canon[c] = c
	for _, v := range variants {
		nv := normalize(v)
		if nv != "" && nv != c {
			l.canon[nv] = c
		}
	}
}

// Len returns the number of lexicon entries (including canonical self-maps).
func (l *Lexicon) Len() int {
	if l == nil {
		return 0
	}
	return len(l.canon)
}

// Merge implements graph.Merger: every known variant maps to its canonical
// form. Identity mappings are omitted.
func (l *Lexicon) Merge(terms []string) map[string]string {
	if l == nil || len(l.canon) == 0 {
		return nil
	}
	out := make(map[string]string)
	for _, t := range terms {
		if c, ok := l.canon[normalize(t)]; ok && c != t {
			out[t] = c
		}
	}
	return out
}

// SynonymPairs enumerates the (variant, canonical) pairs, in map order.
func (l *Lexicon) SynonymPairs() [][2]string {
	if l == nil {
		return nil
	}
	var out [][2]string
	for v, c := range l.canon {
		if v != c {
			out = append(out, [2]string{v, c})
		}
	}
	return out
}
