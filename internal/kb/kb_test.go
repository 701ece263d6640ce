package kb

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestMemoryAddAndRelated(t *testing.T) {
	m := NewMemory()
	m.Add("Tarantino", "style", "Comedy")
	m.Add("Willis", "starring", "Pulp Fiction")

	rels := m.Related("tarantino")
	if len(rels) != 1 || rels[0].Object != "comedy" || rels[0].Predicate != "style" {
		t.Errorf("Related(tarantino) = %v", rels)
	}
	// Relations are symmetric.
	back := m.Related("comedy")
	if len(back) != 1 || back[0].Object != "tarantino" {
		t.Errorf("Related(comedy) = %v", back)
	}
}

func TestMemoryNormalization(t *testing.T) {
	m := NewMemory()
	m.Add("  Bruce Willis ", "acted", "Die Hard")
	if len(m.Related("BRUCE WILLIS")) != 1 {
		t.Error("lookup must be case/space insensitive")
	}
}

func TestMemoryRejectsDegenerate(t *testing.T) {
	m := NewMemory()
	m.Add("", "p", "x")
	m.Add("x", "p", "")
	m.Add("same", "p", "same")
	if len(m.triples) != 0 {
		t.Errorf("degenerate triples stored: %v", m.triples)
	}
}

func TestMemoryZeroValue(t *testing.T) {
	var m Memory
	m.Add("a", "p", "b")
	if len(m.Related("a")) != 1 {
		t.Error("zero-value Memory must work after Add")
	}
	var nilM *Memory
	if nilM.Related("a") != nil {
		t.Error("nil Memory must be empty")
	}
}

func TestUnion(t *testing.T) {
	m1, m2 := NewMemory(), NewMemory()
	m1.Add("x", "p", "y")
	m2.Add("x", "q", "z")
	u := Union{m1, nil, m2, Empty{}}
	rels := u.Related("x")
	if len(rels) != 2 {
		t.Errorf("Union.Related = %v, want 2 relations", rels)
	}
}

func TestEmpty(t *testing.T) {
	if (Empty{}).Related("anything") != nil {
		t.Error("Empty must return nil")
	}
}

func TestLexiconCanonical(t *testing.T) {
	l := NewLexicon()
	l.AddSynonyms("bruce willis", "b willis", "willis bruce")
	l.AddSynonyms("plan do check act", "pdca")

	// Variants resolve case-insensitively; the canonical form and unknown
	// terms map to nothing.
	got := l.Merge([]string{"b willis", "PDCA", "bruce willis", "unknown"})
	want := map[string]string{"b willis": "bruce willis", "PDCA": "plan do check act"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Merge = %v, want %v", got, want)
	}
}

func TestLexiconMerge(t *testing.T) {
	l := NewLexicon()
	l.AddSynonyms("bruce willis", "b willis")
	got := l.Merge([]string{"b willis", "tarantino", "bruce willis"})
	if len(got) != 1 || got["b willis"] != "bruce willis" {
		t.Errorf("Merge = %v", got)
	}
	var nilL *Lexicon
	if nilL.Merge([]string{"x"}) != nil || nilL.Len() != 0 {
		t.Error("nil lexicon must be inert")
	}
}

func TestLexiconSynonymPairs(t *testing.T) {
	l := NewLexicon()
	l.AddSynonyms("a", "b", "c")
	pairs := l.SynonymPairs()
	if len(pairs) != 2 {
		t.Errorf("SynonymPairs = %v, want 2", pairs)
	}
	for _, p := range pairs {
		if p[1] != "a" {
			t.Errorf("pair %v must map to canonical a", p)
		}
	}
	var nilL *Lexicon
	if nilL.SynonymPairs() != nil {
		t.Error("nil lexicon pairs must be nil")
	}
}

// Property: Add is symmetric — after Add(s,p,o), o is reachable from s and
// s from o, regardless of input strings.
func TestMemorySymmetryProperty(t *testing.T) {
	f := func(s, p, o string) bool {
		m := NewMemory()
		m.Add(s, p, o)
		ns, no := normalize(s), normalize(o)
		if ns == "" || no == "" || ns == no {
			return len(m.triples) == 0
		}
		fwd, bwd := false, false
		for _, r := range m.Related(s) {
			if r.Object == no {
				fwd = true
			}
		}
		for _, r := range m.Related(o) {
			if r.Object == ns {
				bwd = true
			}
		}
		return fwd && bwd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
