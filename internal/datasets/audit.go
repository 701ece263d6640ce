package datasets

import (
	"fmt"
	"sort"
	"strings"

	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/kb"
)

// AuditConfig sizes the enterprise audit scenario (paper §V-B, Table III):
// a taxonomy of auditing concepts matched against audit text documents.
type AuditConfig struct {
	Seed int64
	// Level1 is the number of first-level categories under the root.
	Level1 int
	// ConceptsPerCategory bounds the sub-concepts per category subtree.
	ConceptsPerCategory int
	// Documents is the number of audit text documents.
	Documents        int
	GeneralSentences int
}

func (c AuditConfig) withDefaults() AuditConfig {
	if c.Level1 <= 0 {
		c.Level1 = 8
	}
	if c.ConceptsPerCategory <= 0 {
		c.ConceptsPerCategory = 14
	}
	if c.Documents <= 0 {
		c.Documents = 200
	}
	if c.GeneralSentences <= 0 {
		c.GeneralSentences = 4000
	}
	return c
}

// Audit generates the taxonomy scenario. Concept labels combine audit
// modifiers and domain terms that the general corpus does not cover, so
// pre-trained substitutes are weak here — the paper's core observation for
// this dataset. Some concepts carry acronyms (e.g. PDCA) whose expansions
// appear in documents, exercised through the lexicon merger.
func Audit(cfg AuditConfig) (*Scenario, error) {
	cfg = cfg.withDefaults()
	r := newRng(cfg.Seed)

	var nodes []corpus.Node
	rootID := "tax:root"
	nodes = append(nodes, corpus.Node{ID: rootID, Text: "audit"})

	// Deterministic acronym ordering.
	acronyms := make([]string, 0, len(auditAcronyms))
	for a := range auditAcronyms {
		acronyms = append(acronyms, a)
	}
	sort.Strings(acronyms)

	type conceptInfo struct {
		id      string
		label   string
		acronym string
		leaf    bool
	}
	var concepts []conceptInfo

	mods := pickN(r, auditModifiers, cfg.Level1)
	acrIdx := 0
	for li, mod := range mods {
		l1ID := fmt.Sprintf("tax:l1_%d", li)
		nodes = append(nodes, corpus.Node{ID: l1ID, Text: mod + " audit", Parent: rootID})
		// Build a small subtree under each category: chains of depth 1-3.
		parents := []string{l1ID}
		n := cfg.ConceptsPerCategory
		for ci := 0; ci < n; ci++ {
			parent := parents[r.Intn(len(parents))]
			var label, acr string
			if acrIdx < len(acronyms) && r.maybe(0.12) {
				acr = acronyms[acrIdx]
				label = auditAcronyms[acr]
				acrIdx++
			} else {
				label = pick(r, auditConcepts)
				if r.maybe(0.6) {
					label = pick(r, auditModifiers) + " " + label
				}
				if r.maybe(0.3) {
					label = label + " " + pick(r, auditConcepts)
				}
			}
			id := fmt.Sprintf("tax:c%d_%d", li, ci)
			nodes = append(nodes, corpus.Node{ID: id, Text: label, Parent: parent})
			concepts = append(concepts, conceptInfo{id: id, label: label, acronym: acr})
			if r.maybe(0.4) {
				parents = append(parents, id)
			}
		}
	}
	tax, err := corpus.NewStructured("tax", nodes)
	if err != nil {
		return nil, err
	}

	lex := kb.NewLexicon()
	for _, c := range concepts {
		if c.acronym != "" {
			lex.AddSynonyms(c.label, c.acronym)
		}
	}

	// Documents: each references 1-4 concepts (40% one concept, 10% two,
	// rest more, per the paper's annotation distribution) with ambient
	// audit vocabulary that makes everything look alike.
	var docs, docIDs []string
	truth := map[string][]string{}
	for i := 0; i < cfg.Documents; i++ {
		did := fmt.Sprintf("docs:p%d", i)
		var k int
		switch v := r.Float64(); {
		case v < 0.4:
			k = 1
		case v < 0.5:
			k = 2
		default:
			k = 3 + r.Intn(2)
		}
		targets := pickN(r, concepts, k)
		var parts []string
		for _, c := range targets {
			mention := c.label
			if c.acronym != "" && r.maybe(0.6) {
				mention = c.acronym // the PDCA problem
			}
			parts = append(parts, mention)
			truth[did] = append(truth[did], c.id)
		}
		// Ambient domain noise: audit words unrelated to the targets.
		parts = append(parts, "audit")
		parts = append(parts, pickN(r, auditConcepts, 2+r.Intn(3))...)
		parts = append(parts, pickN(r, generalWords, 3+r.Intn(4))...)
		docs = append(docs, strings.Join(shuffled(r, parts), " "))
		docIDs = append(docIDs, did)
	}
	docCorpus, err := corpus.NewText("docs", docs, docIDs)
	if err != nil {
		return nil, err
	}

	// ConceptNet substitute: relatedTo edges between concepts sharing a
	// head term, plus modifier-to-concept associations.
	mem := kb.NewMemory()
	byHead := map[string][]string{}
	for _, c := range concepts {
		fields := strings.Fields(c.label)
		head := fields[len(fields)-1]
		byHead[head] = append(byHead[head], c.label)
		mem.Add(head, "partOf", c.label)
	}
	heads := make([]string, 0, len(byHead))
	for h := range byHead {
		heads = append(heads, h)
	}
	sort.Strings(heads)
	for _, h := range heads {
		group := byHead[h]
		for i := 0; i+1 < len(group); i++ {
			mem.Add(group[i], "relatedTo", group[i+1])
		}
	}

	targetIDs := make([]string, 0, len(concepts))
	for _, c := range concepts {
		targetIDs = append(targetIDs, c.id)
	}
	return &Scenario{
		Name:    "audit",
		First:   tax,
		Second:  docCorpus,
		Queries: docIDs,
		Targets: targetIDs,
		Truth:   truth,
		KB:      mem,
		Lexicon: lex,
		General: GeneralCorpus(cfg.Seed+303, cfg.GeneralSentences),
	}, nil
}
