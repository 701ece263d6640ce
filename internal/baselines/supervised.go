package baselines

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"

	"github.com/tdmatch/tdmatch/internal/datasets"
	"github.com/tdmatch/tdmatch/internal/match"
	"github.com/tdmatch/tdmatch/internal/pretrained"
	"github.com/tdmatch/tdmatch/internal/textproc"
)

// The supervised stand-ins replace the paper's fine-tuned transformer
// baselines, which need GPU inference stacks unavailable in this offline
// Go reproduction (see DESIGN.md). They keep the training protocol — 5-fold
// cross validation over the annotated query set, the paper's 60/40-style
// split per fold — and the qualitative behaviour: strong when labels and
// lexical/embedding features carry the signal, degraded when annotations
// are scarce or the vocabulary is domain specific.

// SupervisedConfig tunes training of the logistic stand-ins.
type SupervisedConfig struct {
	Seed int64
	// Folds for cross validation (default 5 as in §V).
	Folds int
	// NegativesPerPositive controls negative sampling (default 8).
	NegativesPerPositive int
	// Epochs over the training pairs (default 20).
	Epochs int
	// LR is the SGD learning rate (default 0.1).
	LR float64
}

func (c SupervisedConfig) withDefaults() SupervisedConfig {
	if c.Folds <= 0 {
		c.Folds = 5
	}
	if c.NegativesPerPositive <= 0 {
		c.NegativesPerPositive = 8
	}
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
	if c.LR <= 0 {
		c.LR = 0.1
	}
	return c
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func dotF(w, f []float64) float64 {
	var s float64
	for i := range w {
		s += w[i] * f[i]
	}
	return s
}

// PairModel is a logistic model over pair features, trained and evaluated
// with cross validation: each query is ranked by the fold model that did
// NOT see it during training.
type PairModel struct {
	name     string
	s        *datasets.Scenario
	feat     *Featurizer
	cfg      SupervisedConfig
	pairwise bool
	// foldOf assigns each annotated query to a fold; weights[f] is the
	// model trained with fold f held out.
	foldOf  map[string]int
	weights [][]float64
}

// NewPairModel trains the stand-in. pairwise selects the RANK* objective
// (pairwise logistic loss over positive/negative target pairs); otherwise
// the binary matching objective of the entity-matching baselines is used.
func NewPairModel(name string, s *datasets.Scenario, pm *pretrained.Model, set FeatureSet, pairwise bool, cfg SupervisedConfig) (*PairModel, error) {
	cfg = cfg.withDefaults()
	feat, err := NewFeaturizer(s, pm, set)
	if err != nil {
		return nil, err
	}
	m := &PairModel{name: name, s: s, feat: feat, cfg: cfg, pairwise: pairwise,
		foldOf: map[string]int{}, weights: make([][]float64, cfg.Folds)}

	// Deterministic fold assignment over annotated queries.
	annotated := make([]string, 0, len(s.Queries))
	for _, q := range s.Queries {
		if len(s.Truth[q]) > 0 {
			annotated = append(annotated, q)
		}
	}
	sort.Strings(annotated)
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(annotated), func(i, j int) { annotated[i], annotated[j] = annotated[j], annotated[i] })
	for i, q := range annotated {
		m.foldOf[q] = i % cfg.Folds
	}
	for f := 0; f < cfg.Folds; f++ {
		m.weights[f] = m.trainFold(annotated, f, rand.New(rand.NewSource(cfg.Seed+int64(f)+1)))
	}
	return m, nil
}

func (m *PairModel) trainFold(annotated []string, fold int, rng *rand.Rand) []float64 {
	w := make([]float64, m.feat.Dim())
	var trainQ []string
	for _, q := range annotated {
		if m.foldOf[q] != fold {
			trainQ = append(trainQ, q)
		}
	}
	// The paper trains the supervised baselines on 60% of the annotated
	// data (§V); cap the out-of-fold pool accordingly (0.75 of the 80%
	// out-of-fold share = 60% of all annotations).
	if cap60 := len(annotated) * 60 / 100; len(trainQ) > cap60 {
		rng.Shuffle(len(trainQ), func(i, j int) { trainQ[i], trainQ[j] = trainQ[j], trainQ[i] })
		trainQ = trainQ[:cap60]
	}
	targets := m.s.Targets
	for ep := 0; ep < m.cfg.Epochs; ep++ {
		for _, q := range trainQ {
			for _, pos := range m.s.Truth[q] {
				fp := m.feat.Features(q, pos)
				for n := 0; n < m.cfg.NegativesPerPositive; n++ {
					neg := targets[rng.Intn(len(targets))]
					if neg == pos {
						continue
					}
					fn := m.feat.Features(q, neg)
					if m.pairwise {
						// RANK*: maximize sigma(w·(fp - fn)).
						diff := make([]float64, len(fp))
						for i := range diff {
							diff[i] = fp[i] - fn[i]
						}
						g := (1 - sigmoid(dotF(w, diff))) * m.cfg.LR
						for i := range w {
							w[i] += g * diff[i]
						}
					} else {
						// Binary: positive label 1, negative label 0.
						gp := (1 - sigmoid(dotF(w, fp))) * m.cfg.LR
						gn := (0 - sigmoid(dotF(w, fn))) * m.cfg.LR
						for i := range w {
							w[i] += gp*fp[i] + gn*fn[i]
						}
					}
				}
			}
		}
	}
	return w
}

// Name implements Ranker.
func (m *PairModel) Name() string { return m.name }

// Rank implements Ranker: the query is scored by its held-out fold model.
func (m *PairModel) Rank(queryID string, k int) []match.Scored {
	fold, ok := m.foldOf[queryID]
	if !ok {
		fold = 0
	}
	w := m.weights[fold]
	return match.TopKFunc(m.s.Targets, func(i int) float64 {
		return dotF(w, m.feat.Features(queryID, m.s.Targets[i]))
	}, k)
}

// NewRank builds the RANK* learning-to-rank stand-in (pairwise loss, full
// feature view).
func NewRank(s *datasets.Scenario, pm *pretrained.Model, cfg SupervisedConfig) (*PairModel, error) {
	return NewPairModel("RANK*", s, pm, FeaturesFull, true, cfg)
}

// NewDitto builds the DITTO* stand-in (binary matching over serialized
// lexical features).
func NewDitto(s *datasets.Scenario, pm *pretrained.Model, cfg SupervisedConfig) (*PairModel, error) {
	return NewPairModel("DITTO*", s, pm, FeaturesLexical, false, cfg)
}

// NewTapas builds the TAPAS* stand-in (binary matching over table-aware
// features).
func NewTapas(s *datasets.Scenario, pm *pretrained.Model, cfg SupervisedConfig) (*PairModel, error) {
	return NewPairModel("TAPAS*", s, pm, FeaturesTabular, false, cfg)
}

// NewDeepMatcher builds the DEEP-M* stand-in (binary matching over
// embedding-similarity features).
func NewDeepMatcher(s *datasets.Scenario, pm *pretrained.Model, cfg SupervisedConfig) (*PairModel, error) {
	return NewPairModel("DEEP-M*", s, pm, FeaturesEmbedding, false, cfg)
}

// MultiLabel is the L-BE* stand-in for the taxonomy task: one-vs-rest
// logistic classifiers over hashed bag-of-words document features, one
// classifier per taxonomy concept, cross-validated like PairModel.
type MultiLabel struct {
	s       *datasets.Scenario
	cfg     SupervisedConfig
	pre     textproc.Preprocessor
	dim     int
	foldOf  map[string]int
	weights [][][]float64 // [fold][label][dim]
	labelIx map[string]int
}

// NewMultiLabel trains the multi-label classifier stand-in.
func NewMultiLabel(s *datasets.Scenario, cfg SupervisedConfig) (*MultiLabel, error) {
	cfg = cfg.withDefaults()
	m := &MultiLabel{
		s:       s,
		cfg:     cfg,
		pre:     textproc.Preprocessor{RemoveStopwords: true, Stem: true, MaxNGram: 1},
		dim:     1 << 12,
		foldOf:  map[string]int{},
		labelIx: map[string]int{},
	}
	for i, t := range s.Targets {
		m.labelIx[t] = i
	}
	annotated := make([]string, 0, len(s.Queries))
	for _, q := range s.Queries {
		if len(s.Truth[q]) > 0 {
			annotated = append(annotated, q)
		}
	}
	sort.Strings(annotated)
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(annotated), func(i, j int) { annotated[i], annotated[j] = annotated[j], annotated[i] })
	for i, q := range annotated {
		m.foldOf[q] = i % cfg.Folds
	}
	m.weights = make([][][]float64, cfg.Folds)
	for f := 0; f < cfg.Folds; f++ {
		m.weights[f] = m.trainFold(annotated, f)
	}
	return m, nil
}

// hashedFeature is one nonzero slot of a hashed bag-of-words vector.
type hashedFeature struct {
	slot int
	v    float64
}

// hashFeatures maps a document to a unit-norm hashed bag-of-words
// vector: its nonzero slots in increasing order, so that every sum over
// them, and with them the trained weights, is a function of the seed.
func (m *MultiLabel) hashFeatures(queryID string) []hashedFeature {
	d, _ := m.s.Second.Doc(queryID)
	counts := map[int]float64{}
	for _, t := range m.pre.Tokens(d.Text()) {
		counts[int(fnv32(t)%uint32(m.dim))]++
	}
	out := make([]hashedFeature, 0, len(counts))
	var norm float64
	for _, slot := range slices.Sorted(maps.Keys(counts)) {
		out = append(out, hashedFeature{slot, counts[slot]})
		norm += counts[slot] * counts[slot]
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for i := range out {
			out[i].v *= inv
		}
	}
	return out
}

func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (m *MultiLabel) trainFold(annotated []string, fold int) [][]float64 {
	w := make([][]float64, len(m.s.Targets))
	for i := range w {
		w[i] = make([]float64, m.dim)
	}
	for ep := 0; ep < m.cfg.Epochs; ep++ {
		for _, q := range annotated {
			if m.foldOf[q] == fold {
				continue
			}
			feats := m.hashFeatures(q)
			pos := map[int]bool{}
			for _, t := range m.s.Truth[q] {
				if ix, ok := m.labelIx[t]; ok {
					pos[ix] = true
				}
			}
			// Positive labels plus a sample of negatives: full one-vs-rest
			// over hundreds of labels is wasteful at these sizes. An update
			// reads and writes its own label's row only, so the order the
			// positive labels are visited in does not change the weights.
			update := func(label int, y float64) {
				var s float64
				for _, f := range feats {
					s += w[label][f.slot] * f.v
				}
				g := (y - sigmoid(s)) * m.cfg.LR
				for _, f := range feats {
					w[label][f.slot] += g * f.v
				}
			}
			for label := range pos {
				update(label, 1)
			}
			rng := rand.New(rand.NewSource(m.cfg.Seed + int64(fnv32(q))))
			for n := 0; n < m.cfg.NegativesPerPositive*len(pos); n++ {
				neg := rng.Intn(len(m.s.Targets))
				if !pos[neg] {
					update(neg, 0)
				}
			}
		}
	}
	return w
}

// Name implements Ranker.
func (m *MultiLabel) Name() string { return "L-BE*" }

// Rank implements Ranker.
func (m *MultiLabel) Rank(queryID string, k int) []match.Scored {
	fold, ok := m.foldOf[queryID]
	if !ok {
		fold = 0
	}
	w := m.weights[fold]
	feats := m.hashFeatures(queryID)
	return match.TopKFunc(m.s.Targets, func(i int) float64 {
		var s float64
		for _, f := range feats {
			s += w[i][f.slot] * f.v
		}
		return s
	}, k)
}
