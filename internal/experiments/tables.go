package experiments

import (
	"fmt"
	"time"

	"github.com/tdmatch/tdmatch/internal/baselines"
	"github.com/tdmatch/tdmatch/internal/datasets"
	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/metrics"
)

var rankKs = []int{1, 5, 20}

// qualityHeader matches the paper's quality tables.
var qualityHeader = []string{"MRR", "MAP@1", "MAP@5", "MAP@20", "HasPos@1", "HasPos@5", "HasPos@20"}

func summaryValues(s metrics.RankSummary) []float64 {
	return []float64{s.MRR,
		s.MAPAt[1], s.MAPAt[5], s.MAPAt[20],
		s.HasPosAt[1], s.HasPosAt[5], s.HasPosAt[20]}
}

// ourRankers builds W-RW and W-RW-EX for a scenario. Node-merging
// resources are part of the method's default configuration (§V-F2):
// the lexicon everywhere, bucketing on the numeric CoronaCheck data.
func ourRankers(s *datasets.Scenario, sc Scale) (*GraphRanker, *GraphRanker, error) {
	bucketing := s.Name == "corona-gen" || s.Name == "corona-usr"
	base, err := RunPipeline(s, sc, PipelineOpts{UseLexicon: true, Bucketing: bucketing})
	if err != nil {
		return nil, nil, err
	}
	wrw, err := base.Ranker("W-RW")
	if err != nil {
		return nil, nil, err
	}
	expanded, err := RunPipeline(s, sc, PipelineOpts{UseLexicon: true, Bucketing: bucketing, Expand: true})
	if err != nil {
		return nil, nil, err
	}
	wrwEx, err := expanded.Ranker("W-RW-EX")
	if err != nil {
		return nil, nil, err
	}
	return wrw, wrwEx, nil
}

// runQualitySection evaluates the named methods on a scenario and appends
// rows to the table under the given section.
func runQualitySection(t *Table, section string, s *datasets.Scenario, sc Scale, withDeepM bool) error {
	pm, err := sc.Pretrained(s)
	if err != nil {
		return err
	}
	sbe, err := baselines.NewSBE(s, pm)
	if err != nil {
		return err
	}
	wrw, wrwEx, err := ourRankers(s, sc)
	if err != nil {
		return err
	}
	supCfg := baselines.SupervisedConfig{Seed: sc.Seed, Epochs: 10}
	rank, err := baselines.NewRank(s, pm, supCfg)
	if err != nil {
		return err
	}
	ditto, err := baselines.NewDitto(s, pm, supCfg)
	if err != nil {
		return err
	}
	tapas, err := baselines.NewTapas(s, pm, supCfg)
	if err != nil {
		return err
	}
	rankers := []baselines.Ranker{sbe, wrw, wrwEx, rank}
	if withDeepM {
		deepm, err := baselines.NewDeepMatcher(s, pm, supCfg)
		if err != nil {
			return err
		}
		rankers = append(rankers, deepm)
	}
	rankers = append(rankers, ditto, tapas)
	for _, r := range rankers {
		sum, _ := EvaluateRanker(s, r, rankKs)
		t.Add(section, r.Name(), summaryValues(sum)...)
	}
	return nil
}

// Table1 reproduces Table I: IMDb WT and NT match quality.
func Table1(sc Scale) (*Table, error) {
	t := &Table{ID: "table1", Title: "IMDb scenario match quality (paper Table I)", Header: qualityHeader}
	for _, variant := range []string{"imdb-wt", "imdb-nt"} {
		s, err := sc.Scenario(variant)
		if err != nil {
			return nil, err
		}
		section := "WT"
		if variant == "imdb-nt" {
			section = "NT"
		}
		if err := runQualitySection(t, section, s, sc, false); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Table2 reproduces Table II: CoronaCheck Gen and Usr match quality.
func Table2(sc Scale) (*Table, error) {
	t := &Table{ID: "table2", Title: "CoronaCheck scenario match quality (paper Table II)", Header: qualityHeader}
	for _, variant := range []string{"corona-gen", "corona-usr"} {
		s, err := sc.Scenario(variant)
		if err != nil {
			return nil, err
		}
		section := "Gen"
		if variant == "corona-usr" {
			section = "Usr"
		}
		if err := runQualitySection(t, section, s, sc, true); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// taxonomyKs are the Table III cutoffs.
var taxonomyKs = []int{1, 3, 5, 10}

// Table3 reproduces Table III: Exact and Node P/R/F on the audit taxonomy.
func Table3(sc Scale) (*Table, error) {
	t := &Table{ID: "table3", Title: "Audit structured-text matching (paper Table III)",
		Header: []string{"ExactP", "ExactR", "ExactF", "NodeP", "NodeR", "NodeF"}}
	s, err := sc.Scenario("audit")
	if err != nil {
		return nil, err
	}
	pm, err := sc.Pretrained(s)
	if err != nil {
		return nil, err
	}
	paths := s.First.Paths()

	d2v, err := baselines.NewD2Vec(s, embed.Config{Dim: sc.Dim, Epochs: 6, Seed: sc.Seed, Workers: sc.Workers})
	if err != nil {
		return nil, err
	}
	sbe, err := baselines.NewSBE(s, pm)
	if err != nil {
		return nil, err
	}
	wrw, wrwEx, err := ourRankers(s, sc)
	if err != nil {
		return nil, err
	}
	rank, err := baselines.NewRank(s, pm, baselines.SupervisedConfig{Seed: sc.Seed, Epochs: 10})
	if err != nil {
		return nil, err
	}
	lbe, err := baselines.NewMultiLabel(s, baselines.SupervisedConfig{Seed: sc.Seed, Epochs: 10})
	if err != nil {
		return nil, err
	}
	rankers := []baselines.Ranker{d2v, sbe, wrw, wrwEx, rank, lbe}
	// Rank once at max K, evaluate at every cutoff.
	maxK := taxonomyKs[len(taxonomyKs)-1]
	ranked := map[string]map[string][]string{}
	for _, r := range rankers {
		ranked[r.Name()] = baselines.RankAll(r, s.Queries, maxK)
	}
	truthPaths := map[string][][]string{}
	for q, ts := range s.Truth {
		for _, id := range ts {
			truthPaths[q] = append(truthPaths[q], paths[id])
		}
	}
	for _, k := range taxonomyKs {
		section := fmt.Sprintf("K=%d", k)
		for _, r := range rankers {
			pred := map[string][][]string{}
			for q, ids := range ranked[r.Name()] {
				top := ids
				if len(top) > k {
					top = top[:k]
				}
				for _, id := range top {
					pred[q] = append(pred[q], paths[id])
				}
			}
			sum := metrics.EvaluateTaxonomy(pred, truthPaths)
			t.Add(section, r.Name(),
				sum.Exact.P, sum.Exact.R, sum.Exact.F,
				sum.Node.P, sum.Node.R, sum.Node.F)
		}
	}
	return t, nil
}

// textQualitySection evaluates the text-to-text method set of Tables IV-VI.
func textQualitySection(t *Table, section string, s *datasets.Scenario, sc Scale) error {
	pm, err := sc.Pretrained(s)
	if err != nil {
		return err
	}
	sbe, err := baselines.NewSBE(s, pm)
	if err != nil {
		return err
	}
	wrw, wrwEx, err := ourRankers(s, sc)
	if err != nil {
		return err
	}
	rank, err := baselines.NewRank(s, pm, baselines.SupervisedConfig{Seed: sc.Seed, Epochs: 10})
	if err != nil {
		return err
	}
	for _, r := range []baselines.Ranker{sbe, wrw, wrwEx, rank} {
		sum, _ := EvaluateRanker(s, r, rankKs)
		t.Add(section, r.Name(), summaryValues(sum)...)
	}
	return nil
}

// Table4 reproduces Table IV: Politifact.
func Table4(sc Scale) (*Table, error) {
	t := &Table{ID: "table4", Title: "Politifact match quality (paper Table IV)", Header: qualityHeader}
	s, err := sc.Scenario("politifact")
	if err != nil {
		return nil, err
	}
	return t, textQualitySection(t, "all", s, sc)
}

// Table5 reproduces Table V: Snopes.
func Table5(sc Scale) (*Table, error) {
	t := &Table{ID: "table5", Title: "Snopes match quality (paper Table V)", Header: qualityHeader}
	s, err := sc.Scenario("snopes")
	if err != nil {
		return nil, err
	}
	return t, textQualitySection(t, "all", s, sc)
}

// Table6 reproduces Table VI: STS at thresholds k=2 and k=3.
func Table6(sc Scale) (*Table, error) {
	t := &Table{ID: "table6", Title: "STS match quality (paper Table VI)", Header: qualityHeader}
	for _, variant := range []string{"sts-k2", "sts-k3"} {
		s, err := sc.Scenario(variant)
		if err != nil {
			return nil, err
		}
		section := "k=2"
		if variant == "sts-k3" {
			section = "k=3"
		}
		if err := textQualitySection(t, section, s, sc); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Table7 reproduces Table VII: train and test times per method per task.
// One representative scenario per task column: corona-gen (text to data),
// audit (structured text), snopes (text to text).
func Table7(sc Scale) (*Table, error) {
	t := &Table{ID: "table7", Title: "Train and test execution times in seconds (paper Table VII)",
		Header: []string{"Train(s)", "Test(s)"}}
	tasks := []struct{ section, scenario string }{
		{"text-to-data", "corona-gen"},
		{"structured", "audit"},
		{"text-to-text", "snopes"},
	}
	for _, task := range tasks {
		s, err := sc.Scenario(task.scenario)
		if err != nil {
			return nil, err
		}
		pm, err := sc.Pretrained(s)
		if err != nil {
			return nil, err
		}

		// W2VEC.
		start := time.Now()
		w2v, err := baselines.NewW2Vec(s, embed.Config{Dim: sc.Dim, Window: 3, Epochs: 3, Seed: sc.Seed, Workers: sc.Workers})
		if err != nil {
			return nil, err
		}
		train := time.Since(start)
		_, test := EvaluateRanker(s, w2v, rankKs)
		t.Add(task.section, "W2VEC", train.Seconds(), test.Seconds())

		// D2VEC.
		start = time.Now()
		d2v, err := baselines.NewD2Vec(s, embed.Config{Dim: sc.Dim, Epochs: 6, Seed: sc.Seed, Workers: sc.Workers})
		if err != nil {
			return nil, err
		}
		train = time.Since(start)
		_, test = EvaluateRanker(s, d2v, rankKs)
		t.Add(task.section, "D2VEC", train.Seconds(), test.Seconds())

		// S-BE: no training on the corpora (pre-trained).
		sbe, err := baselines.NewSBE(s, pm)
		if err != nil {
			return nil, err
		}
		_, test = EvaluateRanker(s, sbe, rankKs)
		t.Add(task.section, "S-BE", 0, test.Seconds())

		// W-RW (ours).
		pr, err := RunPipeline(s, sc, PipelineOpts{UseLexicon: true})
		if err != nil {
			return nil, err
		}
		wrw, err := pr.Ranker("W-RW")
		if err != nil {
			return nil, err
		}
		_, test = EvaluateRanker(s, wrw, rankKs)
		t.Add(task.section, "W-RW", pr.TrainTime.Seconds(), test.Seconds())

		// RANK*.
		start = time.Now()
		rank, err := baselines.NewRank(s, pm, baselines.SupervisedConfig{Seed: sc.Seed, Epochs: 10})
		if err != nil {
			return nil, err
		}
		train = time.Since(start)
		_, test = EvaluateRanker(s, rank, rankKs)
		t.Add(task.section, "RANK*", train.Seconds(), test.Seconds())

		// L-BE* only for the taxonomy task (multi-label classification).
		if task.scenario == "audit" {
			start = time.Now()
			lbe, err := baselines.NewMultiLabel(s, baselines.SupervisedConfig{Seed: sc.Seed, Epochs: 10})
			if err != nil {
				return nil, err
			}
			train = time.Since(start)
			_, test = EvaluateRanker(s, lbe, rankKs)
			t.Add(task.section, "L-BE*", train.Seconds(), test.Seconds())
		}
	}
	return t, nil
}

// Table8 reproduces Table VIII: graph sizes and MRR for the original graph,
// the expanded graph, MSP at ratios 0.5 and 0.25, and the SSuM-style
// baseline at node ratio 0.6, across all five scenarios. The row label
// names the ratio the row runs at.
func Table8(sc Scale) (*Table, error) {
	t := &Table{ID: "table8", Title: "Compression performance: nodes, edges, MRR (paper Table VIII)",
		Header: []string{"#N", "#E", "MRR"}}
	variants := []struct {
		method string
		opts   PipelineOpts
	}{
		{"Original", PipelineOpts{UseLexicon: true}},
		{"Expanded", PipelineOpts{UseLexicon: true, Expand: true}},
		{"MSP(0.5)", PipelineOpts{UseLexicon: true, Expand: true, Compression: "msp", Ratio: 0.5}},
		{"MSP(0.25)", PipelineOpts{UseLexicon: true, Expand: true, Compression: "msp", Ratio: 0.25}},
		{"SSuM(0.6)", PipelineOpts{UseLexicon: true, Expand: true, Compression: "ssum", Ratio: 0.6}},
	}
	for _, name := range ScenarioNames {
		s, err := sc.Scenario(name)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			pr, err := RunPipeline(s, sc, v.opts)
			if err != nil {
				return nil, err
			}
			r, err := pr.Ranker("W-RW")
			if err != nil {
				return nil, err
			}
			sum, _ := EvaluateRanker(s, r, []int{1})
			t.Add(name, v.method, float64(pr.Graph.NumNodes()), float64(pr.Graph.NumEdges()), sum.MRR)
		}
	}
	return t, nil
}
