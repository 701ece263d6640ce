package experiments

import (
	"bytes"
	"github.com/tdmatch/tdmatch/internal/baselines"
	"strings"
	"testing"
)

// micro is an even smaller scale than Small, for unit tests.
var micro = Scale{
	IMDbMovies: 25, CoronaCountries: 8, CoronaGenClaims: 40, CoronaUsrClaims: 15,
	AuditLevel1: 4, AuditConcepts: 7, AuditDocuments: 40, ClaimsFactor: 0.12,
	STSPairs: 80, GeneralSentences: 500,
	NumWalks: 8, WalkLength: 12, Dim: 32, Epochs: 2, Seed: 3, Workers: 2,
}

func TestScaleScenarios(t *testing.T) {
	for _, name := range []string{"imdb-wt", "imdb-nt", "corona-gen", "corona-usr",
		"audit", "snopes", "politifact", "sts-k2", "sts-k3"} {
		s, err := micro.Scenario(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name && !strings.HasPrefix(name, "sts") {
			t.Errorf("scenario name %q for requested %q", s.Name, name)
		}
	}
	if _, err := micro.Scenario("bogus"); err == nil {
		t.Error("want error for unknown scenario")
	}
}

func TestRunPipelineAndRanker(t *testing.T) {
	s, err := micro.Scenario("imdb-wt")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RunPipeline(s, micro, PipelineOpts{UseLexicon: true})
	if err != nil {
		t.Fatal(err)
	}
	if pr.OriginalNodes == 0 || pr.OriginalEdges == 0 {
		t.Fatalf("empty graph: %+v", pr)
	}
	if pr.ExpandedNodes != pr.OriginalNodes {
		t.Error("no-expansion run changed node count")
	}
	if len(pr.DocVecs) == 0 {
		t.Fatal("no document vectors")
	}
	r, err := pr.Ranker("W-RW")
	if err != nil {
		t.Fatal(err)
	}
	sum, elapsed := EvaluateRanker(s, r, []int{1, 5})
	if sum.Queries == 0 || elapsed <= 0 {
		t.Fatalf("evaluation empty: %+v", sum)
	}
	// The graph method must beat random guessing comfortably.
	random := 1.0 / float64(len(s.Targets))
	if sum.MRR < 5*random {
		t.Errorf("W-RW MRR %.3f vs random %.3f", sum.MRR, random)
	}
}

func TestRunPipelineExpansionGrowsGraph(t *testing.T) {
	s, err := micro.Scenario("imdb-wt")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RunPipeline(s, micro, PipelineOpts{UseLexicon: true, Expand: true})
	if err != nil {
		t.Fatal(err)
	}
	if pr.ExpandedEdges <= pr.OriginalEdges {
		t.Errorf("expansion added no edges: %d -> %d", pr.OriginalEdges, pr.ExpandedEdges)
	}
}

func TestRunPipelineCompressionShrinksGraph(t *testing.T) {
	s, err := micro.Scenario("corona-gen")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RunPipeline(s, micro, PipelineOpts{UseLexicon: true, Expand: true, Compression: "msp", Ratio: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Graph.NumNodes() >= pr.ExpandedNodes {
		t.Errorf("MSP did not shrink: %d -> %d", pr.ExpandedNodes, pr.Graph.NumNodes())
	}
	r, err := pr.Ranker("W-RW")
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := EvaluateRanker(s, r, []int{1})
	if sum.Queries == 0 {
		t.Error("no queries evaluated after compression")
	}
}

func TestCombinedRanker(t *testing.T) {
	s, err := micro.Scenario("snopes")
	if err != nil {
		t.Fatal(err)
	}
	pm, err := micro.Pretrained(s)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RunPipeline(s, micro, PipelineOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wrw, err := pr.Ranker("W-RW")
	if err != nil {
		t.Fatal(err)
	}
	sbe, err := baselines.NewSBE(s, pm)
	if err != nil {
		t.Fatal(err)
	}
	comb := NewCombinedRanker(wrw, sbe)
	if comb.Name() != "W-RW&S-BE" {
		t.Errorf("name = %s", comb.Name())
	}
	got := comb.Rank(s.Queries[0], 5)
	if len(got) != 5 {
		t.Errorf("combined rank = %d results", len(got))
	}
}

func TestTablePrinting(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Header: []string{"MRR", "#N"}}
	tbl.Add("sec1", "method-a", 0.512, 12345)
	tbl.Add("sec1", "method-b", 0.3, 200)
	tbl.Add("sec2", "method-a", 0.9, 7)
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "method-a", "0.512", "12345", "sec2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"table7", "table8", "fig6", "fig7", "fig8", "fig9", "fig10",
		"ngrams", "merging", "metaedges", "blocking", "walkbias"}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("registry missing %s", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(IDs()), len(want))
	}
	if _, err := Run("bogus", micro); err == nil {
		t.Error("want error for unknown id")
	}
}

// TestRunMergingExperiment exercises one real experiment end to end at
// micro scale (merging is among the cheapest).
func TestRunMergingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := Run("merging", micro)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if len(r.Values) != 2 {
			t.Errorf("row %v has %d values", r.Section, len(r.Values))
		}
	}
}

// TestRunFig10Experiment checks the combination experiment runs and the
// combined score is sane.
func TestRunFig10Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tiny := micro
	tiny.STSPairs = 60
	tbl, err := Run("fig10", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(ScenarioNames) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		for _, v := range r.Values {
			if v < 0 || v > 1 {
				t.Errorf("MAP out of range: %v", r)
			}
		}
	}
}
