package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/tdmatch/tdmatch/internal/graph"
)

// pinnedRuns are RunPipeline option paths the golden file does not
// reach, each with the sha256 of its document vectors at Small scale,
// seed 7, one worker (see docVecsHash). A change that moves one must say
// why the trained vectors changed.
var pinnedRuns = []struct {
	name     string
	scenario string
	opts     PipelineOpts
	sha256   string
}{
	{"num-walks", "imdb-wt", PipelineOpts{UseLexicon: true, NumWalks: 5}, "7f239f026812869e43f585170b10abd8a7b2757ad4f414f38a369ef8ebe5f2b5"},
	{"walk-length", "imdb-wt", PipelineOpts{UseLexicon: true, WalkLength: 8}, "66068c2bd0d2cddb3ab1ed87919a2bd6d0b007a4a31a9da50848878ebf6ed128"},
	{"dim", "snopes", PipelineOpts{Dim: 24}, "7ca1fbe5e4c41e9a5c6bd0f87997344480497d8d67472a232be888f49f4b8e56"},
	{"epochs", "snopes", PipelineOpts{Epochs: 1}, "baa33ed1c611ebc7716c3ee6475dd9d0fd76cff12d7c76eff6c5d186655f469b"},
	{"window-table", "imdb-wt", PipelineOpts{UseLexicon: true, Window: 5}, "f7100387b0f77176b1776dcbec147fbdee534c0a516c93192f7f60172b79698f"},
	{"window-text", "snopes", PipelineOpts{Window: 4}, "d6cc0f11688dc7a25af3bdfd8fbc16654e5470029189f9b9f7b741d2508fa994"},
	{"max-ngram-1", "imdb-wt", PipelineOpts{UseLexicon: true, MaxNGram: 1}, "83d54e8c05c0b21ed2e8c06e22dff5b11bb7167d02102236c3137c65dbfc17ff"},
	{"filter-none", "politifact", PipelineOpts{Filter: graph.FilterNone}, "6e7ed861ddc037db5971780d5671024c6841b29a292066274aebc34b73916cb2"},
	{"filter-tfidf", "snopes", PipelineOpts{Filter: graph.FilterTFIDF, TFIDFTopK: 5}, "eca806ab71b09f5f98fd4ac1ca19a0b9039986a634d435c2e3bec2593e1d97f1"},
	{"no-meta-edges", "audit", PipelineOpts{UseLexicon: true, DisableMetaEdges: true}, "44c1477f636695a8928508f9498c9ae2df5df48ca4aa2fb384b329d24c401707"},
	{"kind-weights", "imdb-wt", PipelineOpts{UseLexicon: true, KindWeights: map[graph.NodeKind]float64{graph.Attribute: 0.5}}, "18460c982f69ac1befe3726c6663439333c69d9371bc1c30c36d972a394d9d4b"},
	{"bucketing", "corona-gen", PipelineOpts{Bucketing: true}, "8e9e385c752c1173e967aad14d2dd783283a0989bf694b43d01031c51b282fff"},
	{"ssum", "snopes", PipelineOpts{Expand: true, Compression: "ssum", Ratio: 0.5}, "939b8d7738d95d9e44261ca5997eca21dc3a1343bbd45f9056cdc7ca5df25ee1"},
}

// docVecsHash is the sha256 of the document vectors in ID order: each ID,
// a zero byte, then the vector's float32 bits little-endian.
func docVecsHash(vecs map[string][]float32) string {
	h := sha256.New()
	var buf [4]byte
	for _, id := range sortedKeys(vecs) {
		h.Write([]byte(id))
		h.Write([]byte{0})
		for _, x := range vecs[id] {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunPipelinePins holds the trained document vectors of every
// pinned option path bit-identical. Training at one worker is a
// function of the seed on both the AVX2 and the portable kernels, so the
// hashes hold on either.
func TestRunPipelinePins(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: trains thirteen models")
	}
	sc := goldenScale()
	for _, p := range pinnedRuns {
		s, err := sc.Scenario(p.scenario)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := RunPipeline(s, sc, p.opts)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if len(pr.DocVecs) == 0 {
			t.Fatalf("%s: no document vectors", p.name)
		}
		if got := docVecsHash(pr.DocVecs); got != p.sha256 {
			t.Errorf("%s: document vectors hash %s, pinned %s", p.name, got, p.sha256)
		}
	}
}
