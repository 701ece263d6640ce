// Package walk implements the random-walk corpus generation of Algorithm 4
// (paper §IV-A): n walks of length l start from every live graph node; the
// node sequence of each walk becomes one training sentence for Word2Vec.
// Related metadata nodes co-occur in walks more often, so their embeddings
// end up closer.
//
// GeneratePacked writes walks directly into the packed embed.Sequences
// training format (one contiguous token buffer, no per-walk allocations).
package walk

import (
	"fmt"
	"math/bits"
	"runtime"

	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/graph"
)

// Config parametrizes walk generation. The paper's default is 100 walks of
// length 30 per node; the ablations of Figures 6 and 7 sweep both.
type Config struct {
	// NumWalks is the number of walks started per node (default 10).
	NumWalks int
	// Length is the number of nodes visited per walk (default 30).
	Length int
	// Seed makes walk generation reproducible; each (node, walk) pair gets
	// an independent RNG stream so results do not depend on scheduling.
	Seed int64
	// Workers bounds the parallelism (default GOMAXPROCS).
	Workers int
	// KindWeights biases the next-step choice by the neighbor's node kind,
	// implementing the typed-walk extension the paper lists as future work
	// (§VII). A weight of 0 removes that kind from walks entirely; kinds
	// absent from the map default to weight 1. A map whose every weight is
	// 1, like nil, keeps the paper's uniform random walk.
	KindWeights map[graph.NodeKind]float64
}

func (c Config) withDefaults() Config {
	if c.NumWalks <= 0 {
		c.NumWalks = 10
	}
	if c.Length <= 0 {
		c.Length = 30
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// GeneratePacked produces NumWalks walks per live node directly in the
// packed training format the embedder consumes: walk tokens are graph
// NodeIDs, written into one contiguous buffer with one fixed-size slot
// per walk and compacted into embed.Sequences at the end. A walk starts
// at its seed node and repeatedly steps to a uniformly random neighbor
// (kind-weighted when Config.KindWeights is set); it ends early at
// isolated nodes, which still yield single-token walks (their metadata
// must receive an embedding). Freeze the graph first so neighbor lists
// are read from sequential CSR memory.
func GeneratePacked(g *graph.Graph, cfg Config) embed.Sequences {
	var starts []graph.NodeID
	g.Nodes(func(id graph.NodeID) { starts = append(starts, id) })
	return GeneratePackedFrom(g, starts, cfg)
}

// GeneratePackedFrom is GeneratePacked restricted to an explicit start
// set: NumWalks walks are seeded from each given node only. This is the
// delta-training entry point — after an incremental ingest, walks are
// seeded from the new and affected nodes alone, so warm-start
// fine-tuning reads a corpus proportional to the delta's neighborhood
// instead of the whole graph. Each (node, walk) pair keeps its own RNG
// stream, so a restricted run generates exactly the walks a full run
// would for those nodes.
func GeneratePackedFrom(g *graph.Graph, starts []graph.NodeID, cfg Config) embed.Sequences {
	cfg = cfg.withDefaults()
	total := len(starts) * cfg.NumWalks
	if total == 0 {
		return embed.Sequences{Offsets: []int32{0}}
	}

	length := cfg.Length
	if int64(total)*int64(length) > int64(1)<<31-1 {
		// The packed format indexes tokens with int32 offsets; fail loudly
		// instead of silently wrapping (shard the corpus or lower
		// NumWalks/Length well before this point).
		panic(fmt.Sprintf("walk: %d walks of length %d overflow the packed int32 token index", total, length))
	}
	// Weights of 1 leave the step as it is; with no other weight the walk
	// is the uniform one, RNG draws included.
	var weights map[graph.NodeKind]float64
	for kind, w := range cfg.KindWeights {
		if w != 1 {
			if weights == nil {
				weights = map[graph.NodeKind]float64{}
			}
			weights[kind] = w
		}
	}
	tokens := make([]int32, total*length)
	lens := make([]int32, total)
	parallelFor(len(starts), cfg.Workers, func(si int) {
		node := starts[si]
		for k := 0; k < cfg.NumWalks; k++ {
			rng := newRand(uint64(cfg.Seed), uint64(node), uint64(k))
			wi := si*cfg.NumWalks + k
			slot := tokens[wi*length : (wi+1)*length]
			if weights == nil {
				lens[wi] = int32(walkInto(g, node, slot, rng))
			} else {
				lens[wi] = int32(weightedWalkInto(g, node, slot, weights, rng))
			}
		}
	})

	// Compact the fixed-size slots left into one dense token stream. On a
	// connected graph every walk fills its slot, making the offsets
	// uniform — detect that and skip the sweep; otherwise copy handles
	// the overlapping leftward moves.
	offsets := make([]int32, total+1)
	allFull := true
	for _, n := range lens {
		if int(n) != length {
			allFull = false
			break
		}
	}
	if allFull {
		for i := 1; i <= total; i++ {
			offsets[i] = int32(i * length)
		}
		return embed.Sequences{Tokens: tokens, Offsets: offsets}
	}
	w := 0
	for i := 0; i < total; i++ {
		n := int(lens[i])
		copy(tokens[w:w+n], tokens[i*length:i*length+n])
		w += n
		offsets[i+1] = int32(w)
	}
	if w < len(tokens)/2 {
		// Heavily truncated walks (many dead ends): re-slice into a
		// right-sized buffer instead of pinning the oversized slots
		// array through the whole training run.
		tokens = append([]int32(nil), tokens[:w]...)
	}
	return embed.Sequences{Tokens: tokens[:w], Offsets: offsets}
}

// walkInto fills buf with a uniform random walk from start and returns the
// number of tokens written (>= 1; less than len(buf) only at dead ends).
// On a frozen graph the step loop indexes the CSR arrays directly.
func walkInto(g *graph.Graph, start graph.NodeID, buf []int32, rng *splitRand) int {
	buf[0] = int32(start)
	n := 1
	cur := start
	if off, flat := g.CSR(); off != nil {
		for n < len(buf) {
			lo, hi := off[cur], off[cur+1]
			if lo == hi {
				break
			}
			cur = flat[int(lo)+rng.intn(int(hi-lo))]
			buf[n] = int32(cur)
			n++
		}
		return n
	}
	// Patched-frozen (or thawed) graph: step over the sealed row and the
	// patch-overlay tail without materializing a merged neighbor slice.
	// Indexing base-then-overlay matches the merged CSR layout, so the
	// same RNG stream picks the same neighbors before and after the
	// overlay is merged (mergeOverlay).
	for n < len(buf) {
		base, ov := g.NeighborParts(cur)
		d := len(base) + len(ov)
		if d == 0 {
			break
		}
		if i := rng.intn(d); i < len(base) {
			cur = base[i]
		} else {
			cur = ov[i-len(base)]
		}
		buf[n] = int32(cur)
		n++
	}
	return n
}

// weightedWalkInto fills buf with a walk stepping to neighbors with
// probability proportional to the weight of their node kind, returning
// the number of tokens written. When all neighbors carry zero weight the
// walk ends (a typed dead end).
func weightedWalkInto(g *graph.Graph, start graph.NodeID, buf []int32, weights map[graph.NodeKind]float64, rng *splitRand) int {
	weightOf := func(id graph.NodeID) float64 {
		if w, ok := weights[g.Kind(id)]; ok {
			return w
		}
		return 1
	}
	buf[0] = int32(start)
	n := 1
	cur := start
	for n < len(buf) {
		nbs := g.Neighbors(cur)
		if len(nbs) == 0 {
			break
		}
		var total float64
		for _, nb := range nbs {
			total += weightOf(nb)
		}
		if total <= 0 {
			break
		}
		// Quantized inverse-CDF sampling keeps the deterministic integer
		// RNG stream (one draw per step, like the uniform walk).
		r := float64(rng.intn(1<<20)) / float64(1<<20) * total
		next := nbs[len(nbs)-1]
		for _, nb := range nbs {
			r -= weightOf(nb)
			if r < 0 {
				next = nb
				break
			}
		}
		cur = next
		buf[n] = int32(cur)
		n++
	}
	return n
}

// splitRand is a splitmix64-seeded xorshift dedicated to one walk.
type splitRand struct{ state uint64 }

func newRand(seed, node, walk uint64) *splitRand {
	x := seed ^ (node * 0x9e3779b97f4a7c15) ^ (walk * 0xbf58476d1ce4e5b9)
	// splitmix64 finalizer to decorrelate nearby (node, walk) pairs.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return &splitRand{state: x}
}

// intn returns a uniform value in [0, n) via Lemire's multiply-shift
// range reduction — one widening multiply instead of the hardware divide
// a modulo costs, which dominated walk-generation profiles.
func (r *splitRand) intn(n int) int {
	x := r.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.state = x
	hi, _ := bits.Mul64(x, uint64(n))
	return int(hi)
}

// parallelFor runs fn(i) for i in [0,n) across workers goroutines; results
// are deterministic because fn only writes to disjoint slots.
func parallelFor(n, workers int, fn func(int)) {
	if workers > n && n > 0 {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			for i := worker; i < n; i += workers {
				fn(i)
			}
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}
