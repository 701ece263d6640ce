package match

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/tdmatch/tdmatch/internal/embed"
)

// Property suite for the segmented stack: randomized, seeded, shrinkable
// interleavings of Append/Remove/Seal/Compact must leave TopK/TopKBatch
// bit-identical to a from-scratch monolithic flat index over the same
// live documents, for both segment kinds under exact parameters (flat,
// full-beam HNSW).

const segPropDim = 8

// segOpKind enumerates the mutation steps an interleaving is built from.
type segOpKind int

const (
	opAppend segOpKind = iota
	opRemove
	opSeal
	opCompact
)

func (k segOpKind) String() string {
	return [...]string{"append", "remove", "seal", "compact"}[k]
}

// segOp is one step of a generated interleaving. Appends carry vectors;
// removes carry IDs. The semantics are operational — an append of an
// already-live ID or a remove of an absent one degrades to a no-op on
// that ID — so every subsequence of a valid sequence is itself valid,
// which is what makes delta-debugging shrinks sound.
type segOp struct {
	kind  segOpKind
	ids   []string
	arena []float32
}

func (o segOp) String() string {
	switch o.kind {
	case opAppend, opRemove:
		return fmt.Sprintf("%s(%s)", o.kind, strings.Join(o.ids, ","))
	default:
		return o.kind.String()
	}
}

// segPropConfig is one cell of the kind test matrix.
type segPropConfig struct {
	name     string
	kind     string // "flat", "hnsw"
	maxDelta int    // auto-seal threshold handed to NewSegmented
}

// sealFuncFor builds the SealFunc for a matrix cell: the kind wrap with
// a deterministic per-ordinal seed. Both kinds are exact under
// these parameters, so bit-identity to the monolithic flat scan is the
// contract, not an approximation.
func sealFuncFor(cfg segPropConfig) SealFunc {
	return func(flat *Index, ordinal int) VectorIndex {
		if cfg.kind == "hnsw" {
			// A beam wider than any segment delegates to the exact scan.
			return NewHNSW(flat, HNSWOptions{M: 4, EfConstruct: 16, Ef: 1 << 20, Seed: 11 + int64(ordinal)})
		}
		return flat
	}
}

// genOps generates one seeded interleaving: nOps mutation steps over a
// growing ID space, with removals drawn from live documents and
// re-appends drawn from previously removed ones.
func genOps(rng *rand.Rand, nOps int) []segOp {
	var ops []segOp
	next := 0
	live := map[string][]float32{}
	var removed []string
	freshVec := func() []float32 {
		v := make([]float32, segPropDim)
		for i := range v {
			v[i] = rng.Float32()*2 - 1
		}
		return v
	}
	liveIDs := func() []string {
		ids := make([]string, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return ids
	}
	for len(ops) < nOps {
		switch p := rng.Intn(100); {
		case p < 45: // append 1..5 docs, occasionally re-appending a removed ID
			n := 1 + rng.Intn(5)
			op := segOp{kind: opAppend}
			for i := 0; i < n; i++ {
				var id string
				if len(removed) > 0 && rng.Intn(4) == 0 {
					id = removed[rng.Intn(len(removed))]
				} else {
					id = fmt.Sprintf("d%03d", next)
					next++
				}
				if _, ok := live[id]; ok {
					continue
				}
				v := freshVec()
				live[id] = v
				op.ids = append(op.ids, id)
				op.arena = append(op.arena, v...)
			}
			if len(op.ids) > 0 {
				ops = append(ops, op)
			}
		case p < 70: // remove 1..3 live docs
			ids := liveIDs()
			if len(ids) == 0 {
				continue
			}
			n := 1 + rng.Intn(3)
			op := segOp{kind: opRemove}
			for i := 0; i < n && len(ids) > 0; i++ {
				j := rng.Intn(len(ids))
				op.ids = append(op.ids, ids[j])
				delete(live, ids[j])
				removed = append(removed, ids[j])
				ids = append(ids[:j], ids[j+1:]...)
			}
			ops = append(ops, op)
		case p < 85:
			ops = append(ops, segOp{kind: opSeal})
		default:
			ops = append(ops, segOp{kind: opCompact})
		}
	}
	return ops
}

// runSeq replays ops against a fresh stack and an oracle map, checking
// segmented TopKBatch against a from-scratch monolithic flat index after
// every step. Returns the first divergence (step index and detail), or
// nil when the whole interleaving holds.
func runSeq(cfg segPropConfig, ops []segOp, queries [][]float32, k int) error {
	seg, err := NewSegmented(nil, segPropDim, sealFuncFor(cfg), cfg.maxDelta)
	if err != nil {
		return err
	}
	oracle := map[string][]float32{}
	for step, op := range ops {
		switch op.kind {
		case opAppend:
			var ids []string
			var arena []float32
			for i, id := range op.ids {
				if _, ok := oracle[id]; ok {
					continue // live already: operational no-op (shrink artifact)
				}
				ids = append(ids, id)
				arena = append(arena, op.arena[i*segPropDim:(i+1)*segPropDim]...)
				oracle[id] = op.arena[i*segPropDim : (i+1)*segPropDim]
			}
			if len(ids) == 0 {
				continue
			}
			if err := seg.Append(ids, arena); err != nil {
				return fmt.Errorf("step %d %s: %v", step, op, err)
			}
		case opRemove:
			want := 0
			for _, id := range op.ids {
				if _, ok := oracle[id]; ok {
					delete(oracle, id)
					want++
				}
			}
			if got := seg.Remove(op.ids); got != want {
				return fmt.Errorf("step %d %s: removed %d docs, oracle says %d", step, op, got, want)
			}
		case opSeal:
			if err := seg.Seal(); err != nil {
				return fmt.Errorf("step %d %s: %v", step, op, err)
			}
		case opCompact:
			if err := seg.Compact(); err != nil {
				return fmt.Errorf("step %d %s: %v", step, op, err)
			}
		}
		if err := checkParity(seg, oracle, queries, k); err != nil {
			return fmt.Errorf("step %d %s: %v", step, op, err)
		}
	}
	return nil
}

// checkParity compares the stack's rankings and live-document accounting
// against a monolithic flat index rebuilt from scratch over the oracle.
func checkParity(seg *Segmented, oracle map[string][]float32, queries [][]float32, k int) error {
	if seg.Len() != len(oracle) {
		return fmt.Errorf("Len = %d, oracle has %d live docs", seg.Len(), len(oracle))
	}
	if rows := len(seg.IDs()); seg.Rows() != rows {
		return fmt.Errorf("Rows = %d, IDs lists %d resident rows", seg.Rows(), rows)
	}
	ids := make([]string, 0, len(oracle))
	for id := range oracle {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	arena := make([]float32, 0, len(ids)*segPropDim)
	for _, id := range ids {
		if !seg.Has(id) {
			return fmt.Errorf("live doc %s not found by Has", id)
		}
		arena = append(arena, oracle[id]...)
	}
	flat, err := NewIndexArena(ids, arena, segPropDim)
	if err != nil {
		return err
	}
	want := referenceTopK(flat, queries, k)
	for name, got := range map[string][][]Scored{
		"monolithic flat": flat.TopKBatch(queries, k),
		"segmented":       seg.TopKBatch(queries, k),
	} {
		for qi := range queries {
			if len(got[qi]) != len(want[qi]) {
				return fmt.Errorf("%s query %d: %d results, want %d", name, qi, len(got[qi]), len(want[qi]))
			}
			for i := range got[qi] {
				if got[qi][i] != want[qi][i] {
					return fmt.Errorf("%s query %d rank %d: got %v, want %v (bit-identity violated)",
						name, qi, i, got[qi][i], want[qi][i])
				}
			}
		}
	}
	// Single-query path shares the merge but not the call site.
	if len(queries) > 0 {
		one := seg.TopK(queries[0], k)
		for i := range one {
			if one[i] != want[0][i] {
				return fmt.Errorf("TopK rank %d: got %v, want %v", i, one[i], want[0][i])
			}
		}
	}
	return nil
}

// referenceTopK ranks the live rows of flat against each query by
// scoring every row with dotOne (the scans' kernel, so the scores are
// bit-identical) and sorting all of them with sort.Slice under (score
// desc, ID asc): a reference that shares no selection, pass-through or
// merge code with the paths it checks.
func referenceTopK(flat *Index, queries [][]float32, k int) [][]Scored {
	out := make([][]Scored, len(queries))
	for qi, q := range queries {
		qn := append([]float32(nil), q...)
		embed.Normalize(qn)
		var all []Scored
		for r, id := range flat.ids {
			if !flat.isDead(r) {
				all = append(all, Scored{ID: id, Score: float64(dotOne(flat.row(r), qn))})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Score != all[j].Score {
				return all[i].Score > all[j].Score
			}
			return all[i].ID < all[j].ID
		})
		out[qi] = all[:min(k, len(all))]
	}
	return out
}

// stackOps generates a stack of 1–4 sealed segments plus a delta for
// the property suite: every row's vector is drawn from a pool of a few
// vectors, so equal scores tie exactly across segments, under IDs
// shuffled so that tie order is not segment order; then removals put
// tombstones in the overlay (sealed rows) and in the delta itself.
func stackOps(rng *rand.Rand) []segOp {
	pool := make([][]float32, 2+rng.Intn(4))
	for i := range pool {
		pool[i] = make([]float32, segPropDim)
		for j := range pool[i] {
			pool[i][j] = rng.Float32()*2 - 1
		}
	}
	nSealed := 1 + rng.Intn(4)
	sizes := make([]int, nSealed+1) // the last entry is the delta
	total := 0
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(6)
		if i == nSealed {
			sizes[i] = rng.Intn(5)
		}
		total += sizes[i]
	}
	ids := make([]string, total)
	for i, p := range rng.Perm(total) {
		ids[i] = fmt.Sprintf("d%03d", p)
	}
	var ops []segOp
	at := 0
	for i, n := range sizes {
		op := segOp{kind: opAppend, ids: ids[at : at+n]}
		for range op.ids {
			op.arena = append(op.arena, pool[rng.Intn(len(pool))]...)
		}
		at += n
		if n > 0 {
			ops = append(ops, op)
		}
		if i < nSealed {
			ops = append(ops, segOp{kind: opSeal})
		}
	}
	var removed []string
	for _, id := range ids {
		if rng.Intn(4) == 0 {
			removed = append(removed, id)
		}
	}
	if len(removed) > 0 {
		ops = append(ops, segOp{kind: opRemove, ids: removed})
	}
	return ops
}

// shrinkSeq greedily minimizes a failing interleaving: repeatedly drop
// one op at a time (scanning back to front) while the failure persists.
// Operational op semantics keep every subsequence valid.
func shrinkSeq(cfg segPropConfig, ops []segOp, queries [][]float32, k int) []segOp {
	shrunk := true
	for shrunk {
		shrunk = false
		for i := len(ops) - 1; i >= 0; i-- {
			cand := make([]segOp, 0, len(ops)-1)
			cand = append(cand, ops[:i]...)
			cand = append(cand, ops[i+1:]...)
			if runSeq(cfg, cand, queries, k) != nil {
				ops = cand
				shrunk = true
			}
		}
	}
	return ops
}

// TestSegmentedPropertyParity runs >= 200 seeded interleavings across
// the kind matrix, then 200 explicit segment stacks, each ranking
// compared bit for bit with a sort.Slice reference (referenceTopK). On failure it reports the shrunk minimal op sequence
// together with the seed that regenerates it.
func TestSegmentedPropertyParity(t *testing.T) {
	kinds := []string{"flat", "hnsw"}
	const itersPerCell = 108 // 2 kinds × 108 = 216 interleavings
	total := 0
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			for iter := 0; iter < itersPerCell; iter++ {
				seed := int64(iter)*9973 + int64(len(kind))*131 + 1
				rng := rand.New(rand.NewSource(seed))
				cfg := segPropConfig{name: kind, kind: kind}
				if rng.Intn(2) == 0 {
					cfg.maxDelta = 3 + rng.Intn(5) // exercise auto-seal on roughly half the runs
				}
				ops := genOps(rng, 8+rng.Intn(9))
				queries := make([][]float32, 3)
				for qi := range queries {
					q := make([]float32, segPropDim)
					for j := range q {
						q[j] = rng.Float32()*2 - 1
					}
					queries[qi] = q
				}
				k := 1 + rng.Intn(10)
				if err := runSeq(cfg, ops, queries, k); err != nil {
					min := shrinkSeq(cfg, ops, queries, k)
					minErr := runSeq(cfg, min, queries, k)
					t.Fatalf("seed %d (maxDelta=%d, k=%d): %v\nshrunk to %d ops: %v\nshrunk failure: %v",
						seed, cfg.maxDelta, k, err, len(min), min, minErr)
				}
				total++
			}
		})
	}
	// Explicit stacks: 1–4 sealed segments plus a delta, tombstones in
	// the overlay and the delta, exact score ties across segments. A lone
	// segment exercises the pass-through, several the k-way merge.
	for _, kind := range kinds {
		t.Run(kind+"/stacks", func(t *testing.T) {
			for iter := 0; iter < 100; iter++ {
				seed := int64(iter)*7919 + int64(len(kind))*17 + 5
				rng := rand.New(rand.NewSource(seed))
				cfg := segPropConfig{name: kind, kind: kind}
				ops := stackOps(rng)
				queries := make([][]float32, 4)
				for qi := range queries {
					queries[qi] = make([]float32, segPropDim)
					for j := range queries[qi] {
						queries[qi][j] = rng.Float32()*2 - 1
					}
				}
				k := 1 + rng.Intn(12)
				if err := runSeq(cfg, ops, queries, k); err != nil {
					t.Fatalf("seed %d (k=%d): %v\nops: %v", seed, k, err, ops)
				}
				total++
			}
		})
	}
	if !t.Failed() && total < 400 {
		t.Fatalf("only %d interleavings and stacks ran, want >= 400", total)
	}
}

// TestSegmentedCloneIsolation pins the clone contract the serving layer
// depends on: a clone shares sealed segments but owns its delta and
// tombstones, so mutating the clone never changes the parent's results.
func TestSegmentedCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := segPropConfig{kind: "flat"}
	seg, err := NewSegmented(nil, segPropDim, sealFuncFor(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 12)
	arena := make([]float32, 0, len(ids)*segPropDim)
	oracle := map[string][]float32{}
	for i := range ids {
		ids[i] = fmt.Sprintf("d%03d", i)
		v := make([]float32, segPropDim)
		for j := range v {
			v[j] = rng.Float32()*2 - 1
		}
		arena = append(arena, v...)
		oracle[ids[i]] = v
	}
	if err := seg.Append(ids, arena); err != nil {
		t.Fatal(err)
	}
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}
	query := [][]float32{arena[:segPropDim]}

	clone := seg.Clone()
	if clone.Remove([]string{"d003", "d007"}) != 2 {
		t.Fatal("clone remove failed")
	}
	extra := make([]float32, segPropDim)
	extra[0] = 1
	if err := clone.Append([]string{"zz"}, extra); err != nil {
		t.Fatal(err)
	}

	// Parent still serves the original 12 docs, bit-identical to flat.
	if err := checkParity(seg, oracle, query, 5); err != nil {
		t.Fatalf("parent diverged after clone mutation: %v", err)
	}
	// Clone serves the mutated set.
	delete(oracle, "d003")
	delete(oracle, "d007")
	oracle["zz"] = extra
	if err := checkParity(clone, oracle, query, 5); err != nil {
		t.Fatalf("clone diverged: %v", err)
	}
	if seg.Fingerprint() == clone.Fingerprint() {
		t.Error("mutated clone must not share the parent's fingerprint")
	}
}

// TestSegmentedManifestRoundTrip pins SegmentManifest: concatenated
// entries enumerate exactly the live documents, per segment, delta last.
func TestSegmentedManifestRoundTrip(t *testing.T) {
	cfg := segPropConfig{kind: "flat"}
	seg, err := NewSegmented(nil, segPropDim, sealFuncFor(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	add := func(ids ...string) {
		arena := make([]float32, len(ids)*segPropDim)
		for i := range arena {
			arena[i] = float32(i%7) - 3
		}
		if err := seg.Append(ids, arena); err != nil {
			t.Fatal(err)
		}
	}
	add("a", "b", "c")
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}
	add("d", "e")
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}
	add("f")
	seg.Remove([]string{"b", "e"}) // one overlay tombstone per sealed segment

	manifest := seg.SegmentManifest()
	want := [][]string{{"a", "c"}, {"d"}, {"f"}}
	if len(manifest) != len(want) {
		t.Fatalf("manifest has %d entries, want %d: %v", len(manifest), len(want), manifest)
	}
	for i := range want {
		if strings.Join(manifest[i], ",") != strings.Join(want[i], ",") {
			t.Errorf("segment %d manifest = %v, want %v", i, manifest[i], want[i])
		}
	}
}
