package tdmatch

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// stormOp is one acknowledged mutation of the crash-replay storms:
// either an ingest of docs or a removal of ids.
type stormOp struct {
	docs []IngestDoc
	ids  []string
}

func (op stormOp) apply(ingest func([]IngestDoc) error, remove func([]string) error) error {
	if op.docs != nil {
		return ingest(op.docs)
	}
	return remove(op.ids)
}

// recoveryStorm generates a deterministic mutation sequence: mostly
// single-doc text-side ingests, with occasional removals of an earlier
// ingested document. Every op is valid when applied in order.
func recoveryStorm(rng *rand.Rand, n int) []stormOp {
	ops := make([]stormOp, 0, n)
	var live []string
	next := 0
	for len(ops) < n {
		if len(live) > 2 && rng.Intn(4) == 0 {
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			ops = append(ops, stormOp{ids: []string{id}})
			continue
		}
		id := fmt.Sprintf("reviews:storm%d", next)
		next++
		live = append(live, id)
		ops = append(ops, stormOp{docs: []IngestDoc{{
			Side:   2,
			ID:     id,
			Values: []string{fmt.Sprintf("storm review %d about a %s film by %s", next, []string{"crime", "horror", "thriller", "comedy"}[rng.Intn(4)], []string{"Coppola", "Tarantino", "Scott", "Shyamalan"}[rng.Intn(4)])},
		}}})
	}
	return ops
}

// recoveryFixture builds a small model once and saves its snapshot,
// returning the snapshot path and a loader that binds a fresh copy
// (fresh corpora each time, so replay mutations never alias).
func recoveryFixture(t *testing.T) (snapPath string, load func(t *testing.T) *Model) {
	t.Helper()
	cfg := Defaults()
	cfg.Seed = 7
	cfg.NumWalks = 6
	cfg.WalkLength = 10
	cfg.Dim = 24
	cfg.Epochs = 1
	cfg.Workers = 1
	movies, reviews := fixtureCorpora(t)
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapPath = filepath.Join(t.TempDir(), "model.tdm")
	if err := model.SaveFileV6(snapPath); err != nil {
		t.Fatal(err)
	}
	load = func(t *testing.T) *Model {
		t.Helper()
		mv, rv := fixtureCorpora(t)
		m, err := LoadModelFile(snapPath, mv, rv)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return snapPath, load
}

// rankings captures the full serving state of a model as seen through
// its query API: the sorted doc-ID universe plus every document's
// top-k matches (scores included). Two models with equal rankings are
// indistinguishable to clients.
func rankings(t *testing.T, m *Model, k int) map[string][]Match {
	t.Helper()
	ids := make([]string, 0, len(m.Vectors()))
	for id := range m.Vectors() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make(map[string][]Match, len(ids))
	for _, id := range ids {
		ms, err := m.TopK(id, k)
		if err != nil {
			t.Fatalf("topk %q: %v", id, err)
		}
		out[id] = ms
	}
	return out
}

// replayCut copies the first cut bytes of walPath into a fresh file
// (the exact on-disk state an append-only, always-fsynced log has
// after a crash at that offset), then runs the recovery path a
// restarting daemon runs: load snapshot, open WAL, replay.
func replayCut(t *testing.T, walPath string, cut int64, load func(*testing.T) *Model) (*Model, *WAL) {
	t.Helper()
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if cut > int64(len(data)) {
		t.Fatalf("cut %d beyond log size %d", cut, len(data))
	}
	cutPath := filepath.Join(t.TempDir(), "cut.wal")
	if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	m := load(t)
	w, err := OpenWAL(cutPath, WALOptions{Sync: "always"})
	if err != nil {
		t.Fatalf("cut %d: open: %v", cut, err)
	}
	if _, err := w.Replay(m); err != nil {
		w.Close()
		t.Fatalf("cut %d: replay: %v", cut, err)
	}
	return m, w
}

// TestCrashReplayPropertyAckedPrefix is the crash-replay property
// test: run an ingest/remove storm through a WAL-attached Server
// under the "always" policy, record the log size after every
// acknowledged op, then simulate a crash at every frame boundary and
// at seeded interior offsets. For each crash point, replaying the
// surviving log against the snapshot must reproduce — bit-identically,
// as observed through TopK — a reference model that applied exactly
// the acknowledged prefix and nothing else.
func TestCrashReplayPropertyAckedPrefix(t *testing.T) {
	snapPath, load := recoveryFixture(t)
	_ = snapPath
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	w, err := OpenWAL(walPath, WALOptions{Sync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(load(t), ServeConfig{Workers: 1, WAL: w})

	rng := rand.New(rand.NewSource(0x7da1))
	ops := recoveryStorm(rng, 18)
	// boundaries[k] is the log size once exactly k ops are acked.
	boundaries := []int64{w.Stats().SizeBytes}
	for i, op := range ops {
		if err := op.apply(srv.Ingest, srv.Remove); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		boundaries = append(boundaries, w.Stats().SizeBytes)
	}
	srv.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash points: every frame boundary (including the bare header and
	// a partial header), plus one seeded interior offset per frame —
	// a torn tail that must recover to the preceding boundary.
	cuts := map[int64]int{0: 0, 3: 0}
	for k, b := range boundaries {
		cuts[b] = k
		if k > 0 {
			prev := boundaries[k-1]
			if b-prev > 1 {
				cuts[prev+1+rng.Int63n(b-prev-1)] = k - 1
			}
		}
	}

	// The reference model advances through the acked ops in lockstep
	// with ascending cut offsets: at cut c it has applied exactly the
	// ops whose frame completed at or before c.
	ref := load(t)
	applied := 0
	ordered := make([]int64, 0, len(cuts))
	for c := range cuts {
		ordered = append(ordered, c)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, cut := range ordered {
		want := cuts[cut]
		for applied < want {
			if err := ops[applied].apply(ref.Ingest, ref.Remove); err != nil {
				t.Fatal(err)
			}
			applied++
		}
		m, cutWAL := replayCut(t, walPath, cut, load)
		if got := cutWAL.Stats().RecoveredRecords; got != want {
			cutWAL.Close()
			t.Fatalf("cut %d: recovered %d records, want the acked prefix %d", cut, got, want)
		}
		gotR := rankings(t, m, 3)
		wantR := rankings(t, ref, 3)
		if !reflect.DeepEqual(gotR, wantR) {
			cutWAL.Close()
			t.Fatalf("cut %d (acked prefix %d): replayed state diverges from reference\n got: %v\nwant: %v", cut, want, gotR, wantR)
		}
		// The repaired log must accept new writes where the prefix ended.
		if seq, err := cutWAL.appendRemove([]string{"post-crash"}); err != nil {
			cutWAL.Close()
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		} else if seq != uint64(want)+1 {
			cutWAL.Close()
			t.Fatalf("cut %d: post-recovery seq = %d, want %d", cut, seq, want+1)
		}
		cutWAL.Close()
	}
}

// TestCrashReplayAcrossCheckpoint crashes after a mid-storm
// Server.Checkpoint: the snapshot saved by the checkpoint plus the
// rotated log's surviving records must reconstruct exactly the acked
// state at every post-checkpoint frame boundary.
func TestCrashReplayAcrossCheckpoint(t *testing.T) {
	_, load := recoveryFixture(t)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ingest.wal")
	ckptSnap := filepath.Join(dir, "ckpt.tdm")
	w, err := OpenWAL(walPath, WALOptions{Sync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(load(t), ServeConfig{Workers: 1, WAL: w})

	rng := rand.New(rand.NewSource(0xc4e1))
	ops := recoveryStorm(rng, 16)
	for _, op := range ops[:8] {
		if err := op.apply(srv.Ingest, srv.Remove); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Checkpoint(func(m *Model) error { return m.SaveFileV6(ckptSnap) }); err != nil {
		t.Fatal(err)
	}
	boundaries := []int64{w.Stats().SizeBytes}
	for _, op := range ops[8:] {
		if err := op.apply(srv.Ingest, srv.Remove); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, w.Stats().SizeBytes)
	}
	srv.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	loadCkpt := func(t *testing.T) *Model {
		t.Helper()
		mv, rv := fixtureCorpora(t)
		m, err := LoadModelFile(ckptSnap, mv, rv)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := loadCkpt(t)
	for k, cut := range boundaries {
		if k > 0 {
			if err := ops[8+k-1].apply(ref.Ingest, ref.Remove); err != nil {
				t.Fatal(err)
			}
		}
		m, cutWAL := replayCut(t, walPath, cut, loadCkpt)
		if got := cutWAL.Stats().RecoveredRecords; got != k {
			cutWAL.Close()
			t.Fatalf("cut %d: recovered %d records, want %d", cut, got, k)
		}
		if !reflect.DeepEqual(rankings(t, m, 3), rankings(t, ref, 3)) {
			cutWAL.Close()
			t.Fatalf("boundary %d: replay from checkpoint snapshot diverges from reference", k)
		}
		cutWAL.Close()
	}
}

// TestReplayIdempotentAgainstNewerSnapshot covers the crash window
// between a snapshot save and the log rotation: the snapshot already
// contains every logged op, and replaying the un-rotated log against
// it must skip the duplicates and converge to the same state.
func TestReplayIdempotentAgainstNewerSnapshot(t *testing.T) {
	_, load := recoveryFixture(t)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ingest.wal")
	w, err := OpenWAL(walPath, WALOptions{Sync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(load(t), ServeConfig{Workers: 1, WAL: w})
	rng := rand.New(rand.NewSource(0x1de9))
	for i, op := range recoveryStorm(rng, 10) {
		if err := op.apply(srv.Ingest, srv.Remove); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Snapshot saved, crash before Checkpoint rotated the log.
	snap2 := filepath.Join(dir, "newer.tdm")
	if err := srv.Model().SaveFileV6(snap2); err != nil {
		t.Fatal(err)
	}
	want := rankings(t, srv.Model(), 3)
	srv.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	mv, rv := fixtureCorpora(t)
	m, err := LoadModelFile(snap2, mv, rv)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(walPath, WALOptions{Sync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	// Ingest records whose doc survives in the snapshot are recognized
	// as duplicates and skipped; ingest/remove pairs that cancelled out
	// before the save re-apply harmlessly. Either way the replay must
	// converge on the snapshot's state.
	if _, err := w2.Replay(m); err != nil {
		t.Fatalf("replay against newer snapshot: %v", err)
	}
	if !reflect.DeepEqual(rankings(t, m, 3), want) {
		t.Fatal("idempotent replay diverged from the snapshot state")
	}
}
