package tdmatch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/tdmatch/tdmatch/internal/match"
)

// Tests for the one rule SaveV6 writes sealed segments by: a clean
// segment goes out as the live serving index holds it (arena, HNSW
// graph), a segment with tombstones is rebuilt from the model's
// vectors, and the two can never be told apart in the bytes.

// reuseRows sizes the seeded corpus: large enough that an M 6 graph
// overflows its degree caps and re-selects, which the four-row shared
// fixture never does.
const reuseRows = 160

// reuseKinds is every index kind, tuned so the approximate one does
// real work at reuseRows.
var reuseKinds = []struct {
	name   string
	mutate func(*Config)
	// sha256 of the FNV twin (fnvTwin) of a fresh Build's SaveV6 output.
	// It was recorded from the plain output before sealed segments were
	// written from the live index and before section checksums became
	// CRC32C; neither change altered any other byte. Training is pure Go
	// float32 arithmetic, which other architectures' compilers may fuse
	// differently, so the pin holds on amd64.
	sha string
}{
	{"flat", func(c *Config) {}, "33efddeabe01047f49e6448360a1329042594146da72544ee1f96ac5d9f4a50d"},
	{"hnsw", func(c *Config) {
		c.Index = IndexHNSW
		c.HNSWM = 6
		c.HNSWEf = 16
		c.HNSWEfConstruct = 24
	}, "b9b6a1fb99377e349c2e7fc3888de7f38277ab524d365fa37cbddca2e3bf97c0"},
}

// reuseCorpora generates the seeded corpus pair: item i's row and
// report i's text share one unique entity token and three common terms.
func reuseCorpora(t testing.TB) (*Corpus, *Corpus) {
	t.Helper()
	rng := rand.New(rand.NewSource(16))
	word := func() string { return fmt.Sprintf("term%d", rng.Intn(60)) }
	rows := make([][]string, reuseRows)
	texts := make([]string, reuseRows)
	for i := range rows {
		w1, w2, w3 := word(), word(), word()
		rows[i] = []string{fmt.Sprintf("entity%d %s", i, w1), w2 + " " + w3}
		texts[i] = fmt.Sprintf("report on entity%d covering %s %s and %s", i, w1, w2, w3)
	}
	items, err := NewTable("items", []string{"name", "tags"}, rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := NewText("reports", texts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return items, reports
}

// reuseConfig is the cheap deterministic training the parity tests
// build with.
func reuseConfig(mutate func(*Config)) Config {
	cfg := Defaults()
	cfg.Seed = 16
	cfg.NumWalks = 3
	cfg.WalkLength = 8
	cfg.Epochs = 1
	cfg.Dim = 16
	cfg.Workers = 1
	mutate(&cfg)
	return cfg
}

func buildReuseModel(t testing.TB, cfg Config) *Model {
	t.Helper()
	items, reports := reuseCorpora(t)
	m, err := Build(items, reports, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// saveBothWays returns the model's v6 bytes written with live-segment
// reuse (what SaveV6 does) and with every sealed segment forced through
// the rebuild, plus the reuse run's stats.
func saveBothWays(t *testing.T, m *Model) (reused, rebuilt []byte, st SaveStats) {
	t.Helper()
	var a, b bytes.Buffer
	st, err := m.saveV6(&a, true)
	if err != nil {
		t.Fatal(err)
	}
	forced, err := m.saveV6(&b, false)
	if err != nil {
		t.Fatal(err)
	}
	if forced.SegmentsReused != 0 {
		t.Fatalf("forced rebuild reused %d segments", forced.SegmentsReused)
	}
	return a.Bytes(), b.Bytes(), st
}

// TestSaveV6ReuseMatchesRebuild: for every index kind, on a fresh Build,
// on a v6-loaded model serving borrowed sections, and on a multi-segment
// stack after ingests and seals, SaveV6 reuses every sealed segment and
// writes the bytes a full rebuild writes. After a Remove the tombstoned
// segment — and only it — takes the rebuild, the bytes still agree, and
// the reloaded model ranks like the live one.
func TestSaveV6ReuseMatchesRebuild(t *testing.T) {
	for _, kind := range reuseKinds {
		t.Run(kind.name, func(t *testing.T) {
			fresh := buildReuseModel(t, reuseConfig(kind.mutate))
			reused, rebuilt, st := saveBothWays(t, fresh)
			if !bytes.Equal(reused, rebuilt) {
				t.Fatal("fresh Build: reuse and rebuild write different snapshots")
			}
			if st.SegmentsReused != 2 || st.SegmentsRebuilt != 0 {
				t.Fatalf("fresh Build: reused %d, rebuilt %d segments, want 2 and 0", st.SegmentsReused, st.SegmentsRebuilt)
			}
			sum := sha256.Sum256(fnvTwin(t, reused))
			if got := hex.EncodeToString(sum[:]); got != kind.sha && runtime.GOARCH == "amd64" {
				t.Errorf("fresh Build snapshot's FNV twin sha256 = %s, recorded %s", got, kind.sha)
			}

			path := filepath.Join(t.TempDir(), "m.v6")
			if err := fresh.SaveFileV6(path); err != nil {
				t.Fatal(err)
			}
			items, reports := reuseCorpora(t)
			loaded, err := LoadModelFile(path, items, reports)
			if err != nil {
				t.Fatal(err)
			}
			lreused, lrebuilt, st := saveBothWays(t, loaded)
			if !bytes.Equal(lreused, reused) || !bytes.Equal(lrebuilt, reused) {
				t.Fatal("v6-loaded model: resave differs from the snapshot it was loaded from")
			}
			if st.SegmentsReused != 2 || st.SegmentsRebuilt != 0 {
				t.Fatalf("v6-loaded model: reused %d, rebuilt %d segments, want 2 and 0", st.SegmentsReused, st.SegmentsRebuilt)
			}

			// Two sealed deltas of three documents on each side, one more
			// document left in each mutable delta.
			cfg := reuseConfig(kind.mutate)
			cfg.SegmentMaxDocs = 3
			multi := buildReuseModel(t, cfg)
			for i := 0; i < 7; i++ {
				docs := []IngestDoc{
					{Side: 1, ID: fmt.Sprintf("items:new%d", i), Values: []string{fmt.Sprintf("entity%d term%d", 900+i, i), "term1 term2"}},
					{Side: 2, ID: fmt.Sprintf("reports:new%d", i), Values: []string{fmt.Sprintf("report on entity%d covering term%d term1 and term2", 900+i, i)}},
				}
				if err := multi.Ingest(docs); err != nil {
					t.Fatal(err)
				}
			}
			if fs, ss := multi.SegmentStats(); fs.Segments != 3 || ss.Segments != 3 || fs.DeltaDocs != 1 {
				t.Fatalf("ingests did not stack segments as planned: %+v / %+v", fs, ss)
			}
			mreused, mrebuilt, st := saveBothWays(t, multi)
			if !bytes.Equal(mreused, mrebuilt) {
				t.Fatal("multi-segment stack: reuse and rebuild write different snapshots")
			}
			if st.SegmentsReused != 6 || st.SegmentsRebuilt != 0 {
				t.Fatalf("multi-segment stack: reused %d, rebuilt %d segments, want 6 and 0", st.SegmentsReused, st.SegmentsRebuilt)
			}

			// On side 2, tombstone one base row and every row of the first
			// sealed delta: the base is rebuilt over its live rows, the emptied
			// delta is written as IDs only, everything else is still clean.
			if err := multi.Remove([]string{multi.second.IDs()[5], "reports:new0", "reports:new1", "reports:new2"}); err != nil {
				t.Fatal(err)
			}
			treused, trebuilt, st := saveBothWays(t, multi)
			if !bytes.Equal(treused, trebuilt) {
				t.Fatal("after Remove: reuse and rebuild write different snapshots")
			}
			if st.SegmentsReused != 4 || st.SegmentsRebuilt != 1 {
				t.Fatalf("after Remove: reused %d, rebuilt %d segments, want 4 and 1", st.SegmentsReused, st.SegmentsRebuilt)
			}
			snap, err := ReadSnapshot(bytes.NewReader(treused))
			if err != nil {
				t.Fatal(err)
			}
			items, reports = reuseCorpora(t)
			reloaded, err := snap.Bind(items, reports)
			if err != nil {
				t.Fatal(err)
			}
			// Flat scores every live row, so the rebuilt segments rank like
			// the live ones they replace. HNSW re-links over the live rows
			// only — a different structure, held to its own recall tests.
			if multi.cfg.Index == IndexFlat {
				if want := rankAllMatches(t, multi); !reflect.DeepEqual(rankAllMatches(t, reloaded), want) {
					t.Error("after Remove: the reloaded model ranks differently from the live one")
				}
			}
			// The load dropped the emptied delta, so side 2's second delta now
			// sits one ordinal lower than the one that seeded it: whatever the
			// writer decides about it, the bytes must not depend on the path.
			if rreused, rrebuilt, _ := saveBothWays(t, reloaded); !bytes.Equal(rreused, rrebuilt) {
				t.Error("renumbered stack: reuse and rebuild write different snapshots")
			}
			for _, id := range []string{"items:new0", "reports:new6"} {
				if _, err := reloaded.TopK(id, 3); err != nil {
					t.Errorf("after Remove: reloaded model cannot serve %s: %v", id, err)
				}
			}
		})
	}
	// Models bound from the frozen snapshots saved with a removed kind
	// serve as flat and re-save as flat: the very bytes a flat Build of
	// the same training writes (on amd64, like the sha256 pins).
	var flatBuf bytes.Buffer
	if err := persistFixtureModel(t).SaveV6(&flatBuf); err != nil {
		t.Fatal(err)
	}
	for _, kind := range removedIndexKinds {
		t.Run(kind, func(t *testing.T) {
			legacy := loadFrozenModel(t, "v6"+kind+".snap")
			reused, rebuilt, st := saveBothWays(t, legacy)
			if !bytes.Equal(reused, rebuilt) {
				t.Fatal("legacy model: reuse and rebuild write different snapshots")
			}
			if !bytes.Equal(reused, flatBuf.Bytes()) && runtime.GOARCH == "amd64" {
				t.Error("legacy model: re-saved bytes differ from a flat Build's")
			}
			if st.SegmentsReused != 2 || st.SegmentsRebuilt != 0 {
				t.Fatalf("legacy model: reused %d, rebuilt %d segments, want 2 and 0", st.SegmentsReused, st.SegmentsRebuilt)
			}
			snap, err := ReadSnapshot(bytes.NewReader(reused))
			if err != nil {
				t.Fatal(err)
			}
			if info := snap.Info(); info.Index != IndexFlat || info.LegacyIndex != "" {
				t.Errorf("re-saved info = index %v, legacy %q; want flat, none", info.Index, info.LegacyIndex)
			}
			movies, reviews := fixtureCorpora(t)
			reloaded, err := snap.Bind(movies, reviews)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rankAllMatches(t, reloaded), rankAllMatches(t, legacy)) {
				t.Error("the re-saved legacy model ranks differently from the legacy one")
			}
			if again, _, _ := saveBothWays(t, reloaded); !bytes.Equal(again, reused) {
				t.Error("re-saving the re-saved legacy model changed its bytes")
			}

			// Tombstone one row on side 2: that segment alone takes the rebuild.
			if err := legacy.Remove([]string{legacy.second.IDs()[0]}); err != nil {
				t.Fatal(err)
			}
			treused, trebuilt, st := saveBothWays(t, legacy)
			if !bytes.Equal(treused, trebuilt) {
				t.Fatal("after Remove: reuse and rebuild write different snapshots")
			}
			if st.SegmentsReused != 1 || st.SegmentsRebuilt != 1 {
				t.Fatalf("after Remove: reused %d, rebuilt %d segments, want 1 and 1", st.SegmentsReused, st.SegmentsRebuilt)
			}
			if snap, err = ReadSnapshot(bytes.NewReader(treused)); err != nil {
				t.Fatal(err)
			}
			movies, reviews = fixtureCorpora(t)
			if reloaded, err = snap.Bind(movies, reviews); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rankAllMatches(t, reloaded), rankAllMatches(t, legacy)) {
				t.Error("after Remove: the reloaded model ranks differently from the live one")
			}
		})
	}
}

// TestBuildSidesConcurrently: the index phase builds the two sides as
// two pool tasks. Over one trained vector set, Workers 1 (sequential)
// and Workers 2 (concurrent; run under -race in CI) must assemble
// serving indexes with equal fingerprints and equal SaveV6 bytes, for
// every index kind, and fill both sides' IndexBuildTime. The "ivf" and
// "sq8" cases rebuild a model bound from the frozen snapshot saved with
// that removed kind: its sides build as flat.
func TestBuildSidesConcurrently(t *testing.T) {
	for _, kind := range reuseKinds {
		t.Run(kind.name, func(t *testing.T) {
			checkSidesBuildConcurrently(t, buildReuseModel(t, reuseConfig(kind.mutate)))
		})
	}
	for _, kind := range removedIndexKinds {
		t.Run(kind, func(t *testing.T) {
			checkSidesBuildConcurrently(t, loadFrozenModel(t, "v6"+kind+".snap"))
		})
	}
}

// checkSidesBuildConcurrently rebuilds trained's serving indexes with
// Workers 1 and 2 and requires the two builds to agree.
func checkSidesBuildConcurrently(t *testing.T, trained *Model) {
	t.Helper()
	var prints [2][2]uint64
	var snaps [2][]byte
	for i, workers := range []int{1, 2} {
		m := &Model{cfg: trained.cfg, first: trained.first, second: trained.second,
			dim: trained.dim, vectors: trained.vectors, fold: trained.fold}
		m.cfg.Workers = workers
		if err := m.buildIndexes(); err != nil {
			t.Fatal(err)
		}
		prints[i] = [2]uint64{m.firstIdx.Fingerprint(), m.secondIdx.Fingerprint()}
		var buf bytes.Buffer
		if err := m.SaveV6(&buf); err != nil {
			t.Fatal(err)
		}
		snaps[i] = buf.Bytes()
		if st := m.Stats(); st.IndexBuildTime[0] <= 0 || st.IndexBuildTime[1] <= 0 {
			t.Errorf("Workers %d: IndexBuildTime = %v, want both sides timed", workers, st.IndexBuildTime)
		}
		base := m.secondIdx.Base()
		switch trained.cfg.Index {
		case IndexFlat:
			if _, ok := base.(*match.Index); !ok {
				t.Fatalf("Workers %d: side 2 base is %T, want *match.Index", workers, base)
			}
		case IndexHNSW:
			if _, ok := base.(*match.HNSW); !ok {
				t.Fatalf("Workers %d: side 2 base is %T, want *match.HNSW", workers, base)
			}
		}
	}
	if prints[0] != prints[1] {
		t.Errorf("fingerprints differ: Workers 1 %x, Workers 2 %x", prints[0], prints[1])
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Error("SaveV6 bytes differ between Workers 1 and Workers 2")
	}
}

// TestCommittedV6SnapshotsResaveByteIdentical: the committed version-6
// fixtures, written before sealed segments were saved from the live
// index and before section checksums became CRC32C, load and re-save —
// every section of them through the reuse path — to a file whose FNV
// twin is the very bytes on disk: only checksum bytes differ.
func TestCommittedV6SnapshotsResaveByteIdentical(t *testing.T) {
	for _, file := range []string{"v6.snap", "v6hnsw.snap"} {
		want, err := os.ReadFile(filepath.Join(persistFixtureDir, file))
		if err != nil {
			t.Fatalf("committed fixture missing (regenerate with -write-persist-fixtures): %v", err)
		}
		movies, reviews := fixtureCorpora(t)
		loaded, err := LoadModelFile(filepath.Join(persistFixtureDir, file), movies, reviews)
		if err != nil {
			t.Fatal(err)
		}
		reused, rebuilt, st := saveBothWays(t, loaded)
		if !bytes.Equal(fnvTwin(t, reused), want) || !bytes.Equal(rebuilt, reused) {
			t.Errorf("%s: re-saving the loaded fixture changed more than its checksums", file)
		}
		if st.SegmentsReused != 2 || st.SegmentsRebuilt != 0 {
			t.Errorf("%s: reused %d, rebuilt %d segments, want 2 and 0", file, st.SegmentsReused, st.SegmentsRebuilt)
		}
	}
}
