package tdmatch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/tdmatch/tdmatch/internal/match"
)

// v6TestConfigs enumerates the serving configurations the v6 format must
// round-trip bit-identically: every index kind, plus multi-segment
// stacks with tombstones and a live delta.
var v6TestConfigs = []struct {
	name      string
	mutate    func(*Config)
	segmented bool
}{
	{"flat", func(c *Config) {}, false},
	{"hnsw", func(c *Config) {
		c.Index = IndexHNSW
		c.HNSWM = 4
		c.HNSWEf = 8
		c.HNSWEfConstruct = 16
	}, false},
	{"segmented", func(c *Config) {}, true},
	{"segmented-hnsw", func(c *Config) {
		c.Index = IndexHNSW
		c.HNSWM = 4
		c.HNSWEf = 8
		c.HNSWEfConstruct = 16
	}, true},
}

// buildV6TestModel trains a deterministic model (Workers 1) under one of
// the v6TestConfigs; segmented variants are grown by ingestSegments.
func buildV6TestModel(t *testing.T, mutate func(*Config), segmented bool) *Model {
	t.Helper()
	movies, reviews := fixtureCorpora(t)
	cfg := smallConfig()
	cfg.Workers = 1
	mutate(&cfg)
	if segmented {
		cfg.SegmentMaxDocs = 1
	}
	model, err := Build(movies, reviews, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if segmented {
		ingestSegments(t, model)
	}
	return model
}

// ingestSegments piles up sealed segments on side 2 with three
// single-doc ingests, each sealed (by the auto-seal threshold when the
// model's is 1, explicitly otherwise), and tombstones a sealed row, like
// the v5segments fixture.
func ingestSegments(t *testing.T, model *Model) {
	t.Helper()
	for i, text := range []string{
		"Brando leads a mafia family epic",
		"Coppola directs a crime dynasty",
		"Pacino inherits the family business",
	} {
		if err := model.Ingest([]IngestDoc{
			{Side: 2, ID: fmt.Sprintf("reviews:seg%d", i), Values: []string{text}},
		}); err != nil {
			t.Fatal(err)
		}
		if model.secondIdx.DeltaLen() > 0 {
			if err := model.secondIdx.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := model.Remove([]string{"reviews:seg1"}); err != nil {
		t.Fatal(err)
	}
}

// rankAllMatches runs TopK over every servable document on both sides
// and returns the full results, scores included, for bit-identity
// comparisons.
func rankAllMatches(t *testing.T, m *Model) map[string][]Match {
	t.Helper()
	out := map[string][]Match{}
	for _, q := range append(m.first.IDs(), m.second.IDs()...) {
		if m.Vector(q) == nil {
			continue
		}
		matches, err := m.TopK(q, 3)
		if err != nil {
			t.Fatalf("TopK(%s): %v", q, err)
		}
		out[q] = matches
	}
	if len(out) == 0 {
		t.Fatal("no servable queries")
	}
	return out
}

// TestSaveV6BitIdenticalToGob is the format-parity pin: for every index
// kind (flat, HNSW) and for multi-segment stacks, a model loaded from a
// v6 snapshot — through both the zero-copy mmap path and the streamed
// heap path — must serve TopK rankings bit-identical (IDs and scores),
// from the same segment stack, to the model that was saved. The "ivf"
// and "sq8" cases hold the frozen v6 snapshots saved with those removed
// kinds to their frozen gob twins. "segmented-sq8" grows the model bound
// from the SQ8 one into a multi-segment stack and holds its save to it.
func TestSaveV6BitIdenticalToGob(t *testing.T) {
	for _, tc := range v6TestConfigs {
		t.Run(tc.name, func(t *testing.T) {
			model := buildV6TestModel(t, tc.mutate, tc.segmented)
			v6Path := filepath.Join(t.TempDir(), "model.v6")
			if err := model.SaveFileV6(v6Path); err != nil {
				t.Fatal(err)
			}
			checkV6ServesLike(t, model, v6Path)
		})
	}
	for _, kind := range removedIndexKinds {
		t.Run(kind, func(t *testing.T) {
			checkV6ServesLike(t, loadFrozenModel(t, "v5"+kind+".gob"), filepath.Join(persistFixtureDir, "v6"+kind+".snap"))
		})
	}
	t.Run("segmented-sq8", func(t *testing.T) {
		model := loadFrozenModel(t, "v6sq8.snap")
		ingestSegments(t, model)
		if _, second := model.SegmentStats(); second.Segments != 4 || second.Tombstones != 1 {
			t.Fatalf("ingests did not stack segments as planned: %+v", second)
		}
		v6Path := filepath.Join(t.TempDir(), "model.v6")
		if err := model.SaveFileV6(v6Path); err != nil {
			t.Fatal(err)
		}
		checkV6ServesLike(t, model, v6Path)
	})
}

// checkV6ServesLike binds the v6 file at v6Path through both the mmap
// and the streamed heap path, and requires the rankings and segment
// stats of ref, bit for bit.
func checkV6ServesLike(t *testing.T, ref *Model, v6Path string) {
	t.Helper()
	want := rankAllMatches(t, ref)

	// The zero-copy path: open, check mode, bind.
	snap, err := OpenSnapshotFile(v6Path)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Info().Version; got != 6 {
		t.Fatalf("v6 snapshot Info().Version = %d, want 6", got)
	}
	switch mode := snap.LoadMode(); {
	case runtime.GOOS == "linux" && mode != "v6+mmap":
		t.Fatalf("LoadMode() = %q, want v6+mmap", mode)
	case mode != "v6+mmap" && mode != "v6+heap":
		t.Fatalf("LoadMode() = %q", mode)
	}
	mm, mr := fixtureCorpora(t)
	mmapModel, err := snap.Bind(mm, mr)
	if err != nil {
		t.Fatal(err)
	}
	if got := rankAllMatches(t, mmapModel); !reflect.DeepEqual(got, want) {
		t.Errorf("mmap-loaded rankings diverge from the reference model's")
	}

	// The streamed heap path (ReadSnapshot auto-detects by magic).
	f, err := os.Open(v6Path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hsnap, err := ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := hsnap.LoadMode(); got != "v6+heap" {
		t.Fatalf("streamed LoadMode() = %q, want v6+heap", got)
	}
	hm, hr := fixtureCorpora(t)
	heapModel, err := hsnap.Bind(hm, hr)
	if err != nil {
		t.Fatal(err)
	}
	if got := rankAllMatches(t, heapModel); !reflect.DeepEqual(got, want) {
		t.Errorf("heap-loaded rankings diverge from the reference model's")
	}

	// Segment boundaries restore exactly, not merely equivalently: each
	// side serves the reference's live IDs segment by segment, in order,
	// less the segments removals emptied, which a save drops.
	liveManifest := func(m *Model) [2][][]string {
		var out [2][][]string
		for side, seg := range []*match.Segmented{m.firstIdx, m.secondIdx} {
			out[side] = slices.DeleteFunc(seg.SegmentManifest(), func(ids []string) bool { return len(ids) == 0 })
		}
		return out
	}
	wantSegs := liveManifest(ref)
	for _, m := range []*Model{mmapModel, heapModel} {
		if got := liveManifest(m); !reflect.DeepEqual(got, wantSegs) {
			t.Errorf("segment manifests diverge:\ngot:  %v\nwant: %v", got, wantSegs)
		}
		if _, second := m.SegmentStats(); second.Tombstones != 0 {
			t.Errorf("a v6 load carries %d tombstones, want them compacted by the save", second.Tombstones)
		}
	}
}

// TestSaveV6LazyVerifyServesIdentically covers the microsecond
// cold-start path: VerifyLazy skips payload checksums but must bind the
// same model.
func TestSaveV6LazyVerifyServesIdentically(t *testing.T) {
	model := buildV6TestModel(t, func(c *Config) {}, true)
	path := filepath.Join(t.TempDir(), "model.v6")
	if err := model.SaveFileV6(path); err != nil {
		t.Fatal(err)
	}
	want := rankAllMatches(t, model)
	snap, err := OpenSnapshotFileVerify(path, VerifyLazy)
	if err != nil {
		t.Fatal(err)
	}
	movies, reviews := fixtureCorpora(t)
	loaded, err := snap.Bind(movies, reviews)
	if err != nil {
		t.Fatal(err)
	}
	if got := rankAllMatches(t, loaded); !reflect.DeepEqual(got, want) {
		t.Error("lazy-verified load diverges from the live model")
	}
}

// bindFixture is a LoadSnapshotFile callback over fresh fixture corpora,
// the daemon's pattern of loading corpora for the snapshot it opened.
func bindFixture(t *testing.T) func(*Snapshot) (*Model, error) {
	return func(s *Snapshot) (*Model, error) {
		movies, reviews := fixtureCorpora(t)
		return s.Bind(movies, reviews)
	}
}

// TestLoadSnapshotFileMatchesOpen holds the overlapped load to the
// serial one. On every committed v6 fixture (FNV-1a section checksums)
// and on a freshly saved file (CRC32C section checksums) it binds the
// same rankings as OpenSnapshotFile + Bind, under both verify modes; and
// for one byte flipped inside every section it fails with exactly
// OpenSnapshotFile's error, although the bind has run on the corrupt
// bytes beside the checksums wherever they still decode. CI runs it
// under -race: the verifier reads the mapping while the decode and bind
// do.
func TestLoadSnapshotFileMatchesOpen(t *testing.T) {
	var paths []string
	for _, file := range []string{"v6.snap", "v6hnsw.snap", "v6ivf.snap", "v6sq8.snap"} {
		paths = append(paths, filepath.Join(persistFixtureDir, file))
	}
	fresh := filepath.Join(t.TempDir(), "fresh.snap")
	if err := persistFixtureSegmentedModel(t).SaveFileV6(fresh); err != nil {
		t.Fatal(err)
	}
	for _, path := range append(paths, fresh) {
		file := filepath.Base(path)
		t.Run(file, func(t *testing.T) {
			snap, err := OpenSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := bindFixture(t)(snap)
			if err != nil {
				t.Fatal(err)
			}
			want := rankAllMatches(t, serial)
			for _, mode := range []VerifyMode{VerifyEager, VerifyLazy} {
				var bound *Snapshot
				loaded, err := LoadSnapshotFile(path, mode, func(s *Snapshot) (*Model, error) {
					bound = s
					return bindFixture(t)(s)
				})
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				if got := rankAllMatches(t, loaded); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: LoadSnapshotFile rankings diverge from OpenSnapshotFile + Bind", mode)
				}
				if verified := bound.VerifyTime() > 0; verified != (mode == VerifyEager) {
					t.Errorf("%s: VerifyTime() = %v", mode, bound.VerifyTime())
				}
			}

			pristine, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			wantFlags := uint32(0)
			if path == fresh {
				wantFlags = v6FlagCRC32C
			}
			if flags := binary.LittleEndian.Uint32(pristine[20:]); flags != wantFlags {
				t.Fatalf("header flags %#x, want %#x", flags, wantFlags)
			}
			corruptPath := filepath.Join(t.TempDir(), file)
			nSecs := int(binary.LittleEndian.Uint32(pristine[16:20]))
			boundCorrupt := 0
			for s := 0; s < nSecs; s++ {
				e := pristine[v6HeaderSize+s*v6EntrySize:]
				off := binary.LittleEndian.Uint64(e[8:])
				length := binary.LittleEndian.Uint64(e[16:])
				if length == 0 {
					continue
				}
				corrupt := append([]byte(nil), pristine...)
				corrupt[off+length/2] ^= 0x5a
				if err := os.WriteFile(corruptPath, corrupt, 0o644); err != nil {
					t.Fatal(err)
				}
				_, wantErr := OpenSnapshotFile(corruptPath)
				if wantErr == nil {
					t.Fatalf("section %d: OpenSnapshotFile accepted a flipped payload", s)
				}
				m, err := LoadSnapshotFile(corruptPath, VerifyEager, func(s *Snapshot) (*Model, error) {
					boundCorrupt++
					return bindFixture(t)(s)
				})
				if m != nil || err == nil || err.Error() != wantErr.Error() {
					t.Errorf("section %d (type %d): LoadSnapshotFile returned a model %v, error %v; want %v",
						s, binary.LittleEndian.Uint32(e), m != nil, err, wantErr)
				}
			}
			if boundCorrupt == 0 {
				t.Error("no flipped file reached the bind: the overlap went untested")
			}
		})
	}
}

// TestLoadSnapshotFileReleasesMappingOnFailure: a failed load unmaps
// the file whatever failed — Bind, a check of the caller's after a
// successful Bind, or verification — so repeated failed reloads cannot
// pile up mappings. Linux only: it reads /proc/self/maps.
func TestLoadSnapshotFileReleasesMappingOnFailure(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	pristine, err := os.ReadFile(filepath.Join(persistFixtureDir, "v6.snap"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "release.v6")
	corruptPath := filepath.Join(dir, "corrupt.v6")
	corrupt := append([]byte(nil), pristine...)
	corrupt[len(corrupt)/2] ^= 0x5a
	for p, b := range map[string][]byte{path: pristine, corruptPath: corrupt} {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mapped := func(p string) bool {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Contains(maps, []byte(p))
	}

	errUncovered := fmt.Errorf("corpora do not cover the snapshot")
	failures := []func(*Snapshot) (*Model, error){
		func(s *Snapshot) (*Model, error) {
			movies, _ := fixtureCorpora(t)
			return s.Bind(movies, movies) // wrong corpus names
		},
		func(s *Snapshot) (*Model, error) {
			if _, err := bindFixture(t)(s); err != nil {
				return nil, err
			}
			return nil, errUncovered
		},
	}
	for i := 0; i < 20; i++ {
		mode := []VerifyMode{VerifyEager, VerifyLazy}[i%2]
		if _, err := LoadSnapshotFile(path, mode, failures[i/2%2]); err == nil {
			t.Fatalf("load %d succeeded", i)
		}
		if _, err := LoadSnapshotFile(corruptPath, VerifyEager, bindFixture(t)); err == nil {
			t.Fatalf("load %d of the corrupt file succeeded", i)
		}
	}
	for _, p := range []string{path, corruptPath} {
		if mapped(p) {
			t.Errorf("%s is still mapped after 20 failed loads", p)
		}
	}
	// The probe sees a live mapping: a successful load keeps its own.
	m, err := LoadSnapshotFile(path, VerifyEager, bindFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if !mapped(path) {
		t.Error("/proc/self/maps does not show a loaded snapshot's mapping")
	}
	runtime.KeepAlive(m)
}

// TestV6InfoMatchesGobInfo pins that the v6 metadata section carries
// everything ModelInfo reports: the figures of the model that was saved,
// HNSW knobs, delta chain and staleness included. TestSnapshotBackCompat
// holds the v6 rewrite of every gob fixture to that fixture's gob Info.
func TestV6InfoMatchesGobInfo(t *testing.T) {
	model := buildV6TestModel(t, func(c *Config) {
		c.Index = IndexHNSW
		c.HNSWM = 4
		c.HNSWEf = 8
		c.HNSWEfConstruct = 16
	}, true)
	var v6Buf bytes.Buffer
	if err := model.SaveV6(&v6Buf); err != nil {
		t.Fatal(err)
	}
	v6Info, err := ReadModelInfo(&v6Buf)
	if err != nil {
		t.Fatal(err)
	}
	want := ModelInfo{
		Version: 6, Dim: model.dim, FirstName: "movies", SecondName: "reviews",
		Docs: len(model.Vectors()), Index: IndexHNSW, HNSWM: 4, HNSWEf: 8, HNSWEfConstruct: 16,
		DeltaDocs: 4, Staleness: model.Staleness(),
	}
	if v6Info != want {
		t.Errorf("v6 info %+v, want %+v", v6Info, want)
	}
	if want.Staleness == 0 {
		t.Error("the fixture model has no staleness to carry")
	}
}

// TestV6LoadIsZeroCopyAndCopyOnWrite pins the tentpole's memory
// behavior at the model level: a v6-loaded model's base segment borrows
// the snapshot's arena (no copy at bind), and post-load mutations
// promote to the heap rather than writing through — the snapshot file
// is byte-identical after ingest and remove.
func TestV6LoadIsZeroCopyAndCopyOnWrite(t *testing.T) {
	model := buildV6TestModel(t, func(c *Config) {}, false)
	path := filepath.Join(t.TempDir(), "model.v6")
	if err := model.SaveFileV6(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	movies, reviews := fixtureCorpora(t)
	loaded, err := LoadModelFile(path, movies, reviews)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.backing == nil {
		t.Fatal("v6-loaded model carries no backing mapping")
	}
	base, ok := loaded.firstIdx.Base().(*match.Index)
	if !ok {
		t.Fatalf("base segment is %T, want *match.Index", loaded.firstIdx.Base())
	}
	if !base.Borrowed() {
		t.Error("v6-loaded base segment does not borrow the snapshot arena")
	}

	if err := loaded.Ingest([]IngestDoc{
		{Side: 2, ID: "reviews:cow", Values: []string{"a brand new review about Coppola"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Remove([]string{"reviews:p0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.TopK("reviews:cow", 3); err != nil {
		t.Fatalf("ingested document not servable: %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("mutating a v6-loaded model wrote through to the snapshot file")
	}
}
