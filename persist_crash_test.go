package tdmatch

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/tdmatch/tdmatch/internal/fnv1a"
	"github.com/tdmatch/tdmatch/internal/mmapfile"
)

// Crash-safety coverage for the version-5 snapshot: a payload cut short
// by a crashed writer, or corrupted at arbitrary offsets, must fail
// ReadSnapshot cleanly — no panic, and never a partial Bind that leaves
// the corpora half-mutated.

// segmentedSnapshot returns the committed multi-segment v5 fixture.
func segmentedSnapshot(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(persistFixtureDir, "v5segments.gob"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pristineDocCount binds nothing and just counts the fixture corpora's
// documents, the reference for the no-partial-bind assertions.
func pristineDocCount(t *testing.T) int {
	t.Helper()
	movies, reviews := fixtureCorpora(t)
	return len(movies.IDs()) + len(reviews.IDs())
}

func TestSnapshotV5TruncationFailsCleanly(t *testing.T) {
	payload := segmentedSnapshot(t)
	want := pristineDocCount(t)
	rng := rand.New(rand.NewSource(77))
	cuts := []int{0, 1, len(payload) / 2, len(payload) - 1}
	for i := 0; i < 24; i++ {
		cuts = append(cuts, rng.Intn(len(payload)))
	}
	for _, n := range cuts {
		snap, err := ReadSnapshot(bytes.NewReader(payload[:n]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", n, len(payload))
		}
		if snap != nil {
			t.Fatalf("truncation at %d returned a snapshot alongside the error", n)
		}
		// The clean failure happened before any corpus mutation.
		movies, reviews := fixtureCorpora(t)
		if _, err := LoadModel(bytes.NewReader(payload[:n]), movies, reviews); err == nil {
			t.Fatalf("LoadModel succeeded on a %d-byte truncation", n)
		}
		if got := len(movies.IDs()) + len(reviews.IDs()); got != want {
			t.Fatalf("truncation at %d left the corpora partially bound: %d docs, want %d", n, got, want)
		}
	}
}

func TestSnapshotV5CorruptionFailsCleanlyOrLoadsWhole(t *testing.T) {
	payload := segmentedSnapshot(t)
	want := pristineDocCount(t)
	rng := rand.New(rand.NewSource(78))
	rejected := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		corrupt := append([]byte(nil), payload...)
		// One to four random byte flips per trial.
		for f := 0; f < 1+rng.Intn(4); f++ {
			pos := rng.Intn(len(corrupt))
			corrupt[pos] ^= byte(1 + rng.Intn(255))
		}
		snap, err := ReadSnapshot(bytes.NewReader(corrupt))
		if err != nil {
			rejected++
			// A rejected payload must reject before Bind can run, so the
			// corpora stay pristine by construction; spot-check via
			// LoadModel anyway.
			movies, reviews := fixtureCorpora(t)
			if _, lerr := LoadModel(bytes.NewReader(corrupt), movies, reviews); lerr == nil {
				t.Fatalf("trial %d: ReadSnapshot rejected but LoadModel accepted", i)
			}
			if got := len(movies.IDs()) + len(reviews.IDs()); got != want {
				t.Fatalf("trial %d: failed load left corpora partially bound: %d docs, want %d", i, got, want)
			}
			continue
		}
		// Flips that land in non-integrity-checked metadata (config
		// knobs, counters) can decode; the model must then bind whole
		// and serve, or fail without corpus damage — never bind halfway.
		movies, reviews := fixtureCorpora(t)
		model, err := snap.Bind(movies, reviews)
		if err != nil {
			if got := len(movies.IDs()) + len(reviews.IDs()); got != want {
				t.Fatalf("trial %d: failed Bind left corpora partially bound: %d docs, want %d", i, got, want)
			}
			continue
		}
		if model.Staleness() < 0 {
			t.Fatalf("trial %d: negative staleness after corrupted load", i)
		}
		if _, err := model.TopK(model.second.IDs()[0], 3); err != nil {
			t.Fatalf("trial %d: bound model cannot serve: %v", i, err)
		}
	}
	t.Logf("corruption trials: %d/%d rejected up front", rejected, trials)
	if rejected == 0 {
		t.Error("no corrupted payload was rejected — integrity checks appear dead")
	}
}

// v6SnapshotBytes saves the multi-segment fixture model in format v6.
func v6SnapshotBytes(t *testing.T) []byte {
	t.Helper()
	model := persistFixtureSegmentedModel(t)
	var buf bytes.Buffer
	if err := model.SaveV6(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotV6TruncationFailsCleanly fuzzes truncation points over a
// v6 payload: the header's embedded file size means every cut — in the
// header, the section table or any payload — must fail at open, under
// eager and lazy verification alike, with the corpora untouched.
func TestSnapshotV6TruncationFailsCleanly(t *testing.T) {
	payload := v6SnapshotBytes(t)
	want := pristineDocCount(t)
	rng := rand.New(rand.NewSource(79))
	cuts := []int{0, 1, 7, 8, v6HeaderSize - 1, v6HeaderSize, len(payload) / 2, len(payload) - 1}
	for i := 0; i < 24; i++ {
		cuts = append(cuts, rng.Intn(len(payload)))
	}
	dir := t.TempDir()
	for _, n := range cuts {
		if _, err := ReadSnapshot(bytes.NewReader(payload[:n])); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", n, len(payload))
		}
		movies, reviews := fixtureCorpora(t)
		if _, err := LoadModel(bytes.NewReader(payload[:n]), movies, reviews); err == nil {
			t.Fatalf("LoadModel succeeded on a %d-byte truncation", n)
		}
		if got := len(movies.IDs()) + len(reviews.IDs()); got != want {
			t.Fatalf("truncation at %d left the corpora partially bound: %d docs, want %d", n, got, want)
		}
		// The lazy path skips payload checksums but still validates the
		// header and structure, so truncations fail it too.
		path := filepath.Join(dir, "trunc.v6")
		if err := os.WriteFile(path, payload[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSnapshotFileVerify(path, VerifyLazy); err == nil {
			t.Fatalf("lazy open accepted a %d-byte truncation", n)
		}
	}
}

// TestSnapshotV6CorruptionFailsCleanlyOrBindsWhole fuzzes random byte
// flips over the whole v6 payload: under eager verification a flip is
// either rejected at open (header, table or payload checksum) or — when
// it lands in alignment padding, the only unchecksummed bytes — the
// model binds whole and serves. Never a partial bind.
func TestSnapshotV6CorruptionFailsCleanlyOrBindsWhole(t *testing.T) {
	payload := v6SnapshotBytes(t)
	want := pristineDocCount(t)
	rng := rand.New(rand.NewSource(80))
	rejected := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		corrupt := append([]byte(nil), payload...)
		for f := 0; f < 1+rng.Intn(4); f++ {
			pos := rng.Intn(len(corrupt))
			corrupt[pos] ^= byte(1 + rng.Intn(255))
		}
		snap, err := ReadSnapshot(bytes.NewReader(corrupt))
		if err != nil {
			rejected++
			movies, reviews := fixtureCorpora(t)
			if _, lerr := LoadModel(bytes.NewReader(corrupt), movies, reviews); lerr == nil {
				t.Fatalf("trial %d: ReadSnapshot rejected but LoadModel accepted", i)
			}
			if got := len(movies.IDs()) + len(reviews.IDs()); got != want {
				t.Fatalf("trial %d: failed load left corpora partially bound: %d docs, want %d", i, got, want)
			}
			continue
		}
		movies, reviews := fixtureCorpora(t)
		model, err := snap.Bind(movies, reviews)
		if err != nil {
			if got := len(movies.IDs()) + len(reviews.IDs()); got != want {
				t.Fatalf("trial %d: failed Bind left corpora partially bound: %d docs, want %d", i, got, want)
			}
			continue
		}
		if _, err := model.TopK(model.second.IDs()[0], 3); err != nil {
			t.Fatalf("trial %d: bound model cannot serve: %v", i, err)
		}
	}
	t.Logf("v6 corruption trials: %d/%d rejected up front", rejected, trials)
	if rejected == 0 {
		t.Error("no corrupted v6 payload was rejected — integrity checks appear dead")
	}
}

// TestSnapshotV6TargetedFlipsRejected flips bytes inside each
// checksummed region — header, section table, and every section payload
// — and requires eager verification to reject all of them: unlike the
// random sweep above, no flip here may slip through.
func TestSnapshotV6TargetedFlipsRejected(t *testing.T) {
	payload := v6SnapshotBytes(t)
	nSecs := int(binary.LittleEndian.Uint32(payload[16:20]))
	rng := rand.New(rand.NewSource(81))
	flipAt := func(pos int, what string) {
		corrupt := append([]byte(nil), payload...)
		corrupt[pos] ^= byte(1 + rng.Intn(255))
		if _, err := ReadSnapshot(bytes.NewReader(corrupt)); err == nil {
			t.Errorf("flip in %s (offset %d) was accepted", what, pos)
		}
	}
	// Header flips stay inside the checksummed bytes [0, 48) — the
	// trailing reserved zeros are deliberately outside the digest.
	for i := 0; i < 8; i++ {
		flipAt(rng.Intn(48), "header")
		flipAt(v6HeaderSize+rng.Intn(nSecs*v6EntrySize), "section table")
	}
	// One flip inside every section payload, via the table's own
	// offsets/lengths.
	for s := 0; s < nSecs; s++ {
		e := payload[v6HeaderSize+s*v6EntrySize:]
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if length == 0 {
			continue
		}
		flipAt(int(off)+rng.Intn(int(length)), "section payload")
	}
}

// TestSnapshotV6FirstCorruptSectionNamed corrupts two section payloads
// and requires every eager open to fail with the same error, naming the
// one the section table lists first.
func TestSnapshotV6FirstCorruptSectionNamed(t *testing.T) {
	payload := v6SnapshotBytes(t)
	nSecs := int(binary.LittleEndian.Uint32(payload[16:20]))
	var nonEmpty []int
	for s := 0; s < nSecs; s++ {
		if binary.LittleEndian.Uint64(payload[v6HeaderSize+s*v6EntrySize+16:]) > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	if len(nonEmpty) < 3 {
		t.Fatalf("fixture has %d non-empty sections, want at least 3", len(nonEmpty))
	}
	// The second non-empty section and the last one: neither is the
	// table's first entry, so table order is what decides.
	earlier, later := nonEmpty[1], nonEmpty[len(nonEmpty)-1]
	corrupt := append([]byte(nil), payload...)
	for _, s := range []int{earlier, later} {
		e := corrupt[v6HeaderSize+s*v6EntrySize:]
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		corrupt[off+length/2] ^= 0x5a
	}
	e := payload[v6HeaderSize+earlier*v6EntrySize:]
	want := fmt.Sprintf("section type %d index %d checksum mismatch",
		binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint32(e[4:]))
	path := filepath.Join(t.TempDir(), "corrupt.v6")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_, err := OpenSnapshotFile(path)
		if err == nil || err.Error() != "tdmatch: corrupt v6 snapshot: "+want {
			t.Fatalf("open %d failed with %v, want it to name the earlier section (%s)", i, err, want)
		}
	}
}

// TestSnapshotV6DuplicateSegmentIDRejected rewrites one side-2 segment
// manifest so that it lists a document another segment holds, and
// re-seals every checksum: only the ID-uniqueness check can catch the
// file. OpenSnapshotFile and LoadSnapshotFile must fail with the same
// error — the latter although its bind ran beside the check — and lazy
// verification, which skips the check, must open it.
func TestSnapshotV6DuplicateSegmentIDRejected(t *testing.T) {
	payload := v6SnapshotBytes(t)
	l, err := parseV6Layout(payload)
	if err != nil {
		t.Fatal(err)
	}
	const from, to = "reviews:seg2", "reviews:seg0"
	var holder, target int = -1, -1
	for i, sec := range l.payloads {
		e := l.table[i*v6EntrySize:]
		if binary.LittleEndian.Uint32(e) != secSegManifest || binary.LittleEndian.Uint32(e[4:])>>16 != 1 {
			continue
		}
		if bytes.Contains(sec, []byte(to)) {
			holder = i
		}
		if bytes.Contains(sec, []byte(from)) {
			target = i
		}
	}
	if holder < 0 || target < 0 || holder == target {
		t.Fatalf("fixture layout changed: %s in manifest %d, %s in manifest %d", to, holder, from, target)
	}
	corrupt := append([]byte(nil), payload...)
	e := corrupt[v6HeaderSize+target*v6EntrySize:]
	off := binary.LittleEndian.Uint64(e[8:])
	sec := corrupt[off : off+binary.LittleEndian.Uint64(e[16:])]
	copy(sec[bytes.Index(sec, []byte(from)):], to)
	resealSection(corrupt, target)

	path := filepath.Join(t.TempDir(), "dup.v6")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("tdmatch: corrupt v6 snapshot: document %q appears in two side-2 segments", to)
	if _, err := OpenSnapshotFile(path); err == nil || err.Error() != want {
		t.Fatalf("OpenSnapshotFile = %v, want %s", err, want)
	}
	bound := false
	m, err := LoadSnapshotFile(path, VerifyEager, func(s *Snapshot) (*Model, error) {
		bound = true
		movies, reviews := fixtureCorpora(t)
		return s.Bind(movies, reviews)
	})
	if m != nil || err == nil || err.Error() != want || !bound {
		t.Fatalf("LoadSnapshotFile returned a model %v, error %v (bound %v); want %s after a bind", m != nil, err, bound, want)
	}
	if _, err := OpenSnapshotFileVerify(path, VerifyLazy); err != nil {
		t.Errorf("lazy open rejected a structurally valid file: %v", err)
	}
}

// TestSnapshotV6SegmentCountRejected re-seals the committed flat
// fixture with metadata declaring no segment entries, then one, for
// either side. SaveV6 always writes a base segment plus the mutable
// delta, so both counts must fail OpenSnapshotFile and LoadSnapshotFile
// with the segment-count error before anything binds.
func TestSnapshotV6SegmentCountRejected(t *testing.T) {
	payload, err := os.ReadFile(filepath.Join(persistFixtureDir, "v6.snap"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := parseV6Layout(payload)
	if err != nil {
		t.Fatal(err)
	}
	meta := -1
	for i := range l.payloads {
		if binary.LittleEndian.Uint32(l.table[i*v6EntrySize:]) == secMetaJSON {
			meta = i
		}
	}
	if meta < 0 {
		t.Fatal("fixture has no metadata section")
	}
	dir := t.TempDir()
	for _, field := range []string{"FirstSegs", "SecondSegs"} {
		for _, count := range []string{"0", "1"} {
			corrupt := append([]byte(nil), payload...)
			e := corrupt[v6HeaderSize+meta*v6EntrySize:]
			off := binary.LittleEndian.Uint64(e[8:])
			sec := corrupt[off : off+binary.LittleEndian.Uint64(e[16:])]
			key := []byte(`"` + field + `":`)
			at := bytes.Index(sec, key)
			if at < 0 {
				t.Fatalf("metadata has no %s field", field)
			}
			at += len(key)
			end := at
			for sec[end] >= '0' && sec[end] <= '9' {
				end++
			}
			// Pad with JSON whitespace so the section keeps its length.
			copy(sec[at:end], count+strings.Repeat(" ", end-at-1))
			resealSection(corrupt, meta)
			path := filepath.Join(dir, field+count+".v6")
			if err := os.WriteFile(path, corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			const want = "segment counts"
			if _, err := OpenSnapshotFile(path); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s: OpenSnapshotFile = %v, want a %q error", field, count, err, want)
			}
			m, err := LoadSnapshotFile(path, VerifyEager, func(s *Snapshot) (*Model, error) {
				movies, reviews := fixtureCorpora(t)
				return s.Bind(movies, reviews)
			})
			if m != nil || err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s: LoadSnapshotFile returned a model %v, error %v; want a %q error", field, count, m != nil, err, want)
			}
		}
	}
}

// metaSection returns the table index of a v6 file's metadata section.
func metaSection(t *testing.T, b []byte) int {
	t.Helper()
	l, err := parseV6Layout(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l.payloads {
		if binary.LittleEndian.Uint32(l.table[i*v6EntrySize:]) == secMetaJSON {
			return i
		}
	}
	t.Fatal("snapshot has no metadata section")
	return -1
}

// TestBindRefusesChainThatContradictsManifests forges snapshots whose
// delta chain disagrees with their segment manifests: a removal of a
// document the manifest still lists, and an addition of one no manifest
// lists. Each forgery swaps one ID of a real chain for another of the
// same length inside the v6 metadata, re-sealed, or appends a removal
// to the committed gob v5 fixture's chain. Bind onto parsed corpora,
// the deferred BindFiles and the gob reader must all refuse them, with
// the corpora untouched: bound, such a model serves a removed document.
func TestBindRefusesChainThatContradictsManifests(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 1
	moviesPath, reviewsPath, snapPath := fileBackedSnapshot(t, cfg, func(m *Model) {
		added := []IngestDoc{{Side: 2, ID: "reviews:x1", Values: []string{"Weaver and Willis in a Scott horror thriller"}}}
		if err := m.Ingest(added); err != nil {
			t.Fatal(err)
		}
		if err := m.Remove([]string{"movies:t3"}); err != nil {
			t.Fatal(err)
		}
	})
	payload, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	meta := metaSection(t, payload)
	for _, tc := range []struct{ name, from, to, want, query string }{
		{"removal of a listed document", `"Removed":["movies:t3"]`, `"Removed":["movies:t2"]`,
			`the delta chain removes "movies:t2"`, "movies:t2"},
		{"addition of an unlisted document", `"ID":"reviews:x1"`, `"ID":"reviews:x2"`,
			`the delta chain adds "reviews:x2"`, "reviews:x1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forged := append([]byte(nil), payload...)
			e := forged[v6HeaderSize+meta*v6EntrySize:]
			off := binary.LittleEndian.Uint64(e[8:])
			sec := forged[off : off+binary.LittleEndian.Uint64(e[16:])]
			if n := bytes.Count(sec, []byte(tc.from)); n != 1 {
				t.Fatalf("metadata holds %s %d times, want once", tc.from, n)
			}
			copy(sec[bytes.Index(sec, []byte(tc.from)):], tc.to)
			resealSection(forged, meta)
			path := filepath.Join(t.TempDir(), "forged.v6")
			if err := os.WriteFile(path, forged, 0o644); err != nil {
				t.Fatal(err)
			}

			movies, err := LoadCorpus(moviesPath, "movies")
			if err != nil {
				t.Fatal(err)
			}
			reviews, err := LoadCorpus(reviewsPath, "reviews")
			if err != nil {
				t.Fatal(err)
			}
			before := len(movies.IDs()) + len(reviews.IDs())
			m, err := LoadModelFile(path, movies, reviews)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				var answer error
				if m != nil {
					_, answer = m.TopK(tc.query, 3)
				}
				t.Errorf("Bind = %v (TopK(%s) error %v), want a %q error", err, tc.query, answer, tc.want)
			}
			if after := len(movies.IDs()) + len(reviews.IDs()); after != before {
				t.Errorf("the refused bind changed the corpora from %d to %d documents", before, after)
			}

			snap, err := OpenSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, note, err := snap.BindFiles(moviesPath, reviewsPath); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("BindFiles = %v (%s), want a %q error", err, note, tc.want)
			}
		})
	}

	t.Run("gob v5", func(t *testing.T) {
		sm := readGobFixture(t, "v5segments.gob")
		listed := sm.SecondSegments[0].IDs[0]
		sm.Deltas = append(sm.Deltas, savedDelta{Removed: []string{listed}})
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(sm); err != nil {
			t.Fatal(err)
		}
		movies, reviews := fixtureCorpora(t)
		want := fmt.Sprintf("the delta chain removes %q", listed)
		if _, err := LoadModel(&buf, movies, reviews); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadModel = %v, want a %q error", err, want)
		}
		if got := len(movies.IDs()) + len(reviews.IDs()); got != pristineDocCount(t) {
			t.Errorf("the refused gob load left the corpora with %d documents, want %d", got, pristineDocCount(t))
		}
	})
}

// openAllWays opens a v6 file through OpenSnapshotFile, a lazy open and
// LoadSnapshotFile, and returns their errors in that order, with
// whether LoadSnapshotFile's bind ran.
func openAllWays(t *testing.T, path string) (open, lazy, load error, bound bool) {
	t.Helper()
	_, open = OpenSnapshotFile(path)
	_, lazy = OpenSnapshotFileVerify(path, VerifyLazy)
	m, load := LoadSnapshotFile(path, VerifyEager, func(s *Snapshot) (*Model, error) {
		bound = true
		return bindFixture(t)(s)
	})
	if m != nil && load != nil {
		t.Fatalf("LoadSnapshotFile returned a model and the error %v", load)
	}
	return open, lazy, load, bound
}

// TestSnapshotV6FlagsChecked: a header flag bit no writer sets, and a
// CRC32C section checksum with its high half set, are structural errors.
// Eager and lazy opens and LoadSnapshotFile all reject the re-sealed
// file, before anything binds, whatever its sections hold.
func TestSnapshotV6FlagsChecked(t *testing.T) {
	payload := v6SnapshotBytes(t)
	unknown := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(unknown[20:], v6FlagCRC32C|4)
	resealV6(unknown)
	high := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(high[v6HeaderSize+v6EntrySize+28:], 1)
	resealV6(high)
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		file []byte
		want string
	}{
		{"unknown-flag", unknown, "tdmatch: corrupt v6 snapshot: unknown header flags 0x5"},
		{"high-half", high, fmt.Sprintf("tdmatch: corrupt v6 snapshot: section 1 (type %d) CRC32C checksum %#x exceeds 32 bits",
			secDocIDs, binary.LittleEndian.Uint64(high[v6HeaderSize+v6EntrySize+24:]))},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		open, lazy, load, bound := openAllWays(t, path)
		for _, err := range []error{open, lazy, load} {
			if err == nil || err.Error() != c.want {
				t.Errorf("%s: got %v, want %s", c.name, err, c.want)
			}
		}
		if bound {
			t.Errorf("%s: LoadSnapshotFile bound a file that failed its structural checks", c.name)
		}
	}
}

// TestSnapshotV6TermTableOrderRejected swaps the first two entries of the
// committed flat fixture's term table and re-seals it: fold-in finds
// terms by binary search, so a table that is not strictly increasing
// fails eager and lazy opens and LoadSnapshotFile alike. The gob formats
// reject it at Bind, before the delta chain touches the corpora.
func TestSnapshotV6TermTableOrderRejected(t *testing.T) {
	const want = "tdmatch: corrupt snapshot: term table not strictly increasing at entry 1"
	payload, err := os.ReadFile(filepath.Join(persistFixtureDir, "v6.snap"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := parseV6Layout(payload)
	if err != nil {
		t.Fatal(err)
	}
	terms := -1
	for i := range l.payloads {
		if binary.LittleEndian.Uint32(l.table[i*v6EntrySize:]) == secTermIDs {
			terms = i
		}
	}
	if terms < 0 {
		t.Fatal("fixture has no term table")
	}
	ids, err := decodeStringTable(l.payloads[terms])
	if err != nil || len(ids) < 2 {
		t.Fatalf("fixture term table: %d terms, %v", len(ids), err)
	}
	ids = slices.Clone(ids)
	ids[0], ids[1] = ids[1], ids[0]
	corrupt := append([]byte(nil), payload...)
	off := binary.LittleEndian.Uint64(l.table[terms*v6EntrySize+8:])
	copy(corrupt[off:off+uint64(len(l.payloads[terms]))], encodeStringTable(ids))
	resealSection(corrupt, terms)
	path := filepath.Join(t.TempDir(), "swapped.v6")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	open, lazy, load, _ := openAllWays(t, path)
	for _, err := range []error{open, lazy, load} {
		if err == nil || err.Error() != want {
			t.Errorf("v6: got %v, want %s", err, want)
		}
	}

	sm := readGobFixture(t, "v4delta.gob")
	if len(sm.TermIDs) < 2 || len(sm.Deltas) == 0 {
		t.Fatalf("v4delta.gob: %d terms, %d deltas", len(sm.TermIDs), len(sm.Deltas))
	}
	sm.TermIDs[0], sm.TermIDs[1] = sm.TermIDs[1], sm.TermIDs[0]
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sm); err != nil {
		t.Fatal(err)
	}
	movies, reviews := fixtureCorpora(t)
	if _, err := LoadModel(&buf, movies, reviews); err == nil || err.Error() != want {
		t.Errorf("gob: got %v, want %s", err, want)
	}
	if got := len(movies.IDs()) + len(reviews.IDs()); got != pristineDocCount(t) {
		t.Errorf("the rejected gob load left the corpora with %d documents, want %d", got, pristineDocCount(t))
	}
}

// TestSnapshotV5ChecksumCatchesVectorTamper pins the checksum itself:
// flipping one bit inside a stored vector row — which plain gob
// decoding would happily accept — must fail validation.
func TestSnapshotV5ChecksumCatchesVectorTamper(t *testing.T) {
	sm := readGobFixture(t, "v5segments.gob")
	if len(sm.FirstSegments) == 0 || len(sm.Arena) == 0 {
		t.Fatal("fixture payload has no segment manifest or arena")
	}
	if err := sm.validateSegments(); err != nil {
		t.Fatalf("pristine payload failed validation: %v", err)
	}
	tampered := sm
	tampered.Arena = append([]float32(nil), sm.Arena...)
	tampered.Arena[len(tampered.Arena)/2] += 1e-3
	if err := tampered.validateSegments(); err == nil {
		t.Error("vector tamper passed segment checksum validation")
	}
	// And an ID swap between two segments must be caught too.
	if len(sm.SecondSegments) >= 2 && len(sm.SecondSegments[0].IDs) > 0 && len(sm.SecondSegments[1].IDs) > 0 {
		swapped := sm
		segs := append([]savedSegment(nil), sm.SecondSegments...)
		ids0 := append([]string(nil), segs[0].IDs...)
		ids1 := append([]string(nil), segs[1].IDs...)
		ids0[0], ids1[0] = ids1[0], ids0[0]
		segs[0].IDs, segs[1].IDs = ids0, ids1
		swapped.SecondSegments = segs
		if err := swapped.validateSegments(); err == nil {
			t.Error("cross-segment ID swap passed checksum validation")
		}
	}
}

// FuzzParseV6 holds the v6 reader to the promise of parseV6's doc: the
// structural checks run under every VerifyMode, so under VerifyLazy —
// no payload checksums — neither parsing a mutated file nor binding it
// onto the fixture corpora, or without them as BindFiles does over
// matching files, may panic, and a bound model serves a query from each
// side without panicking (a torn payload may only score wrong). The
// seeds are the committed v6 fixtures (flat, HNSW, and the frozen IVF
// and SQ8 ones, all with FNV-1a section checksums); the corpus under
// testdata/fuzz/FuzzParseV6 adds the flat fixture re-saved with CRC32C
// section checksums, the same with an unknown header flag bit, a model
// trained on corpus files (its metadata carries their fingerprints),
// and replays what earlier runs found.
//
// The checksums guard against torn writes, not against a forger, so before
// parsing the harness re-seals the file size and the header and table
// checksums over the mutated bytes: mutations of the section table then
// reach the structural checks instead of stopping at a checksum.
func FuzzParseV6(f *testing.F) {
	for _, file := range []string{"v6.snap", "v6hnsw.snap", "v6ivf.snap", "v6sq8.snap"} {
		b, err := os.ReadFile(filepath.Join(persistFixtureDir, file))
		if err != nil {
			f.Fatalf("committed fixture missing: %v", err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := mmapfile.AlignedBuffer(len(data))
		copy(buf, data)
		resealV6(buf)
		snap, err := parseV6(buf, VerifyLazy, nil)
		if err != nil {
			return
		}
		snap.Info()
		files := &corpusFiles{names: [2]string{snap.sm.FirstName, snap.sm.SecondName}}
		if m, err := snap.bind(&Model{deferred: files}); err == nil {
			for _, id := range []string{"movies:t0", "reviews:p0"} {
				m.TopK(id, 3)
			}
			m.MatchAll(true, 3)
		}
		movies, reviews := fixtureCorpora(t)
		m, err := snap.Bind(movies, reviews)
		if err != nil {
			return
		}
		for _, id := range []string{"movies:t0", "reviews:p0"} {
			m.TopK(id, 3)
		}
	})
}

// FuzzReadGobSnapshot holds the legacy gob reader, the one parser of
// version 1–5 snapshots, to "no panic and no unbounded allocation":
// ReadSnapshot on arbitrary bytes, then Bind onto the fixture corpora and
// one TopK on the bound model. The seeds are the nine committed gob
// fixtures; the corpus under testdata/fuzz/FuzzReadGobSnapshot replays
// what earlier runs found.
func FuzzReadGobSnapshot(f *testing.F) {
	files, err := filepath.Glob(filepath.Join(persistFixtureDir, "*.gob"))
	if err != nil || len(files) != 9 {
		f.Fatalf("want the nine committed gob fixtures, found %d (%v)", len(files), err)
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		snap.Info()
		movies, reviews := fixtureCorpora(t)
		m, err := snap.Bind(movies, reviews)
		if err != nil {
			return
		}
		m.TopK("reviews:p0", 3)
	})
}

// resealV6 rewrites a v6 buffer's file size and its header and table
// checksums to match its bytes, where the header and the table it
// declares fit.
func resealV6(b []byte) {
	if len(b) < v6HeaderSize {
		return
	}
	binary.LittleEndian.PutUint64(b[24:], uint64(len(b)))
	if end := v6HeaderSize + int64(binary.LittleEndian.Uint32(b[16:]))*v6EntrySize; end <= int64(len(b)) {
		binary.LittleEndian.PutUint64(b[32:], fnv1a.Sum(b[v6HeaderSize:end]))
	}
	binary.LittleEndian.PutUint64(b[40:], fnv1a.Sum(b[:40]))
}

// resealSection rewrites section i's stored checksum to match its
// payload under the file's own flags, then reseals the header and table.
func resealSection(b []byte, i int) {
	e := b[v6HeaderSize+i*v6EntrySize:]
	off := binary.LittleEndian.Uint64(e[8:])
	sec := b[off : off+binary.LittleEndian.Uint64(e[16:])]
	binary.LittleEndian.PutUint64(e[24:], v6SectionSum(binary.LittleEndian.Uint32(b[20:]), sec))
	resealV6(b)
}

// fnvTwin returns the FNV twin of a v6 file SaveV6 wrote: the same bytes
// with flags 0 and every section checksum the FNV-1a of its payload, then
// the table and header resealed — the file the writer produced before
// its section checksums became CRC32C. Digests and committed files
// recorded from that writer compare against the twin, which shows that
// nothing but checksum bytes changed.
func fnvTwin(t testing.TB, b []byte) []byte {
	t.Helper()
	l, err := parseV6Layout(b)
	if err != nil {
		t.Fatal(err)
	}
	if l.flags != v6FlagCRC32C {
		t.Fatalf("header flags %#x, want CRC32C sections", l.flags)
	}
	twin := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(twin[20:], 0)
	for i, p := range l.payloads {
		binary.LittleEndian.PutUint64(twin[v6HeaderSize+i*v6EntrySize+24:], fnv1a.Sum(p))
	}
	resealV6(twin)
	return twin
}
