package match

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"github.com/tdmatch/tdmatch/internal/mmapfile"
)

// mapNormalizedArena builds a normalized arena for the given vectors,
// writes it to a file, maps it read-only, and returns the mapped
// []float32 view plus the file path. The mapping is pinned for the
// test's lifetime via t.Cleanup.
func mapNormalizedArena(t *testing.T, ids []string, vecs [][]float32, dim int) ([]float32, string) {
	t.Helper()
	ref, err := NewIndex(ids, vecs, dim)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(ref.Arena())*4)
	for i, f := range ref.Arena() {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(f))
	}
	path := filepath.Join(t.TempDir(), "arena")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := mmapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	data := m.Data()
	floats := unsafe.Slice((*float32)(unsafe.Pointer(&data[0])), len(data)/4)
	return floats, path
}

func TestBorrowedIndexCopyOnWrite(t *testing.T) {
	ids := []string{"a", "b", "c"}
	vecs := [][]float32{{1, 2, 3, 4}, {4, 3, 2, 1}, {0.5, -1, 2, -0.25}}
	arena, path := mapNormalizedArena(t, ids, vecs, 4)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	x, err := NewIndexArenaBorrowed(ids, arena, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Borrowed() {
		t.Fatal("fresh borrowed index reports Borrowed() == false")
	}

	// Queries read through the mapping without promoting.
	ref, _ := NewIndex(ids, vecs, 4)
	q := []float32{1, 1, 1, 1}
	if got, want := x.TopK(q, 3), ref.TopK(q, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("borrowed TopK diverged: got %v want %v", got, want)
	}
	if !x.Borrowed() {
		t.Fatal("read path promoted the arena")
	}

	// Remove zeroes rows in place on heap indexes — on a borrowed one it
	// must promote first, leaving the mapped file untouched.
	if n := x.Remove([]string{"b"}); n != 1 {
		t.Fatalf("Remove returned %d, want 1", n)
	}
	if x.Borrowed() {
		t.Fatal("Remove did not promote the borrowed arena")
	}
	got := x.TopK(q, 3)
	if len(got) != 2 || got[0].ID == "b" || got[1].ID == "b" {
		t.Fatalf("tombstoned doc still served: %v", got)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("mutation wrote through to the mapped snapshot file")
	}
}

func TestBorrowedIndexAppendPromotes(t *testing.T) {
	ids := []string{"a", "b"}
	vecs := [][]float32{{1, 0, 0, 0}, {0, 1, 0, 0}}
	arena, path := mapNormalizedArena(t, ids, vecs, 4)
	before, _ := os.ReadFile(path)

	x, err := NewIndexArenaBorrowed(ids, arena, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Append([]string{"c"}, []float32{0, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if x.Borrowed() {
		t.Fatal("Append did not promote the borrowed arena")
	}
	if got := x.TopK([]float32{0, 0, 1, 0}, 1); len(got) != 1 || got[0].ID != "c" {
		t.Fatalf("appended doc not served: %v", got)
	}
	after, _ := os.ReadFile(path)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("Append wrote through to the mapped snapshot file")
	}
}

func TestAppendSealedServesSegment(t *testing.T) {
	dim := 4
	baseIDs := []string{"a", "b"}
	baseVecs := [][]float32{{1, 0, 0, 0}, {0, 1, 0, 0}}
	base, err := NewIndex(baseIDs, baseVecs, dim)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSegmented(base, dim, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := NewIndex([]string{"c", "d"}, [][]float32{{0, 0, 1, 0}, {0, 0, 0, 1}}, dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSealed(seg); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("stack Len = %d, want 4", s.Len())
	}
	if got := s.TopK([]float32{0, 0, 1, 0}, 1); len(got) != 1 || got[0].ID != "c" {
		t.Fatalf("sealed-appended doc not served: %v", got)
	}
	if n := s.Remove([]string{"d"}); n != 1 {
		t.Fatalf("Remove on sealed-appended segment returned %d", n)
	}
	if got := s.TopK([]float32{0, 0, 0, 1}, 4); len(got) == 4 {
		t.Fatalf("tombstoned doc still served: %v", got)
	}

	wrongDim, _ := NewIndex([]string{"e"}, [][]float32{{1, 1}}, 2)
	if err := s.AppendSealed(wrongDim); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}
