// Package mmapfile memory-maps files read-only for zero-copy snapshot
// loading. On unix platforms Open returns a PROT_READ, MAP_SHARED
// mapping, so every process serving the same snapshot file shares one
// set of physical pages and cold start does not scale with file size.
// On other platforms (or when mmap fails) Open falls back to reading
// the file into an 8-byte-aligned heap buffer, so callers can rely on
// the returned bytes being safely castable to []float32/[]uint64 views
// either way.
//
// The mapping is strictly read-only: any caller that wants to mutate
// data backed by it must first copy the affected region to the heap
// (copy-on-write promotion, see match.NewIndexArenaBorrowed). Writing
// through the mapping faults the process, which is asserted by a
// subprocess test.
package mmapfile

import (
	"io"
	"os"
	"unsafe"
)

// Mapping is the read-only byte view of a file, backed either by a
// PROT_READ mmap (Mapped reports true) or by an aligned heap buffer.
type Mapping struct {
	data   []byte
	mapped bool
}

// Open maps path read-only. The returned Mapping stays valid until
// Close; callers that hand out sub-slices of Data must not call Close
// while those views are live.
func Open(path string) (*Mapping, error) {
	return openPlatform(path)
}

// Data returns the mapped (or heap-loaded) file contents. The slice is
// read-only when Mapped reports true; writing to it faults.
func (m *Mapping) Data() []byte { return m.data }

// Mapped reports whether Data is a PROT_READ memory mapping rather
// than a heap copy.
func (m *Mapping) Mapped() bool { return m.mapped }

// Close releases the mapping. After Close every view previously
// derived from Data is invalid; the zero-copy snapshot loader
// therefore keeps the Mapping pinned for the model's lifetime and only
// calls Close when a load fails, once nothing that reads the views —
// its verifier goroutine, the model it dropped — is left.
func (m *Mapping) Close() error {
	if m == nil || m.data == nil {
		return nil
	}
	err := m.closePlatform()
	m.data = nil
	return err
}

// readAligned loads a whole file into an 8-byte-aligned heap buffer.
// Alignment matters because the snapshot reader casts section payloads
// to []float32/[]uint64 without copying.
func readAligned(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, nil
	}
	buf := AlignedBuffer(int(size))
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// AlignedBuffer allocates n bytes whose base address is 8-byte
// aligned, suitable for in-place casts to wider element types.
func AlignedBuffer(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}
