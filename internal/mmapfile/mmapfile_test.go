package mmapfile

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenRoundTrip(t *testing.T) {
	want := bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 1024)
	m, err := Open(writeTemp(t, want))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !bytes.Equal(m.Data(), want) {
		t.Fatalf("mapped contents differ: got %d bytes", len(m.Data()))
	}
	if uintptr(unsafe.Pointer(&m.Data()[0]))%8 != 0 {
		t.Fatalf("mapping base not 8-byte aligned")
	}
}

func TestOpenEmptyFile(t *testing.T) {
	m, err := Open(writeTemp(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(m.Data()) != 0 {
		t.Fatalf("empty file mapped to %d bytes", len(m.Data()))
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestAlignedBuffer(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 4096} {
		buf := AlignedBuffer(n)
		if len(buf) != n {
			t.Fatalf("AlignedBuffer(%d) returned %d bytes", n, len(buf))
		}
		if n > 0 && uintptr(unsafe.Pointer(&buf[0]))%8 != 0 {
			t.Fatalf("AlignedBuffer(%d) not 8-byte aligned", n)
		}
	}
}

// TestMappingIsReadOnly proves the mapping really is PROT_READ: a
// child process that writes through Data() must die on a memory fault
// rather than silently mutating the page (which would eventually write
// back to the shared file under MAP_SHARED). This is the invariant
// copy-on-write promotion in internal/match relies on.
func TestMappingIsReadOnly(t *testing.T) {
	if os.Getenv("MMAPFILE_WRITE_CRASH") != "" {
		m, err := Open(os.Getenv("MMAPFILE_CRASH_PATH"))
		if err != nil {
			os.Exit(3)
		}
		if !m.Mapped() {
			os.Exit(4) // heap fallback: nothing to assert
		}
		m.Data()[0] = 0xff // must fault
		os.Exit(0)
	}
	if runtime.GOOS == "windows" {
		t.Skip("no mmap on this platform")
	}
	path := writeTemp(t, bytes.Repeat([]byte{1}, 4096))
	// Probe in-process first: skip cleanly if mmap fell back to heap.
	probe, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped := probe.Mapped()
	probe.Close()
	if !mapped {
		t.Skip("mmap unavailable; heap fallback in use")
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestMappingIsReadOnly$")
	cmd.Env = append(os.Environ(), "MMAPFILE_WRITE_CRASH=1", "MMAPFILE_CRASH_PATH="+path)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child wrote through a PROT_READ mapping without faulting:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() >= 0 && ee.ExitCode() != 2 {
		// Signal deaths surface as ExitCode()==-1 on unix (or 2 for Go's
		// own fault translation); a plain non-zero exit means the child
		// failed before the write, which is not the assertion we want.
		t.Fatalf("child exited with code %d, want memory-fault death:\n%s", ee.ExitCode(), out)
	}
}
