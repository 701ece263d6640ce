package wal

import (
	"io"
	"os"
)

// File is the slice of *os.File the log needs, factored into an
// interface so fault injection (MemFS) can model torn writes, failing
// fsync, ENOSPC and crash-at-offset without touching a disk. Writes
// always append at the current offset; Seek is used only to position at
// the recovered tail after Open repairs a torn record.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes buffered writes to stable storage (fsync).
	Sync() error
	// Truncate cuts the file to size bytes, discarding a torn tail.
	Truncate(size int64) error
	// Seek repositions the read/write offset.
	Seek(offset int64, whence int) (int64, error)
}

// FS is the filesystem seam the log runs on: the real OS filesystem in
// production (OSFS), an in-memory fault-injecting one in tests (MemFS).
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath (checkpoint swap).
	Rename(oldpath, newpath string) error
	// Remove deletes name; missing files are not an error for the log's
	// purposes (checkpoint cleanup).
	Remove(name string) error
	// SyncDir fsyncs the directory itself, making previously completed
	// renames inside it durable: POSIX only guarantees a rename survives
	// power loss once the parent directory's metadata has reached stable
	// storage. Atomic-replace protocols (snapshot SaveFileV6, checkpoint
	// swap) must call it after Rename.
	SyncDir(dir string) error
}

// OSFS is the production FS: a thin pass-through to the os package.
type OSFS struct{}

// OpenFile opens a real file.
func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename renames a real file.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove deletes a real file.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// SyncDir opens the real directory and fsyncs it. Some filesystems
// reject fsync on directories; those errors are surfaced to the caller,
// which may choose to ignore them (the rename already happened).
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
