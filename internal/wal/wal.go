// Package wal implements the write-ahead log that makes tdserved's
// live mutations durable: an append-only file of length-prefixed,
// FNV-1a-checksummed records (the checksum discipline of the v5 model
// snapshot), appended before a mutation is acknowledged and replayed
// against the loaded snapshot on startup.
//
// Recovery is deliberately conservative. A record cut short by a crash
// — a torn frame at the end of the file — is repaired: the log is
// truncated back to the last record that checksums, and everything
// before it replays. A record that fails its checksum in the middle of
// the file, with valid-looking data after it, is not a crash artifact
// (appends are strictly sequential) but corruption or tampering, and
// Open refuses the whole log with ErrCorrupt rather than silently
// dropping acknowledged operations.
//
// The file layout is an 8-byte magic header followed by frames:
//
//	u32  payload length (little-endian)
//	u8   op kind (opaque to this package)
//	u64  sequence number (monotonic, +1 per record)
//	[n]  payload
//	u64  FNV-1a over everything above
//
// Durability is governed by SyncPolicy: SyncAlways fsyncs every append
// before it returns (an acknowledged operation survives any crash),
// SyncEvery batches fsyncs on a timer (a crash can lose up to one
// interval of acknowledged operations), SyncNever leaves flushing to
// the OS (cheapest, weakest). The tradeoff is measured by
// BenchmarkIngestWAL and documented in the README ops runbook.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/tdmatch/tdmatch/internal/fnv1a"
)

// ErrCorrupt reports a log whose middle fails validation: a record with
// a bad checksum or a sequence-number break that is followed by more
// data. Crash damage only ever tears the tail; mid-log damage means the
// file was tampered with or the disk is failing, and replaying around
// it could resurrect a state no client was ever acknowledged.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs every append before it returns: an acknowledged
	// mutation survives any crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncEvery fsyncs at most once per Options.Interval, amortizing the
	// fsync cost across a burst of appends; a crash can lose up to one
	// interval of acknowledged mutations.
	SyncEvery
	// SyncNever never fsyncs explicitly; the OS flushes at its leisure.
	// A process crash loses nothing (the page cache survives), a machine
	// crash can lose everything since the last checkpoint.
	SyncNever
)

// String returns the flag-style name: "always", "interval" or "never".
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncEvery:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("syncpolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy converts a flag value ("always", "interval",
// "never") into a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncEvery, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
	}
}

// Options tunes a Log; the zero value is SyncAlways on the real
// filesystem.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// Interval is the SyncEvery flush period (default 100ms). Under
	// SyncEvery a background flusher also syncs a quiet log, so the last
	// append of a burst is never left unsynced for longer than this.
	Interval time.Duration
	// FS is the filesystem seam (nil = the real one); tests inject
	// MemFS here to model torn writes, ENOSPC and crashes.
	FS FS
}

// Record is one recovered log entry: the op kind and payload exactly as
// appended, plus the sequence number assigned at append time.
type Record struct {
	// Seq is the record's monotonic sequence number.
	Seq uint64
	// Op is the caller's op kind, opaque to this package.
	Op uint8
	// Payload is the caller's encoded operation.
	Payload []byte
}

// Stats is a point-in-time snapshot of a log's counters.
type Stats struct {
	// LastSeq is the sequence number of the newest record (appended or
	// recovered); 0 on an empty log.
	LastSeq uint64 `json:"last_seq"`
	// Appends counts successful Append calls this process.
	Appends uint64 `json:"appends"`
	// Syncs counts fsyncs issued (explicit, policy-driven and timed).
	Syncs uint64 `json:"syncs"`
	// Checkpoints counts successful Checkpoint rotations.
	Checkpoints uint64 `json:"checkpoints"`
	// SizeBytes is the current log file size.
	SizeBytes int64 `json:"size_bytes"`
	// Policy is the fsync policy name ("always", "interval", "never").
	Policy string `json:"policy"`
}

const (
	// magic identifies a wal file (8 bytes, version in the last byte).
	magic = "tdwal\x00\x00\x01"
	// frameHeaderSize is len(u32) + op(u8) + seq(u64).
	frameHeaderSize = 4 + 1 + 8
	// frameTrailerSize is the u64 checksum.
	frameTrailerSize = 8
	// maxPayload bounds a single record; a length field beyond it can
	// only be a torn or corrupted frame.
	maxPayload = 256 << 20
	// defaultInterval is the SyncEvery flush period when Options.Interval
	// is zero.
	defaultInterval = 100 * time.Millisecond
)

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends are serialized internally.
type Log struct {
	fs   FS
	path string
	opts Options

	mu       sync.Mutex
	f        File
	seq      uint64 // last appended or recovered sequence number
	size     int64  // current file length
	dirty    bool   // unsynced appends pending
	lastSync time.Time
	broken   error // set when the file state is unknown (failed repair)
	closed   bool

	appends     uint64
	syncs       uint64
	checkpoints uint64

	flushDone chan struct{} // closes the SyncEvery background flusher
	flushWG   sync.WaitGroup
}

// Open opens (creating if missing) the log at path, recovers its
// records, and returns them for replay. A torn tail — a final record
// cut short or failing its checksum — is truncated away; damage before
// the tail fails with ErrCorrupt and nothing is modified.
func Open(path string, opts Options) (*Log, []Record, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.Interval <= 0 {
		opts.Interval = defaultInterval
	}
	f, err := opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	recs, validEnd, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	if validEnd == 0 {
		// Fresh (or fully torn header): start from an empty framed file.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: resetting %s: %w", path, err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Write([]byte(magic)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: writing header of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: syncing header of %s: %w", path, err)
		}
		validEnd = int64(len(magic))
	} else if err := f.Truncate(validEnd); err != nil {
		// Repair the torn tail so future appends start on a frame
		// boundary.
		f.Close()
		return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	l := &Log{
		fs:       opts.FS,
		path:     path,
		opts:     opts,
		f:        f,
		size:     validEnd,
		lastSync: time.Now(),
	}
	if n := len(recs); n > 0 {
		l.seq = recs[n-1].Seq
	}
	if opts.Sync == SyncEvery {
		l.flushDone = make(chan struct{})
		l.flushWG.Add(1)
		go l.flushLoop()
	}
	return l, recs, nil
}

// scan parses the whole file, returning the validated records and the
// byte offset of the end of the last valid record. A file without a
// complete magic header yields (nil, 0): the caller rewrites it. A bad
// record at the tail is excluded from the result (the caller truncates
// to validEnd); a bad record followed by more data is ErrCorrupt.
func scan(f File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < len(magic) {
		return nil, 0, nil
	}
	if string(data[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic header", ErrCorrupt)
	}
	var recs []Record
	off := int64(len(magic))
	for int(off) < len(data) {
		rec, end, ok := parseFrame(data, off)
		if !ok {
			// The frame at off does not validate. At the tail that is
			// crash damage and recovery truncates it; with data beyond
			// the frame's own extent it is mid-log corruption.
			if !tornTail(data, off) {
				return nil, 0, fmt.Errorf("%w: record %d at offset %d fails validation with %d bytes following",
					ErrCorrupt, len(recs)+1, off, int64(len(data))-off)
			}
			return recs, off, nil
		}
		if n := len(recs); n > 0 && rec.Seq != recs[n-1].Seq+1 {
			return nil, 0, fmt.Errorf("%w: sequence break at record %d (seq %d after %d)",
				ErrCorrupt, n+1, rec.Seq, recs[n-1].Seq)
		}
		recs = append(recs, rec)
		off = end
	}
	return recs, off, nil
}

// parseFrame decodes one frame starting at off. ok is false when the
// frame is incomplete, oversized or fails its checksum.
func parseFrame(data []byte, off int64) (rec Record, end int64, ok bool) {
	rest := data[off:]
	if len(rest) < frameHeaderSize {
		return rec, 0, false
	}
	n := int64(leUint32(rest))
	if n > maxPayload {
		return rec, 0, false
	}
	total := frameHeaderSize + n + frameTrailerSize
	if int64(len(rest)) < total {
		return rec, 0, false
	}
	body := rest[:frameHeaderSize+n]
	if leUint64(rest[frameHeaderSize+n:]) != fnv1a.Sum(body) {
		return rec, 0, false
	}
	rec.Op = rest[4]
	rec.Seq = leUint64(rest[5:])
	rec.Payload = append([]byte(nil), rest[frameHeaderSize:frameHeaderSize+n]...)
	return rec, off + total, true
}

// tornTail reports whether the invalid frame at off is consistent with
// crash damage: either the frame itself runs past the end of the file
// (a partial write), or it is the final frame-sized region of the file
// (an in-place corruption of the last record, indistinguishable from a
// torn rewrite). An invalid frame with data beyond its own claimed
// extent is not torn — appends never leave bytes after a partial frame.
func tornTail(data []byte, off int64) bool {
	rest := data[off:]
	if len(rest) < frameHeaderSize {
		return true
	}
	n := int64(leUint32(rest))
	if n > maxPayload {
		// The length field itself is garbage; if what follows could hold
		// yet more records we cannot trust any of it, but a garbage
		// length can only be the torn tail when nothing after it parses:
		// appends are sequential, so bytes only ever follow a complete
		// record. Any validating record after this point means the
		// damage is mid-log.
		return !anyValidFrameAfter(data, off+1)
	}
	return int64(len(rest)) <= frameHeaderSize+n+frameTrailerSize
}

// anyValidFrameAfter scans every byte offset past from for a frame that
// checksums, the signal that distinguishes mid-log garbage (valid data
// follows the damage) from a torn tail (nothing after it parses).
func anyValidFrameAfter(data []byte, from int64) bool {
	for off := from; off < int64(len(data)); off++ {
		if _, _, ok := parseFrame(data, off); ok {
			return true
		}
	}
	return false
}

// Append writes one record and applies the sync policy, returning the
// record's sequence number. When it returns nil under SyncAlways the
// record is on stable storage; under the other policies it is in the
// file (crash-recoverable after the next flush). When it returns an
// error the record is NOT in the log: a partial write or failed fsync
// is rolled back by truncating to the previous record boundary, so a
// replay can never resurrect an operation that was not acknowledged.
// If even the rollback fails the log is marked broken and every further
// append reports it.
func (l *Log) Append(op uint8, payload []byte) (uint64, error) {
	if int64(len(payload)) > maxPayload {
		return 0, fmt.Errorf("wal: payload of %d bytes exceeds the %d-byte record bound", len(payload), int64(maxPayload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken != nil {
		return 0, fmt.Errorf("wal: log unusable after failed repair: %w", l.broken)
	}
	seq := l.seq + 1
	frame := appendFrame(nil, op, seq, payload)
	n, err := l.f.Write(frame)
	if err != nil || n != len(frame) {
		if err == nil {
			err = io.ErrShortWrite
		}
		l.rollbackLocked(err)
		return 0, fmt.Errorf("wal: appending record %d: %w", seq, err)
	}
	l.size += int64(len(frame))
	l.seq = seq
	l.appends++
	l.dirty = true
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			l.size -= int64(len(frame))
			l.seq = seq - 1
			l.rollbackLocked(err)
			return 0, fmt.Errorf("wal: syncing record %d: %w", seq, err)
		}
	case SyncEvery:
		if time.Since(l.lastSync) >= l.opts.Interval {
			if err := l.syncLocked(); err != nil {
				l.size -= int64(len(frame))
				l.seq = seq - 1
				l.rollbackLocked(err)
				return 0, fmt.Errorf("wal: syncing record %d: %w", seq, err)
			}
		}
	}
	return seq, nil
}

// rollbackLocked cuts the file back to the last good record boundary
// (l.size) after a failed append, so the log stays well-formed for both
// recovery and the next append. The truncation itself is fsynced
// best-effort — if the failed record's bytes had already reached disk,
// leaving the shrunken length unsynced could resurrect them after a
// crash. A rollback that cannot even truncate marks the log broken.
// Callers hold mu.
func (l *Log) rollbackLocked(cause error) {
	if terr := l.f.Truncate(l.size); terr != nil {
		l.broken = fmt.Errorf("append failed (%w) and truncate failed (%v)", cause, terr)
		return
	}
	if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
		l.broken = fmt.Errorf("append failed (%w) and seek failed (%v)", cause, serr)
		return
	}
	l.f.Sync() // best-effort: make the rollback durable too
	l.dirty = false
}

// Sync flushes pending appends to stable storage, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// syncLocked fsyncs if dirty; callers hold mu.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.syncs++
	l.lastSync = time.Now()
	return nil
}

// flushLoop is the SyncEvery background flusher: it syncs a dirty log
// once per interval even when no append arrives to trigger the timed
// sync, bounding how long an acknowledged record can stay volatile.
func (l *Log) flushLoop() {
	defer l.flushWG.Done()
	ticker := time.NewTicker(l.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			l.mu.Lock()
			if !l.closed && l.broken == nil {
				l.syncLocked() // best-effort; Append surfaces sync errors
			}
			l.mu.Unlock()
		case <-l.flushDone:
			return
		}
	}
}

// Checkpoint drops every record with sequence number <= upTo by
// rotating the log: the surviving tail is rewritten to a sidecar file,
// synced, and atomically renamed over the live log. Called after a
// model snapshot that includes the state up to upTo has been durably
// saved — the snapshot now carries those mutations, so replaying them
// again is at best wasted work. Records appended concurrently are
// preserved: they sequence after upTo by construction.
func (l *Log) Checkpoint(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return fmt.Errorf("wal: log unusable after failed repair: %w", l.broken)
	}
	if err := l.syncLocked(); err != nil {
		return fmt.Errorf("wal: syncing before checkpoint: %w", err)
	}
	recs, _, err := scan(l.f)
	// scan moved the handle's offset; restore it so appends after an
	// early error return still land at the end of the live log.
	if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
		l.broken = serr
		return serr
	}
	if err != nil {
		return fmt.Errorf("wal: re-reading %s for checkpoint: %w", l.path, err)
	}
	keep := recs[:0]
	for _, r := range recs {
		if r.Seq > upTo {
			keep = append(keep, r)
		}
	}
	side := l.path + ".checkpoint"
	sf, err := l.fs.OpenFile(side, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating checkpoint sidecar: %w", err)
	}
	buf := []byte(magic)
	for _, r := range keep {
		buf = appendFrame(buf, r.Op, r.Seq, r.Payload)
	}
	if _, err := sf.Write(buf); err != nil {
		sf.Close()
		l.fs.Remove(side)
		return fmt.Errorf("wal: writing checkpoint sidecar: %w", err)
	}
	if err := sf.Sync(); err != nil {
		sf.Close()
		l.fs.Remove(side)
		return fmt.Errorf("wal: syncing checkpoint sidecar: %w", err)
	}
	if err := sf.Close(); err != nil {
		l.fs.Remove(side)
		return err
	}
	if err := l.fs.Rename(side, l.path); err != nil {
		l.fs.Remove(side)
		return fmt.Errorf("wal: installing checkpoint: %w", err)
	}
	// The old handle now points at the unlinked pre-checkpoint file;
	// reopen the installed one and append at its end.
	nf, err := l.fs.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		l.broken = fmt.Errorf("checkpoint installed but reopen failed: %w", err)
		return fmt.Errorf("wal: reopening after checkpoint: %w", err)
	}
	if _, err := nf.Seek(int64(len(buf)), io.SeekStart); err != nil {
		nf.Close()
		l.broken = err
		return err
	}
	l.f.Close()
	l.f = nf
	l.size = int64(len(buf))
	l.dirty = false
	l.checkpoints++
	return nil
}

// LastSeq returns the newest record's sequence number (appended or
// recovered; 0 on an empty log).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		LastSeq:     l.seq,
		Appends:     l.appends,
		Syncs:       l.syncs,
		Checkpoints: l.checkpoints,
		SizeBytes:   l.size,
		Policy:      l.opts.Sync.String(),
	}
}

// Close flushes pending appends and closes the file. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.broken == nil {
		if l.dirty {
			if serr := l.f.Sync(); serr != nil {
				err = serr
			} else {
				l.dirty = false
				l.syncs++
			}
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	flushDone := l.flushDone
	l.mu.Unlock()
	if flushDone != nil {
		close(flushDone)
		l.flushWG.Wait()
	}
	return err
}

// appendFrame encodes one record frame onto buf.
func appendFrame(buf []byte, op uint8, seq uint64, payload []byte) []byte {
	start := len(buf)
	buf = appendLeUint32(buf, uint32(len(payload)))
	buf = append(buf, op)
	buf = appendLeUint64(buf, seq)
	buf = append(buf, payload...)
	return appendLeUint64(buf, fnv1a.Sum(buf[start:]))
}

func leUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func leUint64(b []byte) uint64 {
	return uint64(leUint32(b)) | uint64(leUint32(b[4:]))<<32
}

func appendLeUint32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendLeUint64(buf []byte, v uint64) []byte {
	return append(appendLeUint32(buf, uint32(v)), byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
