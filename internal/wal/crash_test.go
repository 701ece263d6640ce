package wal

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/tdmatch/tdmatch/internal/fnv1a"
)

// stormOps builds a deterministic pseudo-random operation stream: op
// kinds 1/2 with payloads of varied sizes, including empty and
// multi-hundred-byte ones so cut points land in headers, payloads and
// trailers alike.
func stormOps(rng *rand.Rand, n int) []appended {
	ops := make([]appended, 0, n)
	for i := 0; i < n; i++ {
		size := 0
		switch rng.Intn(4) {
		case 0:
			size = rng.Intn(8)
		case 1:
			size = 8 + rng.Intn(64)
		default:
			size = 64 + rng.Intn(400)
		}
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(rng.Intn(256))
		}
		ops = append(ops, appended{op: uint8(1 + rng.Intn(2)), payload: p})
	}
	return ops
}

// TestCrashPointFuzz is the core crash property: write a storm of
// records, then simulate a crash at EVERY byte offset of the resulting
// file. Recovery must always succeed and must recover exactly the
// records whose frames were completely on disk at the crash point — the
// acked prefix, never more, never a gap. The recovered log must also
// accept new appends with continuous sequence numbering.
func TestCrashPointFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7da1))
	fs := NewMemFS()
	l, _ := mustOpen(t, fs, Options{})
	ops := stormOps(rng, 40)
	var ends []int64
	for i := range ops {
		ops[i].seq = mustAppend(t, l, ops[i].op, ops[i].payload)
		ends = append(ends, l.Stats().SizeBytes)
	}
	l.Close()
	full := fs.FileBytes(testPath)

	for cut := 0; cut <= len(full); cut++ {
		complete := 0
		for _, e := range ends {
			if int64(cut) >= e {
				complete++
			}
		}
		cfs := NewMemFS()
		cfs.WriteFile(testPath, full[:cut])
		cl, recs, err := Open(testPath, Options{FS: cfs})
		if err != nil {
			t.Fatalf("crash at offset %d: Open: %v", cut, err)
		}
		if len(recs) != complete {
			t.Fatalf("crash at offset %d: recovered %d records, want %d", cut, len(recs), complete)
		}
		for i, r := range recs {
			w := ops[i]
			if r.Seq != w.seq || r.Op != w.op || !bytes.Equal(r.Payload, w.payload) {
				t.Fatalf("crash at offset %d: record %d diverges from the acked prefix", cut, i)
			}
		}
		if seq := mustAppend(t, cl, 7, []byte("continuation")); seq != uint64(complete)+1 {
			t.Fatalf("crash at offset %d: continuation seq %d, want %d", cut, seq, complete+1)
		}
		cl.Close()
	}
}

// TestCrashStormSyncAlways drives repeated crash/recover/continue cycles
// under SyncAlways: every acknowledged append must survive every crash,
// exactly — SyncAlways means ack implies durable.
func TestCrashStormSyncAlways(t *testing.T) {
	rng := rand.New(rand.NewSource(0xacced))
	fs := NewMemFS()
	l, _ := mustOpen(t, fs, Options{Sync: SyncAlways})
	var acked []appended
	for round := 0; round < 8; round++ {
		for _, op := range stormOps(rng, 5+rng.Intn(10)) {
			seq, err := l.Append(op.op, op.payload)
			if err != nil {
				t.Fatalf("round %d: Append: %v", round, err)
			}
			op.seq = seq
			acked = append(acked, op)
		}
		fs.Crash(rng.Intn(64)) // keep a random sliver of any unsynced tail
		var recs []Record
		var err error
		l, recs, err = Open(testPath, Options{FS: fs, Sync: SyncAlways})
		if err != nil {
			t.Fatalf("round %d: Open after crash: %v", round, err)
		}
		checkRecords(t, recs, acked)
	}
	l.Close()
}

// TestCrashStormSyncNever verifies the weaker policies still uphold the
// prefix property: a crash may lose acknowledged records, but whatever
// survives is an exact prefix of the acked sequence — never a subset
// with holes, never a record that was not acked.
func TestCrashStormSyncNever(t *testing.T) {
	rng := rand.New(rand.NewSource(0xbeef))
	fs := NewMemFS()
	l, _ := mustOpen(t, fs, Options{Sync: SyncNever})
	var acked []appended
	recovered := 0 // records known durable from prior rounds
	for round := 0; round < 8; round++ {
		for _, op := range stormOps(rng, 5+rng.Intn(10)) {
			seq, err := l.Append(op.op, op.payload)
			if err != nil {
				t.Fatalf("round %d: Append: %v", round, err)
			}
			op.seq = seq
			acked = append(acked, op)
		}
		if rng.Intn(2) == 0 {
			// An explicit flush (the daemon syncs on shutdown and before
			// snapshots) pins everything so far.
			if err := l.Sync(); err != nil {
				t.Fatalf("round %d: Sync: %v", round, err)
			}
		}
		fs.Crash(rng.Intn(512))
		var recs []Record
		var err error
		l, recs, err = Open(testPath, Options{FS: fs, Sync: SyncNever})
		if err != nil {
			t.Fatalf("round %d: Open after crash: %v", round, err)
		}
		if len(recs) > len(acked) {
			t.Fatalf("round %d: recovered %d records but only %d were acked", round, len(recs), len(acked))
		}
		if len(recs) < recovered {
			t.Fatalf("round %d: recovery went backwards: %d records, had %d", round, len(recs), recovered)
		}
		checkRecords(t, recs, acked[:len(recs)])
		// The crash discarded the unsynced suffix for good; the storm
		// continues from the recovered state.
		acked = acked[:len(recs)]
		recovered = len(recs)
		if n := len(recs); n > 0 && l.LastSeq() != recs[n-1].Seq {
			t.Fatalf("round %d: LastSeq %d != last recovered seq %d", round, l.LastSeq(), recs[n-1].Seq)
		}
	}
	l.Close()
}

// TestCrashStormWithFaults mixes torn writes and ENOSPC into the storm:
// failed appends must never surface in recovery, successful ones must
// all survive (SyncAlways), across repeated crashes.
func TestCrashStormWithFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(0xfa17))
	fs := NewMemFS()
	l, _ := mustOpen(t, fs, Options{Sync: SyncAlways})
	var acked []appended
	for round := 0; round < 6; round++ {
		for i, op := range stormOps(rng, 8) {
			switch {
			case i == 2:
				fs.FailNextWrite(rng.Intn(20), nil)
			case i == 5:
				fs.SetWriteLimit(int64(rng.Intn(30)))
			}
			seq, err := l.Append(op.op, op.payload)
			fs.SetWriteLimit(-1)
			if err != nil {
				continue // not acked; must not be recovered
			}
			op.seq = seq
			acked = append(acked, op)
		}
		fs.Crash(rng.Intn(64))
		var recs []Record
		var err error
		l, recs, err = Open(testPath, Options{FS: fs, Sync: SyncAlways})
		if err != nil {
			t.Fatalf("round %d: Open after crash: %v", round, err)
		}
		checkRecords(t, recs, acked)
	}
	l.Close()
}

// FuzzOpen holds recovery to its contract on arbitrary bytes: Open never
// panics, a log it accepts recovers records whose sequence numbers rise
// by exactly 1 each, and reopening the repaired file recovers the same
// records again. The committed corpus under testdata/fuzz/FuzzOpen holds
// logs of 0, 1, 3 and 8 stormOps records, a 6-record log checkpointed
// past its third, and the 3-record log with its last frame torn.
//
// FNV-1a guards against torn writes, not against a forger, so before
// opening the harness re-seals the checksum of every complete frame:
// mutations of lengths, op kinds and sequence numbers then reach the
// framing and sequence checks instead of stopping at a checksum.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		resealFrames(data)
		fs := NewMemFS()
		fs.WriteFile(testPath, data)
		l, recs, err := Open(testPath, Options{FS: fs})
		if err != nil {
			return
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq != recs[i-1].Seq+1 {
				t.Fatalf("record %d has seq %d after %d", i, recs[i].Seq, recs[i-1].Seq)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l2, again, err := Open(testPath, Options{FS: fs})
		if err != nil {
			t.Fatalf("reopening a recovered log: %v", err)
		}
		defer l2.Close()
		if len(again) != len(recs) {
			t.Fatalf("reopen recovered %d records, first open %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i].Seq != recs[i].Seq || again[i].Op != recs[i].Op || !bytes.Equal(again[i].Payload, recs[i].Payload) {
				t.Fatalf("reopen: record %d differs", i)
			}
		}
	})
}

// resealFrames rewrites the checksum of each complete frame after the
// magic header to match its bytes, walking frames by their declared
// lengths until one does not fit.
func resealFrames(b []byte) {
	off := len(magic)
	for off+frameHeaderSize <= len(b) {
		n := int(leUint32(b[off:]))
		end := off + frameHeaderSize + n
		if n > maxPayload || end+frameTrailerSize > len(b) {
			return
		}
		copy(b[end:], appendLeUint64(nil, fnv1a.Sum(b[off:end])))
		off = end + frameTrailerSize
	}
}
