package tdmatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/tdmatch/tdmatch/internal/wal"
)

// WAL op kinds: what each log record's payload encodes.
const (
	walOpIngest uint8 = 1 // walIngestPayload
	walOpRemove uint8 = 2 // walRemovePayload
)

// walIngestPayload is the JSON payload of a walOpIngest record: one
// acknowledged Server.Ingest batch.
type walIngestPayload struct {
	Docs []IngestDoc `json:"docs"`
}

// walRemovePayload is the JSON payload of a walOpRemove record: one
// acknowledged Server.Remove batch.
type walRemovePayload struct {
	IDs []string `json:"ids"`
}

// WALOptions tunes OpenWAL. The zero value is the "always" fsync policy
// on the real filesystem.
type WALOptions struct {
	// Sync is the fsync policy name: "always" (fsync every append before
	// it is acknowledged — the default, and the only policy under which
	// an acked mutation survives any crash), "interval" (fsync on a
	// timer, amortizing the fsync cost across bursts at the risk of
	// losing up to one interval of acked mutations) or "never" (leave
	// flushing to the OS). Empty selects "always".
	Sync string
	// Interval is the flush period under "interval" (default 100ms).
	Interval time.Duration

	// fs lets tests run the log on a fault-injecting in-memory
	// filesystem; nil is the real one.
	fs wal.FS
}

// WALStats snapshots a WAL's counters for /v1/stats.
type WALStats struct {
	// LastSeq is the newest record's sequence number (0 on empty).
	LastSeq uint64 `json:"last_seq"`
	// Appends counts acknowledged mutations logged this process.
	Appends uint64 `json:"appends"`
	// Syncs counts fsyncs issued.
	Syncs uint64 `json:"syncs"`
	// Checkpoints counts log rotations (snapshot saves, compactions).
	Checkpoints uint64 `json:"checkpoints"`
	// SizeBytes is the current log file size.
	SizeBytes int64 `json:"size_bytes"`
	// Policy is the fsync policy name.
	Policy string `json:"policy"`
	// RecoveredRecords is how many records Open recovered for replay.
	RecoveredRecords int `json:"recovered_records"`
}

// WAL is the serving write-ahead log: every acknowledged Server.Ingest
// and Server.Remove is appended (and, under the default "always"
// policy, fsynced) before the mutation is swapped in, so a crashed
// daemon replays the log against its last snapshot and loses no
// acknowledged write. Obtain one with OpenWAL, attach it via
// ServeConfig.WAL, and replay recovered records with Replay before
// serving.
type WAL struct {
	log       *wal.Log
	recovered []wal.Record
}

// OpenWAL opens (creating if missing) the write-ahead log at path and
// recovers its records. A torn tail from a crashed append is repaired;
// mid-log corruption fails with wal.ErrCorrupt rather than silently
// dropping acknowledged operations. Call Replay to apply the recovered
// records to the loaded model.
func OpenWAL(path string, opts WALOptions) (*WAL, error) {
	policy := wal.SyncAlways
	if opts.Sync != "" {
		p, err := wal.ParseSyncPolicy(opts.Sync)
		if err != nil {
			return nil, err
		}
		policy = p
	}
	log, recs, err := wal.Open(path, wal.Options{Sync: policy, Interval: opts.Interval, FS: opts.fs})
	if err != nil {
		return nil, err
	}
	return &WAL{log: log, recovered: recs}, nil
}

// Replay applies the records recovered by OpenWAL to m, in order,
// returning how many were applied. Replay is idempotent against the
// snapshot the model was loaded from: a crash between a snapshot save
// and the log rotation leaves records the snapshot already contains,
// and those are recognized (ErrDuplicateDocument on ingest,
// ErrUnknownDocument on remove) and skipped. Any other failure aborts
// the replay — the log does not match the model, and serving a silently
// diverged state would be worse than refusing to start. On a model
// Snapshot.BindFiles bound without its corpora, the first replayed
// mutation parses them, once for the whole replay.
func (w *WAL) Replay(m *Model) (int, error) {
	applied := 0
	for _, r := range w.recovered {
		switch r.Op {
		case walOpIngest:
			var p walIngestPayload
			if err := json.Unmarshal(r.Payload, &p); err != nil {
				return applied, fmt.Errorf("tdmatch: wal record %d: decoding ingest payload: %w", r.Seq, err)
			}
			if err := m.Ingest(p.Docs); err != nil {
				if errors.Is(err, ErrDuplicateDocument) {
					continue // the snapshot already carries this batch
				}
				return applied, fmt.Errorf("tdmatch: wal record %d: replaying ingest: %w", r.Seq, err)
			}
		case walOpRemove:
			var p walRemovePayload
			if err := json.Unmarshal(r.Payload, &p); err != nil {
				return applied, fmt.Errorf("tdmatch: wal record %d: decoding remove payload: %w", r.Seq, err)
			}
			if err := m.Remove(p.IDs); err != nil {
				if errors.Is(err, ErrUnknownDocument) {
					continue // the snapshot already carries this removal
				}
				return applied, fmt.Errorf("tdmatch: wal record %d: replaying removal: %w", r.Seq, err)
			}
		default:
			return applied, fmt.Errorf("tdmatch: wal record %d has unknown op kind %d", r.Seq, r.Op)
		}
		applied++
	}
	return applied, nil
}

// appendIngest logs one acknowledged ingest batch and returns its
// sequence number. An error means the record is NOT durably logged and
// the mutation must not be acknowledged.
func (w *WAL) appendIngest(docs []IngestDoc) (uint64, error) {
	payload, err := json.Marshal(walIngestPayload{Docs: docs})
	if err != nil {
		return 0, fmt.Errorf("tdmatch: encoding wal ingest record: %w", err)
	}
	return w.log.Append(walOpIngest, payload)
}

// appendRemove logs one acknowledged removal batch; see appendIngest.
func (w *WAL) appendRemove(ids []string) (uint64, error) {
	payload, err := json.Marshal(walRemovePayload{IDs: ids})
	if err != nil {
		return 0, fmt.Errorf("tdmatch: encoding wal remove record: %w", err)
	}
	return w.log.Append(walOpRemove, payload)
}

// Checkpoint drops every record with sequence number <= upTo by
// rotating the log. Call it only after a model snapshot covering those
// records has been durably saved — Server.Checkpoint sequences the two
// correctly.
func (w *WAL) Checkpoint(upTo uint64) error { return w.log.Checkpoint(upTo) }

// Sync flushes pending appends to stable storage regardless of policy
// (the daemon calls it on graceful shutdown).
func (w *WAL) Sync() error { return w.log.Sync() }

// Close flushes and closes the log. Idempotent.
func (w *WAL) Close() error { return w.log.Close() }

// LastSeq returns the newest record's sequence number (appended or
// recovered; 0 on an empty log).
func (w *WAL) LastSeq() uint64 { return w.log.LastSeq() }

// Stats snapshots the log's counters.
func (w *WAL) Stats() WALStats {
	st := w.log.Stats()
	return WALStats{
		LastSeq:          st.LastSeq,
		Appends:          st.Appends,
		Syncs:            st.Syncs,
		Checkpoints:      st.Checkpoints,
		SizeBytes:        st.SizeBytes,
		Policy:           st.Policy,
		RecoveredRecords: len(w.recovered),
	}
}
