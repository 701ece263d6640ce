// Command tdserved is the long-running serving daemon: it loads a model
// snapshot (see cmd/tdmatch's -save) plus the two corpora it was trained
// on, and serves JSON-over-HTTP matching queries behind a result cache
// and a micro-batching worker pool.
//
// Usage:
//
//	tdmatch  -first movies.csv -second reviews.txt -save model.snap
//	tdserved -first movies.csv -second reviews.txt -model model.snap -addr :8080
//
// Endpoints:
//
//	POST /v1/topk    {"id": "second:p0", "k": 5}        → one ranking
//	POST /v1/batch   {"ids": ["second:p0", ...], "k": 5} → many, fanned out
//	POST /v1/ingest  {"docs": [{"side": 2, "id": "...", "values": ["..."]}]}
//	POST /v1/remove  {"ids": ["second:p0", ...]}
//	POST /v1/compact retrain off-line, swap in the compacted model
//	POST /v1/reload  reload corpora + snapshot from disk, swap atomically
//	GET  /v1/stats   serving counters, cache hit rate, model metadata
//	GET  /healthz    liveness: 200 with the served model's identity
//	GET  /readyz     readiness: 200 when accepting traffic, 503 draining
//
// /v1/ingest and /v1/remove mutate the served model live: the daemon
// clones it, applies the delta (a new document's vector is folded in
// from the trained term vectors, and the serving index takes an
// appended row or a tombstone) and swaps the clone in atomically —
// queries issued afterwards see the new corpus immediately, and the
// result cache is invalidated by the generation bump. Only compaction
// (/v1/compact, or the -compact-above background loop) retrains.
//
// With -wal set, every acknowledged mutation is appended to a durable
// write-ahead log before it becomes visible: a crashed daemon replays
// the log against the snapshot on restart and loses no acknowledged
// write (under the default -wal-sync=always; see the README ops runbook
// for the fsync-policy tradeoffs). Snapshot saves and successful
// compactions checkpoint the log. Without -wal, live deltas exist only
// in memory until the snapshot is re-saved, and a reload from disk
// reverts them.
//
// A v6 snapshot is memory-mapped and bound zero-copy. Under the default
// -snapshot-verify eager its section checksums are checked on one core
// while the model binds on the other, so a cold start costs about the
// longer of the two; no request is served and no reload swaps before
// every check has passed. -snapshot-verify lazy skips the payload
// checksums, for files trusted by construction.
//
// Queries never read a document's text. A v6 snapshot saved from a
// model trained on corpus files records each file's size and CRC32C;
// when -first and -second still match them, the daemon starts without
// parsing the corpora, and the first ingest, removal or compaction
// parses them (re-checking them, and refusing the mutation when they
// have changed and no longer cover the snapshot). Any other snapshot,
// or a file that no longer matches, is parsed at start and checked to
// cover the snapshot, as before.
//
// SIGHUP triggers the same reload as POST /v1/reload: the daemon re-reads
// the corpus and snapshot files and swaps the new model in behind the
// in-flight queries. Retrain with cmd/tdmatch, overwrite the snapshot,
// signal the daemon — zero downtime. SIGTERM and SIGINT shut down
// gracefully: readiness flips to 503, in-flight requests drain (bounded
// by -drain-timeout), the WAL is flushed, and with -exit-snapshot the
// model is saved and the log rotated before exit.
//
// Overload degrades instead of cascading: request bodies are capped
// (-max-body, 413 beyond it), admission is bounded (-max-inflight, 503
// with Retry-After when saturated or draining), and queries carry a
// deadline (-query-timeout, 503 with Retry-After on expiry).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/tdmatch/tdmatch"
)

func main() {
	var (
		firstPath  = flag.String("first", "", "first corpus file (as passed to the training run)")
		secondPath = flag.String("second", "", "second corpus file (as passed to the training run)")
		modelPath  = flag.String("model", "", "model snapshot written by tdmatch -save (v6; a gob file of versions 1-5 loads too, and the first checkpoint rewrites it as v6)")
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		cacheSize  = flag.Int("cache", 0, "result-cache entries (0 = 4096, negative disables)")
		batchWin   = flag.Duration("batch-window", 0, "micro-batch coalescing window (0 = 200µs, negative = none: batch only what is already queued)")
		workers    = flag.Int("workers", 0, "serving worker-pool size (0 = model default, GOMAXPROCS)")
		defaultK   = flag.Int("k", 5, "matches returned when a request omits k")

		walPath      = flag.String("wal", "", "write-ahead log path; empty serves without durability")
		walSync      = flag.String("wal-sync", "", "WAL fsync policy: always, interval or never (empty = always)")
		walInterval  = flag.Duration("wal-sync-interval", 0, "flush period under -wal-sync=interval (0 = default 100ms)")
		maxBody      = flag.Int64("max-body", 0, "request body cap in bytes (0 = default 8 MiB, negative disables)")
		maxInflight  = flag.Int("max-inflight", 0, "admission cap on concurrent requests (0 = default 256, negative disables)")
		queryTimeout = flag.Duration("query-timeout", 0, "per-query deadline for /v1/topk and /v1/batch (0 = default 2s, negative disables)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		exitSnapshot = flag.Bool("exit-snapshot", false, "save the model snapshot (and rotate the WAL) on graceful shutdown")
		compactAbove = flag.Int("compact-above", 0, "staleness threshold for background compaction (0 disables)")
		compactEvery = flag.Duration("compact-interval", 30*time.Second, "background compaction poll period")
		snapVerify   = flag.String("snapshot-verify", "eager", "v6 snapshot verification at load: eager (every section checksum) or lazy (header and structure only)")
	)
	flag.Parse()
	if *firstPath == "" || *secondPath == "" || *modelPath == "" {
		fmt.Fprintln(os.Stderr, "tdserved: -first, -second and -model are required")
		flag.Usage()
		os.Exit(2)
	}

	d, err := newDaemon(*firstPath, *secondPath, *modelPath, tdmatch.ServeConfig{
		CacheSize:   *cacheSize,
		BatchWindow: *batchWin,
		Workers:     *workers,
	}, *defaultK, daemonOptions{
		walPath:      *walPath,
		wal:          tdmatch.WALOptions{Sync: *walSync, Interval: *walInterval},
		maxBody:      *maxBody,
		maxInflight:  *maxInflight,
		queryTimeout: *queryTimeout,
		snapVerify:   *snapVerify,
	})
	if err != nil {
		log.Fatalf("tdserved: %v", err)
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := d.reload(); err != nil {
				log.Printf("tdserved: SIGHUP reload failed, keeping current model: %v", err)
				continue
			}
			log.Printf("tdserved: SIGHUP reload ok (%d reloads)", d.server.Stats().Reloads)
		}
	}()

	bgCtx, bgCancel := context.WithCancel(context.Background())
	defer bgCancel()
	if *compactAbove > 0 {
		go d.compactLoop(bgCtx, *compactAbove, *compactEvery)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("tdserved: listening on %s: %v", *addr, err)
	}
	info := d.info()
	log.Printf("tdserved: serving %s/%s (%d vectors, dim %d, index %s) on %s",
		info.FirstName, info.SecondName, info.Docs, info.Dim, info.Index, ln.Addr())

	srv := &http.Server{Handler: newHandler(d)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		log.Fatalf("tdserved: serve: %v", err)
	case sig := <-stop:
		log.Printf("tdserved: %s received, draining (budget %s)", sig, *drainTimeout)
	}
	bgCancel()
	os.Exit(d.shutdown(srv, *drainTimeout, *exitSnapshot))
}

// daemonOptions are the operational knobs of the daemon beyond the
// embedded Server's tuning: durability, admission control and deadlines.
// Zero values select the documented defaults; negative values disable
// the corresponding limit.
type daemonOptions struct {
	walPath      string
	wal          tdmatch.WALOptions
	maxBody      int64
	maxInflight  int
	queryTimeout time.Duration
	// snapVerify is the v6 load-time verification depth ("eager", the
	// default, or "lazy").
	snapVerify string
}

// daemon owns the serving state: the Server plus the on-disk paths a
// reload re-reads. reloadMu serializes reloads (concurrent /v1/reload
// posts and SIGHUPs get a consistent swap order); queries — including
// /healthz and /v1/stats, which must stay responsive while a slow
// reload rebuilds indexes — never take it (modelInf is an atomic).
type daemon struct {
	firstPath, secondPath, modelPath string
	defaultK                         int
	server                           *tdmatch.Server
	started                          time.Time

	// wal is the durability log (nil without -wal). The daemon owns its
	// lifecycle: opened and replayed before serving, flushed and closed
	// on shutdown, rotated on snapshot saves and compactions.
	wal *tdmatch.WAL

	// draining flips once shutdown starts: /readyz turns 503 and guarded
	// endpoints shed with Retry-After while http.Server.Shutdown drains
	// the in-flight requests.
	draining atomic.Bool
	// inflight is the admission semaphore (nil = unbounded): a request
	// that cannot take a slot without blocking is shed with 503.
	inflight     chan struct{}
	maxBody      int64
	queryTimeout time.Duration

	// verify is the v6 load-time verification mode.
	verify tdmatch.VerifyMode

	reloadMu sync.Mutex
	modelInf atomic.Pointer[tdmatch.ModelInfo]
}

// newDaemon loads the corpora and snapshot, replays the WAL (when
// configured) and wraps the recovered model in a Server.
func newDaemon(firstPath, secondPath, modelPath string, sc tdmatch.ServeConfig, defaultK int, opts daemonOptions) (*daemon, error) {
	d := &daemon{
		firstPath:  firstPath,
		secondPath: secondPath,
		modelPath:  modelPath,
		defaultK:   defaultK,
		started:    time.Now(),
	}
	if opts.maxBody == 0 {
		opts.maxBody = 8 << 20
	}
	if opts.maxBody > 0 {
		d.maxBody = opts.maxBody
	}
	if opts.maxInflight == 0 {
		opts.maxInflight = 256
	}
	if opts.maxInflight > 0 {
		d.inflight = make(chan struct{}, opts.maxInflight)
	}
	if opts.queryTimeout == 0 {
		opts.queryTimeout = 2 * time.Second
	}
	if opts.queryTimeout > 0 {
		d.queryTimeout = opts.queryTimeout
	}
	switch opts.snapVerify {
	case "", "eager":
		d.verify = tdmatch.VerifyEager
	case "lazy":
		d.verify = tdmatch.VerifyLazy
	default:
		return nil, fmt.Errorf("unknown -snapshot-verify %q (want eager or lazy)", opts.snapVerify)
	}
	model, info, err := d.load()
	if err != nil {
		return nil, err
	}
	if opts.walPath != "" {
		w, err := tdmatch.OpenWAL(opts.walPath, opts.wal)
		if err != nil {
			return nil, fmt.Errorf("opening wal %s: %w", opts.walPath, err)
		}
		applied, err := w.Replay(model)
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("replaying wal %s: %w", opts.walPath, err)
		}
		if n := w.Stats().RecoveredRecords; n > 0 {
			log.Printf("tdserved: wal %s: recovered %d records, applied %d", opts.walPath, n, applied)
		}
		if t := model.CorpusParseTime(); t > 0 {
			log.Printf("tdserved: wal replay parsed the deferred corpora in %s", t.Round(time.Microsecond))
		}
		d.wal = w
		sc.WAL = w
	}
	d.modelInf.Store(&info)
	d.server = tdmatch.NewServer(model, sc)
	log.Printf("tdserved: training kernel %s (compaction)", tdmatch.TrainKernel())
	return d, nil
}

// load opens the model snapshot and binds it to the corpus files — the
// shared path of startup and hot reload. The snapshot is opened exactly
// once (LoadSnapshotFile), so the served model and the reported
// ModelInfo can never diverge even when a retraining job overwrites the
// file mid-reload, and a large vector arena is never decoded twice: a v6
// snapshot is memory-mapped and bound zero-copy, gob versions decode
// through the classic path. The corpus files are parsed only when they
// must be (Snapshot.BindFiles): a v6 snapshot that fingerprints them,
// and still matches them, binds without them, and the first mutation
// parses them. Under eager verification the checksums run on a second
// core while bindCorpora binds, and load returns a model only after
// they have passed; on any failure the mapping is released.
func (d *daemon) load() (*tdmatch.Model, tdmatch.ModelInfo, error) {
	start := time.Now()
	var (
		snap    *tdmatch.Snapshot
		info    tdmatch.ModelInfo
		opened  time.Duration
		corpora string
		bindErr error
	)
	model, err := tdmatch.LoadSnapshotFile(d.modelPath, d.verify, func(s *tdmatch.Snapshot) (*tdmatch.Model, error) {
		snap, info, opened = s, s.Info(), time.Since(start)
		m, note, err := d.bindCorpora(s, info)
		corpora, bindErr = note, err
		return m, err
	})
	switch {
	case err == nil:
	case bindErr != nil && errors.Is(err, bindErr):
		return nil, info, err
	case errors.Is(err, os.ErrNotExist) || errors.Is(err, os.ErrPermission):
		return nil, tdmatch.ModelInfo{}, fmt.Errorf("opening model snapshot: %w", err)
	default:
		return nil, tdmatch.ModelInfo{}, fmt.Errorf("reading model snapshot %s: %w", d.modelPath, err)
	}
	line := fmt.Sprintf("tdserved: snapshot %s: load mode %s, verify %s, opened in %s",
		d.modelPath, snap.LoadMode(), d.verify, opened.Round(time.Microsecond))
	if v := snap.VerifyTime(); v > 0 {
		line += fmt.Sprintf(", verified in %s beside the bind", v.Round(time.Microsecond))
	}
	log.Print(line + ", " + corpora)
	fi, si := model.IndexStats()
	log.Printf("tdserved: index %s: first %s; second %s", fi.Kind, indexLine(fi), indexLine(si))
	return model, info, nil
}

// bindCorpora is the part of a load that needs the decoded snapshot but
// not its payload checksums: it binds the model to the corpus files,
// which parses them unless the snapshot's fingerprint of them still
// matches, and checks that parsed corpora cover the model. The note
// says which of the two happened.
func (d *daemon) bindCorpora(snap *tdmatch.Snapshot, info tdmatch.ModelInfo) (*tdmatch.Model, string, error) {
	if info.LegacyIndex != "" {
		log.Printf("tdserved: snapshot %s was saved with the removed %s index; serving its arena as an exact flat scan",
			d.modelPath, info.LegacyIndex)
	}
	return snap.BindFiles(d.firstPath, d.secondPath)
}

// logCorpusParse logs what the mutation that just swapped its model in
// spent parsing the corpus files, when it was the first mutation of a
// model bound without them.
func (d *daemon) logCorpusParse(op string) {
	if t := d.server.Model().CorpusParseTime(); t > 0 {
		log.Printf("tdserved: %s parsed the deferred corpora in %s", op, t.Round(time.Microsecond))
	}
}

// indexLine formats one side's IndexStats for the startup log line that
// sits next to the load-mode line: row counts for every kind, plus the
// graph shape under HNSW serving.
func indexLine(st tdmatch.IndexStats) string {
	s := fmt.Sprintf("%d rows (%d live)", st.Rows, st.LiveRows)
	if st.Kind == "hnsw" {
		s += fmt.Sprintf(", max level %d, avg degree %.1f, ef %d", st.MaxLevel, st.AvgDegree, st.Ef)
	}
	return s
}

// reload re-reads everything from disk and swaps the model in atomically.
// On any error the running model keeps serving. With a WAL attached the
// log is rotated after the swap: the reloaded snapshot is the new
// authoritative baseline, and replaying pre-reload records over it on a
// future restart would resurrect state the reload deliberately replaced.
func (d *daemon) reload() error {
	d.reloadMu.Lock()
	defer d.reloadMu.Unlock()
	model, info, err := d.load()
	if err != nil {
		return err
	}
	var horizon uint64
	if d.wal != nil {
		horizon = d.wal.LastSeq()
	}
	if err := d.server.Reload(model); err != nil {
		return err
	}
	d.modelInf.Store(&info)
	if d.wal != nil {
		if err := d.wal.Checkpoint(horizon); err != nil {
			log.Printf("tdserved: wal rotation after reload failed (stale records remain): %v", err)
		}
	}
	return nil
}

// checkpoint saves the served model to the snapshot path as v6
// (atomically: the saver renames a synced sidecar into place and fsyncs
// the parent directory), and rotates the WAL past everything the
// snapshot now contains. A daemon started on a gob snapshot rewrites it
// as v6 here.
func (d *daemon) checkpoint() error {
	return d.server.Checkpoint(d.saveModelFile)
}

// saveModelFile writes one v6 snapshot and logs what it cost. A save
// serializes clean sealed segments from the live index and rebuilds
// those holding tombstones: a daemon whose log keeps showing rebuilds is
// paying for removals it never compacts.
func (d *daemon) saveModelFile(m *tdmatch.Model) error {
	st, err := m.SaveFileV6Stats(d.modelPath)
	if err != nil {
		return err
	}
	log.Printf("tdserved: saved %s (v6): segments reused %d, rebuilt %d, %d ms",
		d.modelPath, st.SegmentsReused, st.SegmentsRebuilt, st.Elapsed.Milliseconds())
	return nil
}

// shutdown is the graceful exit path: drain in-flight requests within
// the budget, optionally save an exit snapshot (rotating the WAL), stop
// the serving collector, and flush + close the log. Returns the process
// exit code: 0 only when every step succeeded.
func (d *daemon) shutdown(srv *http.Server, drain time.Duration, exitSnapshot bool) int {
	d.draining.Store(true)
	code := 0
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("tdserved: drain incomplete after %s: %v", drain, err)
		code = 1
	}
	if exitSnapshot {
		if err := d.checkpoint(); err != nil {
			log.Printf("tdserved: exit snapshot failed: %v", err)
			code = 1
		}
	}
	d.server.Close()
	if d.wal != nil {
		if err := d.wal.Sync(); err != nil {
			log.Printf("tdserved: flushing wal: %v", err)
			code = 1
		}
		if err := d.wal.Close(); err != nil {
			log.Printf("tdserved: closing wal: %v", err)
			code = 1
		}
	}
	log.Printf("tdserved: shutdown complete")
	return code
}

// compactLoop watches staleness and compacts in the background once it
// crosses threshold, checkpointing the WAL after each success. Failures
// retry with jittered exponential backoff (1s doubling to a 5m cap) so
// a persistently failing rebuild cannot hot-loop the CPU; any success
// resets the backoff.
func (d *daemon) compactLoop(ctx context.Context, threshold int, interval time.Duration) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var backoff time.Duration
	for {
		wait := interval
		if backoff > 0 {
			// Full jitter on [backoff, 2*backoff): concurrent daemons
			// recovering from a shared fault spread their retries out.
			wait = backoff + time.Duration(rng.Int63n(int64(backoff)+1))
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
		if d.server.Stats().Staleness < threshold {
			continue
		}
		if err := d.server.CompactCtx(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			if errors.Is(err, tdmatch.ErrCompacting) {
				continue // a manual /v1/compact is already running
			}
			if backoff == 0 {
				backoff = time.Second
			} else if backoff *= 2; backoff > 5*time.Minute {
				backoff = 5 * time.Minute
			}
			log.Printf("tdserved: background compaction failed (retrying in ~%s): %v", backoff, err)
			continue
		}
		backoff = 0
		d.logCorpusParse("background compaction")
		if d.wal != nil {
			if err := d.checkpoint(); err != nil {
				log.Printf("tdserved: checkpoint after background compaction failed: %v", err)
			}
		}
		log.Printf("tdserved: background %s (staleness was >= %d)", d.compactionLine(), threshold)
	}
}

// compactionLine reports what the compaction that just finished spent
// retraining, read off the model it swapped in: without it the seconds
// an operator waits on /v1/compact are invisible.
func (d *daemon) compactionLine() string {
	st := d.server.Model().Stats()
	return fmt.Sprintf("compaction ok: train %d ms, %d tokens, %.0f tokens/s",
		st.TrainTime.Milliseconds(), st.TrainTokens, st.TrainTokensPerSecond())
}

// info snapshots the served model's metadata without blocking on an
// in-progress reload.
func (d *daemon) info() tdmatch.ModelInfo {
	return *d.modelInf.Load()
}

// newHandler wires the HTTP API around a daemon. Split from main so tests
// drive it through httptest. Serving and mutating endpoints go through
// guard (draining check, admission semaphore, body cap); the health and
// stats probes bypass it so monitoring stays responsive under overload.
func newHandler(d *daemon) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/topk", d.guard(d.handleTopK))
	mux.HandleFunc("POST /v1/batch", d.guard(d.handleBatch))
	mux.HandleFunc("POST /v1/ingest", d.guard(d.handleIngest))
	mux.HandleFunc("POST /v1/remove", d.guard(d.handleRemove))
	mux.HandleFunc("POST /v1/compact", d.guard(d.handleCompact))
	mux.HandleFunc("POST /v1/reload", d.guard(d.handleReload))
	mux.HandleFunc("GET /v1/stats", d.handleStats)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	return mux
}

// guard is the admission middleware: requests are shed with 503 and
// Retry-After while the daemon drains or once -max-inflight requests
// are already being served, and request bodies are capped at -max-body
// (a too-large body surfaces as 413 from the handler's decode).
func (d *daemon) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if d.draining.Load() {
			shed(w, errors.New("shutting down"))
			return
		}
		if d.inflight != nil {
			select {
			case d.inflight <- struct{}{}:
				defer func() { <-d.inflight }()
			default:
				shed(w, errors.New("too many in-flight requests"))
				return
			}
		}
		if d.maxBody > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, d.maxBody)
		}
		h(w, r)
	}
}

// shed answers 503 with Retry-After: the client should back off briefly
// and retry — the condition (overload, drain) is transient by design.
func shed(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, err)
}

// queryCtx derives the per-query deadline from the request context.
func (d *daemon) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if d.queryTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d.queryTimeout)
}

// decodeStatus maps a request-decoding failure to its HTTP status:
// a body over the -max-body cap is 413, anything else 400.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// topkRequest is the body of POST /v1/topk.
type topkRequest struct {
	ID string `json:"id"`
	K  int    `json:"k"` // 0 = the daemon's -k default
}

// matchJSON is one ranked candidate on the wire.
type matchJSON struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// topkResponse is the body of a /v1/topk answer and one /v1/batch result.
type topkResponse struct {
	ID      string      `json:"id"`
	Matches []matchJSON `json:"matches"`
	Error   string      `json:"error,omitempty"`
}

// batchRequest is the body of POST /v1/batch.
type batchRequest struct {
	IDs []string `json:"ids"`
	K   int      `json:"k"` // 0 = the daemon's -k default
}

// batchResponse is the body of a /v1/batch answer; Results aligns with
// the request's IDs, failed queries carry Error in place of Matches.
type batchResponse struct {
	Results []topkResponse `json:"results"`
}

// statsResponse is the body of GET /v1/stats.
type statsResponse struct {
	tdmatch.ServeStats
	CacheHitRate  float64           `json:"cache_hit_rate"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Model         modelInfoResponse `json:"model"`
}

// modelInfoResponse is the served snapshot's metadata in /v1/stats and
// /healthz.
type modelInfoResponse struct {
	First   string `json:"first"`
	Second  string `json:"second"`
	Docs    int    `json:"docs"`
	Dim     int    `json:"dim"`
	Index   string `json:"index"`
	HNSWM   int    `json:"hnsw_m,omitempty"`
	HNSWEf  int    `json:"hnsw_ef,omitempty"`
	HNSWEfC int    `json:"hnsw_ef_construct,omitempty"`
}

func (d *daemon) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req topkRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, decodeStatus(err), fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.ID == "" {
		httpError(w, http.StatusBadRequest, errors.New(`"id" is required`))
		return
	}
	if req.K < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf(`"k" must be positive, got %d`, req.K))
		return
	}
	if req.K == 0 {
		req.K = d.defaultK
	}
	ctx, cancel := d.queryCtx(r)
	defer cancel()
	matches, err := d.server.TopKCtx(ctx, req.ID, req.K)
	if err != nil {
		if isOverload(err) {
			shed(w, err)
			return
		}
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, topkResponse{ID: req.ID, Matches: toMatchJSON(matches)})
}

// isOverload reports errors that mean "try again shortly" rather than
// "this query is wrong": shed queue slots, expired deadlines, a server
// already shutting down.
func isOverload(err error) bool {
	return errors.Is(err, tdmatch.ErrOverloaded) ||
		errors.Is(err, tdmatch.ErrServerClosed) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

func (d *daemon) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, decodeStatus(err), fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.IDs) == 0 {
		httpError(w, http.StatusBadRequest, errors.New(`"ids" is required`))
		return
	}
	for i, id := range req.IDs {
		if id == "" {
			httpError(w, http.StatusBadRequest, fmt.Errorf(`"ids"[%d] is empty`, i))
			return
		}
	}
	if req.K < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf(`"k" must be positive, got %d`, req.K))
		return
	}
	if req.K == 0 {
		req.K = d.defaultK
	}
	ctx, cancel := d.queryCtx(r)
	defer cancel()
	results := d.server.TopKBatchCtx(ctx, req.IDs, req.K)
	resp := batchResponse{Results: make([]topkResponse, len(results))}
	for i, res := range results {
		out := topkResponse{ID: res.ID}
		if res.Err != nil {
			out.Error = res.Err.Error()
		} else {
			out.Matches = toMatchJSON(res.Matches)
		}
		resp.Results[i] = out
	}
	writeJSON(w, http.StatusOK, resp)
}

// ingestDocJSON is one document of POST /v1/ingest.
type ingestDocJSON struct {
	Side   int      `json:"side"`
	ID     string   `json:"id"`
	Values []string `json:"values"`
	Parent string   `json:"parent,omitempty"`
}

// ingestRequest is the body of POST /v1/ingest.
type ingestRequest struct {
	Docs []ingestDocJSON `json:"docs"`
}

// removeRequest is the body of POST /v1/remove.
type removeRequest struct {
	IDs []string `json:"ids"`
}

// mutateResponse answers /v1/ingest and /v1/remove with the new
// serving state.
type mutateResponse struct {
	Status    string `json:"status"`
	Docs      int    `json:"docs"`
	Staleness int    `json:"staleness"`
}

func (d *daemon) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, decodeStatus(err), fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Docs) == 0 {
		httpError(w, http.StatusBadRequest, errors.New(`"docs" is required`))
		return
	}
	docs := make([]tdmatch.IngestDoc, len(req.Docs))
	for i, jd := range req.Docs {
		docs[i] = tdmatch.IngestDoc{Side: jd.Side, ID: jd.ID, Values: jd.Values, Parent: jd.Parent}
	}
	if err := d.server.Ingest(docs); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, tdmatch.ErrDuplicateDocument) {
			status = http.StatusConflict
		}
		httpError(w, status, err)
		return
	}
	d.logCorpusParse("ingest")
	writeJSON(w, http.StatusOK, mutateResponse{
		Status:    "ok",
		Docs:      len(docs),
		Staleness: d.server.Stats().Staleness,
	})
}

func (d *daemon) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req removeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, decodeStatus(err), fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.IDs) == 0 {
		httpError(w, http.StatusBadRequest, errors.New(`"ids" is required`))
		return
	}
	if err := d.server.Remove(req.IDs); err != nil {
		// Unknown documents are the not-found case; everything else
		// (duplicate IDs in the batch, ...) is a malformed request.
		status := http.StatusBadRequest
		if errors.Is(err, tdmatch.ErrUnknownDocument) {
			status = http.StatusNotFound
		}
		httpError(w, status, err)
		return
	}
	d.logCorpusParse("remove")
	writeJSON(w, http.StatusOK, mutateResponse{
		Status:    "ok",
		Docs:      len(req.IDs),
		Staleness: d.server.Stats().Staleness,
	})
}

// handleCompact folds the delta chain into a full retrain: queries keep
// hitting the old model while a clone recompacts off to the side, then
// the daemon swaps atomically. A request arriving while a compaction is
// already running is answered 409 rather than queued. With a WAL
// attached, a successful compaction is followed by a checkpoint: the
// compacted model is saved to the snapshot path and the log rotated, so
// a restart replays only post-compaction mutations.
func (d *daemon) handleCompact(w http.ResponseWriter, r *http.Request) {
	if err := d.server.CompactCtx(r.Context()); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, tdmatch.ErrCompacting) {
			status = http.StatusConflict
		}
		httpError(w, status, err)
		return
	}
	d.logCorpusParse("compaction")
	log.Printf("tdserved: %s", d.compactionLine())
	checkpointed := false
	if d.wal != nil {
		if err := d.checkpoint(); err != nil {
			// The compaction itself succeeded and the WAL still covers
			// every live mutation; the rotation is retried on the next
			// checkpoint trigger.
			log.Printf("tdserved: checkpoint after compaction failed: %v", err)
		} else {
			checkpointed = true
		}
	}
	st := d.server.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"compactions":  st.Compactions,
		"staleness":    st.Staleness,
		"checkpointed": checkpointed,
	})
}

func (d *daemon) handleReload(w http.ResponseWriter, r *http.Request) {
	if err := d.reload(); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"reloads": d.server.Stats().Reloads,
	})
}

func (d *daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	st := d.server.Stats()
	rate := 0.0
	if probes := st.CacheHits + st.CacheMisses; probes > 0 {
		rate = float64(st.CacheHits) / float64(probes)
	}
	writeJSON(w, http.StatusOK, statsResponse{
		ServeStats:    st,
		CacheHitRate:  rate,
		UptimeSeconds: time.Since(d.started).Seconds(),
		Model:         d.modelInfoResponse(),
	})
}

// handleHealthz is the liveness probe: 200 whenever the process can
// answer at all, draining included — a draining daemon is alive, just
// not ready.
func (d *daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"model":  d.modelInfoResponse(),
	})
}

// handleReadyz is the readiness probe: 200 while accepting traffic, 503
// once draining — load balancers stop routing to it while in-flight
// requests finish.
func (d *daemon) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if d.draining.Load() {
		shed(w, errors.New("draining"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// modelInfoResponse projects the current ModelInfo onto the wire shape.
func (d *daemon) modelInfoResponse() modelInfoResponse {
	info := d.info()
	out := modelInfoResponse{
		First:  info.FirstName,
		Second: info.SecondName,
		Docs:   info.Docs,
		Dim:    info.Dim,
		Index:  info.Index.String(),
	}
	if info.Index == tdmatch.IndexHNSW {
		out.HNSWM, out.HNSWEf, out.HNSWEfC = info.HNSWM, info.HNSWEf, info.HNSWEfConstruct
		if out.HNSWM == 0 {
			out.HNSWM = tdmatch.DefaultHNSWM
		}
		if out.HNSWEf == 0 {
			out.HNSWEf = tdmatch.DefaultHNSWEf
		}
		if out.HNSWEfC == 0 {
			out.HNSWEfC = tdmatch.DefaultHNSWEfConstruct
		}
	}
	return out
}

func toMatchJSON(matches []tdmatch.Match) []matchJSON {
	out := make([]matchJSON, len(matches))
	for i, m := range matches {
		out[i] = matchJSON{ID: m.ID, Score: m.Score}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("tdserved: encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
