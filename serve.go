package tdmatch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tdmatch/tdmatch/internal/fnv1a"
)

// ErrServerClosed is returned by Server queries issued after Close.
var ErrServerClosed = errors.New("tdmatch: server closed")

// ErrCompacting is returned by Server.Compact when a compaction is
// already running.
var ErrCompacting = errors.New("tdmatch: compaction already running")

// ErrOverloaded is returned by queries that arrive while the micro-batch
// queue is full: the server sheds them immediately instead of queueing
// unboundedly (tdserved maps it to HTTP 503 with Retry-After).
var ErrOverloaded = errors.New("tdmatch: server overloaded")

// serveMaxBatch caps one coalesced micro-batch; a burst larger than this
// is split into consecutive worker-pool passes rather than held back.
const serveMaxBatch = 256

// serveQueueDepth bounds the micro-batch queue: queries beyond this many
// waiting fail fast with ErrOverloaded instead of queueing unboundedly,
// so an overload degrades into shed requests rather than growing latency
// and memory without bound.
const serveQueueDepth = 4 * serveMaxBatch

// defaultCacheEntries is the result-cache capacity, in entries summed
// across shards, when ServeConfig.CacheSize is 0. Each entry holds one
// (document, k) ranking, so this is about 4096 × k resident Match values.
const defaultCacheEntries = 4096

// defaultBatchWindow is the collector's batching window when
// ServeConfig.BatchWindow is 0.
const defaultBatchWindow = 200 * time.Microsecond

// ServeConfig tunes a Server. The zero value is a 4096-entry result
// cache, a 200µs batching window and the model's Config.Workers query
// fan-out.
type ServeConfig struct {
	// CacheSize bounds the result cache in entries (0 selects 4096;
	// negative disables caching).
	CacheSize int
	// BatchWindow is how long the collector holds a batch open for more
	// queries after the first arrives (0 selects 200µs). Negative means
	// no window: the collector takes only what is already queued, so a
	// lone query is scored at once and a batch forms only from queries
	// that arrived while the previous one was scanning. The runtime
	// rounds the wait up to whole milliseconds (an idle processor sleeps
	// in epoll_wait, whose timeout runtime/netpoll_epoll.go rounds up to
	// 1 ms), so on Linux a lone query pays about 1.1 ms at any window up
	// to 1 ms (BenchmarkServeTopKColdBatched against
	// BenchmarkServeTopKCold).
	BatchWindow time.Duration
	// Workers bounds the per-batch fan-out and the TopKBatch pool
	// (0 inherits the model's Config.Workers, default GOMAXPROCS).
	Workers int
	// WAL, when non-nil, makes mutations durable: every Ingest and
	// Remove appends its batch to the log before the new model is
	// swapped in (and before the caller is acknowledged), so a crashed
	// process replays the log against its last snapshot and loses no
	// acknowledged write. Open it with OpenWAL and Replay the recovered
	// records onto the model before NewServer.
	WAL *WAL
}

// ServeStats is a point-in-time snapshot of a Server's counters, suitable
// for JSON exposition (tdserved's GET /v1/stats).
type ServeStats struct {
	// Queries counts TopK and TopKBatch queries accepted (including
	// cache hits and failed lookups).
	Queries uint64 `json:"queries"`
	// CacheHits / CacheMisses count result-cache probes; their sum can
	// exceed Queries because batched queries re-probe at execution time.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// CacheEntries is the current number of resident rankings.
	CacheEntries int `json:"cache_entries"`
	// Batches counts the collector's worker-pool passes; BatchedQueries
	// counts the uncached TopK queries they served. A lone query is a
	// batch of one, so BatchedQueries/Batches is the coalescing factor
	// the load produced (1 under no concurrency).
	Batches        uint64 `json:"batches"`
	BatchedQueries uint64 `json:"batched_queries"`
	// Reloads counts successful model swaps (initial load excluded).
	Reloads uint64 `json:"reloads"`
	// Ingests / IngestedDocs count successful Ingest calls and the
	// documents they added; Removes / RemovedDocs count Remove calls and
	// the documents they deleted. Each call swaps the model generation,
	// so cached rankings from before the mutation can never resurface.
	Ingests      uint64 `json:"ingests"`
	IngestedDocs uint64 `json:"ingested_docs"`
	Removes      uint64 `json:"removes"`
	RemovedDocs  uint64 `json:"removed_docs"`
	// Staleness is the served model's delta-document count since its
	// last full (re)build — the compaction signal.
	Staleness int `json:"staleness"`
	// Compactions counts completed online compactions (Server.Compact).
	Compactions uint64 `json:"compactions"`
	// Generation is the served model's swap generation: every Reload,
	// Ingest, Remove and Compact installs a strictly higher one, so a
	// monitoring scrape can order snapshots.
	Generation uint64 `json:"generation"`
	// FirstSegments / SecondSegments describe each side's serving
	// segment stack (sealed segments, delta rows, tombstones).
	FirstSegments  SegmentStats `json:"first_segments"`
	SecondSegments SegmentStats `json:"second_segments"`
	// FirstIndex / SecondIndex identify each side's serving index: kind,
	// resident and live rows, plus the graph shape under HNSW serving.
	FirstIndex  IndexStats `json:"first_index"`
	SecondIndex IndexStats `json:"second_index"`
	// Errors counts queries that failed (unknown document, no embedding).
	Errors uint64 `json:"errors"`
	// Shed counts queries refused with ErrOverloaded because the
	// micro-batch queue was full.
	Shed uint64 `json:"shed"`
	// WAL reports the write-ahead log's counters when one is attached
	// (ServeConfig.WAL); nil otherwise.
	WAL *WALStats `json:"wal,omitempty"`
}

// served pairs a model with its serving identity: gen is the swap
// generation assigned by the Server, fp the index-configuration
// fingerprint. Both go into every cache key, so rankings cached against a
// replaced model can never be served for the new one.
type served struct {
	model *Model
	gen   uint64
	fp    uint64
}

// topkReq is one query waiting in the micro-batching queue.
type topkReq struct {
	ctx   context.Context
	docID string
	k     int
	out   chan topkResp
}

// topkResp is the batcher's answer to one topkReq.
type topkResp struct {
	matches []Match
	err     error
}

// Server serves TopK queries from an atomically swappable Model, fronted
// by a sharded LRU result cache and a micro-batching queue that coalesces
// concurrent queries into one worker-pool pass. It is the in-process core
// of the tdserved daemon and safe for concurrent use; Reload swaps the
// model without dropping in-flight queries.
type Server struct {
	cur     atomic.Pointer[served]
	gen     atomic.Uint64
	cache   *resultCache
	workers int
	window  time.Duration

	reqs      chan *topkReq
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// wal, when attached, receives every acknowledged mutation before
	// its swap; walSeq (guarded by mutMu) is the sequence number of the
	// newest record the served model reflects — the checkpoint horizon.
	wal    *WAL
	walSeq uint64

	// mutMu serializes model swaps (Reload, Ingest, Remove) so a clone
	// being mutated can never race another swap and lose its update.
	// Queries never take it. It also guards the mutation counters below,
	// so Stats can snapshot a mutation group consistent with the swapped
	// model instead of racing field-by-field against an in-flight swap.
	mutMu        sync.Mutex
	reloads      uint64
	ingests      uint64
	ingestedDocs uint64
	removes      uint64
	removedDocs  uint64
	compactions  uint64

	// compacting serializes Server.Compact runs without holding mutMu
	// across the rebuild (queries and mutations proceed during it).
	compacting atomic.Bool

	// Query-side counters stay atomic: they are bumped on the query hot
	// path, where taking mutMu would serialize queries against swaps.
	queries        atomic.Uint64
	batches        atomic.Uint64
	batchedQueries atomic.Uint64
	errors         atomic.Uint64
	shed           atomic.Uint64
}

// NewServer wraps a trained or loaded model for serving; see ServeConfig
// for the defaults of its zero fields. It starts the collector goroutine
// every uncached TopK goes through, so callers should Close the server
// to release it.
func NewServer(m *Model, sc ServeConfig) *Server {
	cacheSize := sc.CacheSize
	if cacheSize == 0 {
		cacheSize = defaultCacheEntries
	}
	window := sc.BatchWindow
	if window == 0 {
		window = defaultBatchWindow
	}
	workers := sc.Workers
	if workers <= 0 {
		workers = m.cfg.Workers
	}
	s := &Server{
		cache:   newResultCache(cacheSize),
		workers: workers,
		window:  window,
		reqs:    make(chan *topkReq, serveQueueDepth),
		done:    make(chan struct{}),
		wal:     sc.WAL,
	}
	if s.wal != nil {
		// Recovered records were replayed into m before NewServer; the
		// served state reflects everything up to the log's last record.
		s.walSeq = s.wal.LastSeq()
	}
	s.cur.Store(&served{model: m, gen: s.gen.Add(1), fp: m.indexFingerprint()})
	s.wg.Add(1)
	go s.run()
	return s
}

// Close stops the collector and fails queries still waiting on it with
// ErrServerClosed; TopK calls after Close fail the same way. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.done) })
	s.wg.Wait()
}

// Model returns the currently served model (the latest Reload argument,
// or the NewServer model before any reload).
func (s *Server) Model() *Model { return s.cur.Load().model }

// Reload atomically swaps the served model. In-flight queries finish
// against the model they started with; queries accepted afterwards see
// only the new one. The result cache is purged — and cache keys carry the
// swap generation, so entries of the old model can not resurface even
// mid-purge.
func (s *Server) Reload(m *Model) error {
	if m == nil {
		return errors.New("tdmatch: Reload requires a model")
	}
	s.mutMu.Lock()
	s.swap(m)
	s.reloads++
	s.mutMu.Unlock()
	return nil
}

// swap installs a model under a new generation and purges the cache;
// callers hold mutMu (NewServer's initial store excepted — no queries
// exist yet).
func (s *Server) swap(m *Model) {
	s.cur.Store(&served{model: m, gen: s.gen.Add(1), fp: m.indexFingerprint()})
	s.cache.purge()
}

// workingCopy clones the served model for a mutation that will be
// swapped in (Ingest, Remove, Compact), with the build-side work of a
// compaction — retraining and index construction — held to one worker
// fewer than there are processors. Trainer workers never block, so when
// they occupy every processor a query waits for the scheduler to preempt
// one of them, twice per request: 20 ms instead of 1.3 ms beside a
// two-worker compaction on two CPUs. The processor left over is what
// keeps a query's latency independent of whether the daemon is training.
// With a single processor there is none to leave and the bound is one
// worker, as configured.
func (s *Server) workingCopy() *Model {
	m := s.cur.Load().model.clone()
	m.limitBuild(runtime.GOMAXPROCS(0) - 1)
	return m
}

// Ingest adds documents to the served model without downtime: the
// current model is cloned, the clone ingests (Model.Ingest — term
// fold-in, index append), and the clone is swapped in through the same atomic generation bump a Reload
// uses. In-flight queries finish against the old model; the generation
// and the mutated index fingerprints both key the result cache, so no
// pre-ingest ranking can be served afterwards.
//
// With a WAL attached the batch is appended to the log after it
// validates but before the swap: an error from the log means the
// mutation was neither made durable nor made visible, so a successful
// return is a durable acknowledgment.
func (s *Server) Ingest(docs []IngestDoc) error {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	next := s.workingCopy()
	if err := next.Ingest(docs); err != nil {
		return err
	}
	if s.wal != nil {
		seq, err := s.wal.appendIngest(docs)
		if err != nil {
			return fmt.Errorf("tdmatch: ingest not acknowledged: %w", err)
		}
		s.walSeq = seq
	}
	s.swap(next)
	s.ingests++
	s.ingestedDocs += uint64(len(docs))
	return nil
}

// Remove deletes documents from the served model without downtime, the
// removal counterpart of Ingest: clone, Model.Remove, WAL append (when
// attached — see Ingest), atomic swap.
func (s *Server) Remove(ids []string) error {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	next := s.workingCopy()
	if err := next.Remove(ids); err != nil {
		return err
	}
	if s.wal != nil {
		seq, err := s.wal.appendRemove(ids)
		if err != nil {
			return fmt.Errorf("tdmatch: removal not acknowledged: %w", err)
		}
		s.walSeq = seq
	}
	s.swap(next)
	s.removes++
	s.removedDocs += uint64(len(ids))
	return nil
}

// Checkpoint durably persists the served model and then rotates the WAL
// past every record the persisted state contains: save receives a
// pinned model (safe to serialize off-lock — served models are
// immutable, mutations go through clones), and only after it returns
// successfully are the covered log records dropped. Mutations that land
// while the save runs get sequence numbers above the pinned horizon and
// survive the rotation. With no WAL attached it is just a save.
func (s *Server) Checkpoint(save func(*Model) error) error {
	s.mutMu.Lock()
	m := s.cur.Load().model
	horizon := s.walSeq
	s.mutMu.Unlock()
	if err := save(m); err != nil {
		return err
	}
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Checkpoint(horizon); err != nil {
		return fmt.Errorf("tdmatch: snapshot saved but wal rotation failed: %w", err)
	}
	return nil
}

// Compact rebuilds the served model online: the full build pipeline
// re-runs over a clone while the current model keeps serving — and
// keeps accepting Ingest/Remove — then mutations that landed during
// the rebuild are replayed from the delta chain onto the rebuilt model
// under the swap lock, and it is installed through the same atomic
// generation bump a Reload uses. Serving never blocks for longer than
// one replayed mutation batch; the collapsed segment stack and the
// retrained state take over from the next query on. The staleness the
// swapped-in model reports counts exactly the replayed (still
// incremental) mutations. At most one compaction runs at a time;
// concurrent calls fail fast with ErrCompacting. Equivalent to
// CompactCtx with context.Background().
func (s *Server) Compact() error {
	return s.CompactCtx(context.Background())
}

// CompactCtx is Compact with cancellation: the context is checked
// before the rebuild starts and again before the replay-and-swap, so a
// shutting-down daemon abandons a compaction between stages instead of
// swapping in a model nobody will serve. The rebuild stage itself runs
// to completion once started.
func (s *Server) CompactCtx(ctx context.Context) error {
	if !s.compacting.CompareAndSwap(false, true) {
		return ErrCompacting
	}
	defer s.compacting.Store(false)

	if err := ctx.Err(); err != nil {
		return err
	}
	s.mutMu.Lock()
	work := s.workingCopy()
	base := len(work.deltas)
	s.mutMu.Unlock()

	// The expensive part, off the lock: queries and mutations proceed
	// against the current model while the clone rebuilds.
	if err := work.Compact(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	cur := s.cur.Load().model
	for _, d := range cur.deltas[base:] {
		if len(d.Added) > 0 {
			if err := work.Ingest(ingestDocsOfSaved(d.Added)); err != nil {
				return fmt.Errorf("tdmatch: replaying ingest onto compacted model: %w", err)
			}
		}
		if len(d.Removed) > 0 {
			if err := work.Remove(append([]string(nil), d.Removed...)); err != nil {
				return fmt.Errorf("tdmatch: replaying removal onto compacted model: %w", err)
			}
		}
	}
	s.swap(work)
	s.compactions++
	return nil
}

// TopK returns the k documents of the other corpus most similar to docID,
// like Model.TopK, but served: answered from the result cache when
// possible, otherwise handed to the collector, which scores it together
// with the queries that arrive within the batching window (or, with no
// window, with those already queued) in one worker-pool pass. The
// returned slice is the caller's to keep.
// Equivalent to TopKCtx with context.Background().
func (s *Server) TopK(docID string, k int) ([]Match, error) {
	return s.TopKCtx(context.Background(), docID, k)
}

// TopKCtx is TopK with a deadline: the query gives up with ctx.Err()
// once ctx expires — whether still queued or already being scored (the
// scoring pass completes and feeds the cache, only the wait is cut) —
// and is shed immediately with ErrOverloaded when the micro-batch queue
// is full, so a saturated server degrades into fast failures instead of
// unbounded queueing.
func (s *Server) TopKCtx(ctx context.Context, docID string, k int) ([]Match, error) {
	s.queries.Add(1)
	cur := s.cur.Load()
	if matches, ok := s.cache.get(cacheKey{docID: docID, k: k, gen: cur.gen, fp: cur.fp}); ok {
		return matches, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := &topkReq{ctx: ctx, docID: docID, k: k, out: make(chan topkResp, 1)}
	select {
	case s.reqs <- req:
	case <-s.done:
		return nil, ErrServerClosed
	default:
		s.shed.Add(1)
		return nil, ErrOverloaded
	}
	select {
	case resp := <-req.out:
		return resp.matches, resp.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		return nil, ErrServerClosed
	}
}

// BatchResult is one query's outcome within TopKBatch: its position-
// aligned document ID and either the ranking or the per-query error.
type BatchResult struct {
	// ID echoes the queried document ID.
	ID string
	// Matches is the ranking (nil when Err is set).
	Matches []Match
	// Err is the per-query failure, e.g. an unknown document; other
	// queries of the batch are unaffected.
	Err error
}

// TopKBatch answers many queries in one call: each query probes the
// result cache independently, and the misses are fed as one batch into
// the model's blocked multi-query kernels (Model.TopKBatchWorkers) with
// the server's worker parallelism. Results are position-aligned with
// docIDs. Equivalent to TopKBatchCtx with context.Background().
func (s *Server) TopKBatch(docIDs []string, k int) []BatchResult {
	return s.TopKBatchCtx(context.Background(), docIDs, k)
}

// TopKBatchCtx is TopKBatch with a deadline: a context that is already
// expired on entry fails every query with ctx.Err() without touching
// the kernels. The batch itself runs on the caller's goroutine and is
// not interrupted mid-scan — the deadline bounds admission, not one
// kernel pass.
func (s *Server) TopKBatchCtx(ctx context.Context, docIDs []string, k int) []BatchResult {
	s.queries.Add(uint64(len(docIDs)))
	out := make([]BatchResult, len(docIDs))
	if err := ctx.Err(); err != nil {
		for i, id := range docIDs {
			out[i] = BatchResult{ID: id, Err: err}
		}
		return out
	}
	cur := s.cur.Load()
	resps := s.answerBatch(cur, docIDs, k)
	for i, resp := range resps {
		out[i] = BatchResult{ID: docIDs[i], Matches: resp.matches, Err: resp.err}
	}
	return out
}

// Stats snapshots the serving counters. The mutation group (reloads,
// ingests, removes, the served model's staleness and index layout) is
// read under the swap lock, so it is always internally consistent — an
// in-flight Ingest is either fully visible or not at all. Query-side
// counters are monotonic atomics read without blocking queries; each is
// individually exact, but a snapshot under load may sit mid-batch
// (e.g. Queries already bumped for a query whose miss is still being
// scored).
func (s *Server) Stats() ServeStats {
	s.mutMu.Lock()
	cur := s.cur.Load()
	st := ServeStats{
		Reloads:      s.reloads,
		Ingests:      s.ingests,
		IngestedDocs: s.ingestedDocs,
		Removes:      s.removes,
		RemovedDocs:  s.removedDocs,
		Compactions:  s.compactions,
		Generation:   cur.gen,
		Staleness:    cur.model.Staleness(),
	}
	st.FirstSegments, st.SecondSegments = cur.model.SegmentStats()
	st.FirstIndex, st.SecondIndex = cur.model.IndexStats()
	s.mutMu.Unlock()

	st.CacheHits, st.CacheMisses = s.cache.counters()
	st.CacheEntries = s.cache.len()
	st.Queries = s.queries.Load()
	st.Batches = s.batches.Load()
	st.BatchedQueries = s.batchedQueries.Load()
	st.Errors = s.errors.Load()
	st.Shed = s.shed.Load()
	if s.wal != nil {
		w := s.wal.Stats()
		st.WAL = &w
	}
	return st
}

// run is the collector: it blocks for the first uncached query, gathers
// more (up to serveMaxBatch), and executes the batch as one worker-pool
// pass. With a window it gathers whatever arrives until the window
// closes; with none it takes only what is already queued, so a lone
// query runs at once and, under load, the queries that arrived during
// one pass form the next.
func (s *Server) run() {
	defer s.wg.Done()
	var timer *time.Timer
	if s.window > 0 {
		timer = time.NewTimer(s.window)
		timer.Stop()
	}
	for {
		var first *topkReq
		select {
		case first = <-s.reqs:
		case <-s.done:
			return
		}
		batch := append(make([]*topkReq, 0, 8), first)
		if timer == nil {
			batch = s.takeQueued(batch)
		} else if batch = s.collectFor(timer, batch); batch == nil {
			return
		}
		s.execBatch(batch)
	}
}

// takeQueued appends the queries already queued to batch, up to
// serveMaxBatch, without waiting.
func (s *Server) takeQueued(batch []*topkReq) []*topkReq {
	for len(batch) < serveMaxBatch {
		select {
		case r := <-s.reqs:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// collectFor appends the queries that arrive within one window to batch,
// up to serveMaxBatch, timing the window with the collector's stopped
// timer. It returns nil when the server closes meanwhile.
func (s *Server) collectFor(timer *time.Timer, batch []*topkReq) []*topkReq {
	timer.Reset(s.window)
	defer timer.Stop()
	for len(batch) < serveMaxBatch {
		select {
		case r := <-s.reqs:
			batch = append(batch, r)
		case <-timer.C:
			return batch
		case <-s.done:
			return nil
		}
	}
	return batch
}

// execBatch serves one coalesced batch against the current model,
// feeding the queries of each distinct k through the model's blocked
// multi-query kernels and replying to each waiter. The model is pinned
// once per batch: a Reload during execution takes effect from the next
// batch.
func (s *Server) execBatch(batch []*topkReq) {
	s.batches.Add(1)
	s.batchedQueries.Add(uint64(len(batch)))
	cur := s.cur.Load()
	// Queries of one coalesced batch can mix k values; group them so each
	// group is one batched kernel pass (in practice one group dominates).
	// Queries whose deadline expired while queued are answered with their
	// context error instead of being scored: the waiter has already given
	// up, and skipping them sheds exactly the work the timeout was meant
	// to bound.
	byK := make(map[int][]int, 1)
	for i, r := range batch {
		if err := r.ctx.Err(); err != nil {
			r.out <- topkResp{err: err}
			continue
		}
		byK[r.k] = append(byK[r.k], i)
	}
	for k, slots := range byK {
		ids := make([]string, len(slots))
		for j, i := range slots {
			ids[j] = batch[i].docID
		}
		resps := s.answerBatch(cur, ids, k)
		for j, i := range slots {
			batch[i].out <- resps[j]
		}
	}
}

// answerBatch resolves a batch of same-k queries against a pinned model
// snapshot: per-query cache probes first, then one pass of the blocked
// multi-query kernels over the misses, then cache fills. Failures bump
// the error counter and are not cached (a document can gain an embedding
// only through a swap, which changes the key anyway). The cache gets its
// own copy of each ranking: the returned slice is the caller's to keep
// and mutate without corrupting the resident entry.
func (s *Server) answerBatch(cur *served, docIDs []string, k int) []topkResp {
	out := make([]topkResp, len(docIDs))
	var missIDs []string
	var missSlots []int
	for i, id := range docIDs {
		if matches, ok := s.cache.get(cacheKey{docID: id, k: k, gen: cur.gen, fp: cur.fp}); ok {
			out[i] = topkResp{matches: matches}
			continue
		}
		missIDs = append(missIDs, id)
		missSlots = append(missSlots, i)
	}
	if len(missIDs) == 0 {
		return out
	}
	for j, res := range cur.model.TopKBatchWorkers(missIDs, k, s.workers) {
		slot := missSlots[j]
		if res.Err != nil {
			s.errors.Add(1)
			out[slot] = topkResp{err: res.Err}
			continue
		}
		resident := make([]Match, len(res.Matches))
		copy(resident, res.Matches)
		s.cache.put(cacheKey{docID: res.ID, k: k, gen: cur.gen, fp: cur.fp}, resident)
		out[slot] = topkResp{matches: res.Matches}
	}
	return out
}

// indexFingerprint digests the serving-index configuration of both sides
// into the identity the result cache keys on (see match.VectorIndex).
func (m *Model) indexFingerprint() uint64 {
	h := m.firstIdx.Fingerprint()
	h = (h ^ m.secondIdx.Fingerprint()) * fnv1a.Prime
	h = (h ^ uint64(m.dim)) * fnv1a.Prime
	return h
}
