package tdmatch

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/tdmatch/tdmatch/internal/fnv1a"
)

// cacheShardCount is the number of independently-locked cache shards; a
// power of two so shard selection is a mask of the key hash. 16 shards
// keep lock contention negligible at the worker counts Config allows.
const cacheShardCount = 16

// cacheKey identifies one cached ranking: the query document, the
// requested depth, and the serving identity — the model generation
// assigned by Server plus the index-configuration fingerprint from
// internal/match. A reload or an index re-selection changes the identity,
// so stale rankings become unreachable even before the purge evicts them.
type cacheKey struct {
	docID string
	k     int
	gen   uint64
	fp    uint64
}

// hash folds the key into 64 bits with FNV-1a over the document ID,
// mixed with the numeric fields.
func (k cacheKey) hash() uint64 {
	h := fnv1a.Offset
	for i := 0; i < len(k.docID); i++ {
		h ^= uint64(k.docID[i])
		h *= fnv1a.Prime
	}
	for _, p := range [3]uint64{uint64(k.k), k.gen, k.fp} {
		h ^= p
		h *= fnv1a.Prime
	}
	return h
}

// cacheEntry is one resident ranking; key is retained for eviction
// bookkeeping.
type cacheEntry struct {
	key     cacheKey
	matches []Match
}

// cacheShard is one lock domain of the result cache: an LRU list (front =
// most recent) with a map index over it.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[cacheKey]*list.Element
}

// resultCache is a sharded LRU over TopK rankings with hit/miss counters.
// A nil *resultCache is a valid disabled cache: every get misses (without
// counting) and every put is dropped.
type resultCache struct {
	shards [cacheShardCount]cacheShard
	hits   atomic.Uint64
	misses atomic.Uint64
}

// newResultCache builds a cache bounded at roughly capacity entries
// (rounded up to a multiple of the shard count); capacity <= 0 returns
// nil, the disabled cache.
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	perShard := (capacity + cacheShardCount - 1) / cacheShardCount
	c := &resultCache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[cacheKey]*list.Element, perShard)
	}
	return c
}

// shard selects the lock domain of a key.
func (c *resultCache) shard(key cacheKey) *cacheShard {
	return &c.shards[key.hash()&(cacheShardCount-1)]
}

// get returns a copy of the cached ranking for key, promoting the entry
// to most-recently-used, and counts the hit or miss. The copy keeps
// callers from mutating resident entries.
func (c *resultCache) get(key cacheKey) ([]Match, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	var out []Match
	if ok {
		s.ll.MoveToFront(el)
		cached := el.Value.(*cacheEntry).matches
		out = make([]Match, len(cached))
		copy(out, cached)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return out, true
}

// put inserts (or refreshes) a ranking, evicting the shard's
// least-recently-used entry when full. The cache takes ownership of
// matches; callers must not mutate it afterwards.
func (c *resultCache) put(key cacheKey, matches []Match) {
	if c == nil {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		el.Value.(*cacheEntry).matches = matches
		return
	}
	for s.ll.Len() >= s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, matches: matches})
}

// purge drops every entry; the hit/miss counters keep accumulating.
func (c *resultCache) purge() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.ll.Init()
		clear(s.items)
		s.mu.Unlock()
	}
}

// len returns the number of resident entries across all shards.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// counters returns the cumulative hit and miss counts as a consistent
// pair: the hit counter is re-read after the miss counter and the pair
// retried (bounded) until no hit slipped in between, so a stats snapshot
// under load never reports a (hits, misses) combination that implies
// more probes than happened.
func (c *resultCache) counters() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	hits = c.hits.Load()
	for i := 0; ; i++ {
		misses = c.misses.Load()
		again := c.hits.Load()
		if again == hits || i == 3 {
			return hits, misses
		}
		hits = again
	}
}
