package agd

import (
	"context"
	"errors"
	"strings"
	"sync"
)

// This file is the read-through decoded-chunk cache of the storage tiering
// layer (ROADMAP item 4b): hot column chunks — reference datasets the job
// server re-reads across jobs, repeat pipeline sources — skip the fetch, the
// CRC verify and the decode entirely on a hit. Keys are chunk blob names
// ("<dataset>/chunk-NNNNNN.<col>"), i.e. (dataset, column, chunk); the
// budget is bytes of decoded chunk memory, evicted LRU.
//
// Two contracts make the cache safe next to the recycled-chunk lifecycle:
//
//   - Fills are singleflight: the first stream to miss a key owns its fill
//     (fetch + decode + validate, then Commit or Abort); concurrent streams
//     pin the in-flight entry and Wait. One decode per chunk, however many
//     stages ask.
//   - A cached chunk is recycled once it is dropped and unpinned. A fill
//     decodes into a chunk from agd's chunk recycler, and the cache owns it
//     from Commit on. Every reader holds a pin until it releases its row
//     group, so the chunk goes back to the recycler only once its entry has
//     been dropped (evicted, flushed or invalidated) and its last pin is
//     released — never under a reader.

// ErrCacheAbandoned reports that the stream owning an in-flight fill closed
// before completing it. Waiters fall back to a direct fetch + decode.
var ErrCacheAbandoned = errors.New("agd: cache fill abandoned")

// CacheStats is a point-in-time snapshot of a ChunkCache's counters.
type CacheStats struct {
	// Hits counts lookups served from a resident entry or an in-flight
	// fill (waiters on a singleflight fill count as hits: they skip the
	// fetch and decode). Misses counts lookups that had to start a fill.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Fills counts completed fills; FillErrors counts fills aborted by a
	// fetch, decode or validation error (those entries are never cached).
	Fills      int64 `json:"fills"`
	FillErrors int64 `json:"fill_errors"`
	// Evictions counts entries evicted by the LRU byte budget.
	Evictions int64 `json:"evictions"`
	// Bytes is resident decoded-chunk memory; Capacity the budget.
	Bytes    int64 `json:"bytes"`
	Capacity int64 `json:"capacity"`
	// Entries is resident chunk count. Pinned counts the pins held right
	// now, on resident entries, in-flight fills and dropped entries alike:
	// it reads 0 exactly when no reader holds a cached chunk, so a row
	// group never released keeps it above 0.
	Entries int `json:"entries"`
	Pinned  int `json:"pinned"`
}

// Delta subtracts b's cumulative counters from a's, keeping a's gauges
// (Bytes, Capacity, Entries, Pinned) — the per-run view pipeline reports use.
func (a CacheStats) Delta(b CacheStats) CacheStats {
	a.Hits -= b.Hits
	a.Misses -= b.Misses
	a.Fills -= b.Fills
	a.FillErrors -= b.FillErrors
	a.Evictions -= b.Evictions
	return a
}

// CacheEntry is one cache slot: resident, or an in-flight singleflight fill.
type CacheEntry struct {
	key   string
	chunk *Chunk
	size  int64
	err   error
	// abandoned marks a fill whose owner closed before completing it;
	// waiters fall back to a direct read.
	abandoned bool
	// ready closes when the fill completes (Commit or Abort).
	ready chan struct{}

	pins int
	// dropped marks an entry removed from the index (evicted, flushed,
	// invalidated or aborted): Unpin and Commit must not touch the LRU list
	// or byte accounting for it, and its chunk is recycled at its last
	// Unpin.
	dropped    bool
	prev, next *CacheEntry
}

// Chunk returns the entry's decoded chunk once ready. Valid while pinned.
func (e *CacheEntry) Chunk() *Chunk { return e.chunk }

// Wait blocks until the entry's fill completes, returning the decoded chunk,
// the fill error, or ErrCacheAbandoned when the filling stream closed early.
func (e *CacheEntry) Wait(ctx context.Context) (*Chunk, error) {
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if e.err != nil {
		return nil, e.err
	}
	if e.abandoned {
		return nil, ErrCacheAbandoned
	}
	return e.chunk, nil
}

// ChunkCache is a read-through LRU cache of decoded chunks with a byte
// budget. All methods are safe for concurrent use.
type ChunkCache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	entries  map[string]*CacheEntry
	// LRU list of resident entries: head is most recently used.
	head, tail *CacheEntry

	hits, misses, fills, fillErrors, evictions int64
	pinned                                     int // pins held on any entry
}

// NewChunkCache returns a cache bounded to capacity bytes of decoded chunk
// memory (minimum one chunk: a single entry larger than the budget still
// caches, then evicts on the next commit).
func NewChunkCache(capacity int64) *ChunkCache {
	return &ChunkCache{capacity: capacity, entries: make(map[string]*CacheEntry)}
}

// Lookup pins and returns the entry for key. fill reports ownership: true
// means the caller must complete the fill (fetch + decode, then Commit or
// Abort — never neither); false means the entry is resident or another
// caller's fill is in flight (Wait for it). Every returned entry is pinned
// and must be Unpinned when the caller's use of the chunk ends.
func (c *ChunkCache) Lookup(key string) (e *CacheEntry, fill bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pinned++
	if e = c.entries[key]; e != nil {
		e.pins++
		c.hits++
		if e.chunk != nil && !e.dropped {
			c.touchLocked(e)
		}
		return e, false
	}
	e = &CacheEntry{key: key, ready: make(chan struct{}), pins: 1}
	c.entries[key] = e
	c.misses++
	return e, true
}

// Commit completes a fill with its decoded, validated chunk: the entry
// becomes resident, waiters wake, and the LRU evicts unpinned entries while
// over budget. The cache owns the chunk from now on and recycles it once the
// entry is dropped and unpinned.
func (c *ChunkCache) Commit(e *CacheEntry, chunk *Chunk) {
	c.mu.Lock()
	e.chunk = chunk
	e.size = chunk.MemSize()
	c.fills++
	if !e.dropped { // a racing Flush/Invalidate already dropped the entry
		c.bytes += e.size
		c.pushFrontLocked(e)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
}

// Abort completes a fill without caching: err records a failed fetch,
// decode or validation (a corrupt blob is never cached); nil err marks the
// fill abandoned (owner closed early) and waiters fall back to direct reads.
// The entry is removed from the index so the next Lookup restarts the fill.
func (c *ChunkCache) Abort(e *CacheEntry, err error) {
	c.mu.Lock()
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
	e.dropped = true
	if err != nil {
		e.err = err
		c.fillErrors++
	} else {
		e.abandoned = true
	}
	c.mu.Unlock()
	close(e.ready)
}

// Unpin releases one pin. Unpinned resident entries become evictable, and a
// dropped entry's chunk goes back to the recycler at its last Unpin.
func (c *ChunkCache) Unpin(e *CacheEntry) {
	c.mu.Lock()
	e.pins--
	c.pinned--
	switch {
	case e.pins > 0:
	case e.dropped:
		recycleLocked(e)
	case e.chunk != nil:
		c.evictLocked() // a pin may have held the cache over budget
	}
	c.mu.Unlock()
}

// recycleLocked gives a dropped, unpinned entry's chunk back to the
// recycler. Callers hold c.mu.
func recycleLocked(e *CacheEntry) {
	if e.chunk != nil {
		pooledChunks.Put(e.chunk)
		e.chunk = nil
	}
}

// Flush drops every entry, returning what was resident. Pinned chunks stay
// valid for their holders until their last Unpin recycles them; in-flight
// fills complete but are not cached.
func (c *ChunkCache) Flush() (entries int, bytes int64) {
	return c.dropMatching("")
}

// InvalidatePrefix drops entries whose key starts with prefix — the staleness
// hook for dataset overwrites.
func (c *ChunkCache) InvalidatePrefix(prefix string) (entries int, bytes int64) {
	return c.dropMatching(prefix)
}

func (c *ChunkCache) dropMatching(prefix string) (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.entries {
		if prefix != "" && !strings.HasPrefix(key, prefix) {
			continue
		}
		delete(c.entries, key)
		if e.chunk != nil && !e.dropped {
			c.removeLocked(e)
			c.bytes -= e.size
			entries++
			bytes += e.size
		}
		e.dropped = true
		if e.pins == 0 {
			recycleLocked(e)
		}
	}
	return entries, bytes
}

// Stats snapshots the counters.
func (c *ChunkCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Hits: c.hits, Misses: c.misses,
		Fills: c.fills, FillErrors: c.fillErrors,
		Evictions: c.evictions,
		Bytes:     c.bytes, Capacity: c.capacity,
		Pinned: c.pinned,
	}
	for _, e := range c.entries {
		if e.chunk != nil && !e.dropped {
			s.Entries++
		}
	}
	return s
}

// touchLocked moves a resident entry to the LRU front.
func (c *ChunkCache) touchLocked(e *CacheEntry) {
	if c.head == e {
		return
	}
	c.removeLocked(e)
	c.pushFrontLocked(e)
}

func (c *ChunkCache) pushFrontLocked(e *CacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *ChunkCache) removeLocked(e *CacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// evictLocked drops unpinned entries from the LRU tail while over budget.
// Pinned entries are skipped — a pin is a liveness promise — so a fully
// pinned cache can sit over budget until pins release.
func (c *ChunkCache) evictLocked() {
	for e := c.tail; e != nil && c.bytes > c.capacity; {
		prev := e.prev
		if e.pins == 0 {
			c.removeLocked(e)
			delete(c.entries, e.key)
			e.dropped = true
			recycleLocked(e)
			c.bytes -= e.size
			c.evictions++
		}
		e = prev
	}
}
