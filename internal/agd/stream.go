package agd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"persona/internal/dataflow"
)

// StreamOptions configures a dataset's group stream (Dataset.Groups).
type StreamOptions struct {
	// Columns are the columns fetched per chunk, in delivery order.
	// Empty means every manifest column.
	Columns []string
	// Start and End bound the chunk range [Start, End); End <= 0 means the
	// end of the dataset.
	Start, End int
	// ShardedPool, when non-nil, supplies the decoded chunk objects
	// (NewChunkPool): Next checks chunks out of it and RowGroup.Release
	// returns them, so a bounded pool gives the stream the same back-pressure
	// as the pipeline queues. When nil, chunks are freshly allocated and
	// Release is a no-op. The pool has one free list; the field keeps its old
	// name only because bench/ compiles against it.
	ShardedPool *dataflow.ItemPool[*Chunk]
	// Cache, when non-nil, makes the stream read through the shared decoded
	// chunk cache: hits skip the fetch, CRC verify and decode entirely;
	// misses become singleflight fills this stream owns. Cached chunks are
	// always freshly allocated and pinned until Release — the stream never
	// checks them out of ShardedPool (no chunk object can be both cached and
	// pooled).
	Cache *ChunkCache
	// Codec decodes the fetched blobs; the zero value decodes on the
	// goroutine calling Next. Pipelines pass their shared-executor codec.
	Codec Codec
}

// A stream's fetch window — how many chunks' column blobs it keeps in
// flight, counting the one being delivered — sizes itself. It opens at
// initialWindow and doubles, up to maxWindow, whenever Next claims a chunk
// whose blobs are still in flight: the consumer has caught up with storage,
// so more fetches in flight hide more of the store's latency. A chunk that
// has already arrived leaves the window as it is, so over a store that
// answers at once (a MemStore) a stream never reads further ahead than
// initialWindow. maxWindow bounds the blobs one stream can pin in memory.
const (
	initialWindow = 4
	maxWindow     = 16
)

// fetchSlot is one column of one chunk's in-flight window. Exactly one of
// three shapes:
//
//	ent == nil             plain fetch (no cache): fut resolves the blob
//	ent != nil, fill true  cache miss owned by this stream: fut resolves the
//	                       blob, and Next must Commit or Abort the entry
//	ent != nil, fill false cache hit or another stream's in-flight fill:
//	                       no fetch; Next waits on the entry
type fetchSlot struct {
	fut  *Future
	ent  *CacheEntry
	fill bool
	// done marks an owned fill already resolved (Commit/Abort), so cleanup
	// paths do not abort it a second time.
	done bool
}

// chunkStream is the engine behind Dataset.Groups: it iterates the column
// chunks of a dataset in chunk order while keeping a window of blob fetches
// in flight through the store's async read path (§4.2: readers saturate
// storage by overlapping many object fetches). The fetch window takes
// nothing from the chunk pool — chunks are checked out only as next decodes
// them. next is safe for concurrent consumers; each call claims the next
// chunk.
type chunkStream struct {
	ds    *Dataset
	as    AsyncBlobStore
	cols  []string
	codec Codec
	pool  *dataflow.ItemPool[*Chunk]
	cache *ChunkCache

	window int
	start  int
	end    int

	mu     sync.Mutex
	claim  int // next chunk index to claim
	issued int // first chunk index whose fetch has not been issued
	// slots[i-start] holds chunk i's in-flight column slots; entries are
	// nilled as chunks are claimed.
	slots [][]fetchSlot
	// names is the blob-name scratch reused across GetBatch calls
	// (implementations must not retain it).
	names  []string
	closed bool
}

// NewChunkPool returns a bounded pool of decoded chunks for stream consumers
// (StreamOptions.ShardedPool): size chunks, Reset applied on recycle. Size it
// to columns × the row groups the consumer holds at once, plus one being
// decoded.
func NewChunkPool(size int) *dataflow.ItemPool[*Chunk] {
	return dataflow.NewItemPool(size,
		func() *Chunk { return new(Chunk) },
		func(c *Chunk) *Chunk { c.Reset(); return c },
	)
}

// NewShardedChunkPool is NewChunkPool; shards is ignored. It stays only
// because bench/ compiles against it.
func NewShardedChunkPool(shards, size int) *dataflow.ItemPool[*Chunk] {
	return NewChunkPool(size)
}

// newChunkStream opens an iterator over the dataset's chunks that reads
// ahead of its consumer through a self-sizing fetch window.
func newChunkStream(d *Dataset, opts StreamOptions) (*chunkStream, error) {
	cols := opts.Columns
	if len(cols) == 0 {
		cols = append([]string{}, d.Manifest.Columns...)
	}
	for _, col := range cols {
		if !d.Manifest.HasColumn(col) {
			return nil, fmt.Errorf("%w: %q", ErrNoColumn, col)
		}
	}
	start, end := opts.Start, opts.End
	if start < 0 {
		start = 0
	}
	if end <= 0 || end > len(d.Manifest.Chunks) {
		end = len(d.Manifest.Chunks)
	}
	if start > end {
		start = end
	}
	return &chunkStream{
		ds:     d,
		as:     AsyncOf(d.store),
		cols:   cols,
		codec:  opts.Codec,
		pool:   opts.ShardedPool,
		cache:  opts.Cache,
		window: initialWindow,
		start:  start,
		end:    end,
		claim:  start,
		issued: start,
		slots:  make([][]fetchSlot, end-start),
		names:  make([]string, 0, len(cols)),
	}, nil
}

// issueToLocked issues fetch batches for chunks [s.issued, hi). With a cache,
// each column is looked up first: hits and other streams' in-flight fills
// cost no fetch at all; only owned misses go into the GetBatch. Callers hold
// s.mu (lock order is stream.mu then cache.mu).
func (s *chunkStream) issueToLocked(hi int) {
	if hi > s.end {
		hi = s.end
	}
	for ; s.issued < hi; s.issued++ {
		entry := s.ds.Manifest.Chunks[s.issued]
		slots := make([]fetchSlot, len(s.cols))
		names := s.names[:0]
		for k, col := range s.cols {
			name := chunkPath(entry, col)
			if s.cache != nil {
				ent, fill := s.cache.Lookup(name)
				slots[k].ent = ent
				slots[k].fill = fill
				if !fill {
					continue
				}
			}
			names = append(names, name)
		}
		if len(names) > 0 {
			futs := s.as.GetBatch(names)
			fi := 0
			for k := range slots {
				if slots[k].ent == nil || slots[k].fill {
					slots[k].fut = futs[fi]
					fi++
				}
			}
		}
		s.names = names[:0]
		s.slots[s.issued-s.start] = slots
	}
}

// next claims the next chunk, waits for its blobs, decodes them and returns
// the row group, whose Release gives its chunks back. It returns io.EOF once
// the range is exhausted (or the stream closed). Claiming also tops up the
// fetch window, and widens it when the claimed chunk's blobs are still in
// flight.
func (s *chunkStream) next(ctx context.Context) (*RowGroup, error) {
	s.mu.Lock()
	if s.closed || s.claim >= s.end {
		s.mu.Unlock()
		return nil, io.EOF
	}
	i := s.claim
	s.claim++
	s.issueToLocked(i + s.window)
	slots := s.slots[i-s.start]
	s.slots[i-s.start] = nil
	if s.window < maxWindow && inFlight(slots) {
		s.window = min(2*s.window, maxWindow)
		s.issueToLocked(i + s.window)
	}
	s.mu.Unlock()

	entry := s.ds.Manifest.Chunks[i]
	chunks := make([]*Chunk, len(slots))
	fail := func(err error) (*RowGroup, error) {
		for k := range slots {
			if sl := &slots[k]; sl.fill && !sl.done {
				// Abandon unresolved owned fills so waiters fall back to a
				// direct read instead of blocking forever.
				s.cache.Abort(sl.ent, nil)
			}
		}
		s.release(chunks, slots)
		return nil, err
	}
	validate := func(c *Chunk, col string) error {
		if want := int(entry.Records); c.NumRecords() != want {
			return fmt.Errorf("%w: chunk %q has %d records, manifest says %d",
				ErrCorrupt, chunkPath(entry, col), c.NumRecords(), want)
		}
		return nil
	}

	// Pass 1: resolve every fetch this stream owns — plain fetches and the
	// singleflight cache fills it was assigned. Owned fills Commit (or
	// Abort) before pass 2 waits on anything filled elsewhere, so streams
	// covering the same chunks in different column orders cannot form a
	// waits-for cycle across each other's fills.
	for k := range slots {
		sl := &slots[k]
		if sl.ent != nil && !sl.fill {
			continue
		}
		blob, err := sl.fut.Wait(ctx)
		sl.fut = nil // the delivered group keeps its slots, not the blob
		if err != nil {
			if sl.ent != nil {
				s.cache.Abort(sl.ent, err)
				sl.done = true
			}
			return fail(err)
		}
		if sl.ent != nil {
			// Owned fill: decode into a fresh chunk (never pooled — cached
			// chunks must not be recyclable under later readers) and
			// validate before Commit, so a corrupt blob is never cached.
			c, err := s.codec.Decode(blob)
			if err != nil {
				err = fmt.Errorf("agd: chunk %q: %w", chunkPath(entry, s.cols[k]), err)
			} else {
				err = validate(c, s.cols[k])
			}
			if err != nil {
				s.cache.Abort(sl.ent, err)
				sl.done = true
				return fail(err)
			}
			s.cache.Commit(sl.ent, c)
			sl.done = true
			chunks[k] = c
			continue
		}
		var c *Chunk
		if s.pool != nil {
			if c, err = s.pool.Get(ctx); err != nil {
				return fail(err)
			}
			// Record the checkout before decoding, so a decode error
			// releases this chunk too instead of leaking it from the
			// bounded pool.
			chunks[k] = c
			err = s.codec.DecodeInto(c, blob)
		} else {
			c, err = s.codec.Decode(blob)
		}
		if err != nil {
			return fail(fmt.Errorf("agd: chunk %q: %w", chunkPath(entry, s.cols[k]), err))
		}
		chunks[k] = c
		if err := validate(c, s.cols[k]); err != nil {
			return fail(err)
		}
	}

	// Pass 2: collect cache hits and other streams' fills. Validation
	// happened before the chunk was committed, so hits are trusted as-is.
	for k := range slots {
		sl := &slots[k]
		if sl.ent == nil || sl.fill {
			continue
		}
		c, err := sl.ent.Wait(ctx)
		if errors.Is(err, ErrCacheAbandoned) {
			// The filling stream closed before completing its fill; read
			// the blob directly. The result stays standalone (uncached,
			// unpooled) — the next Lookup will restart a proper fill.
			s.cache.Unpin(sl.ent)
			sl.ent = nil
			name := chunkPath(entry, s.cols[k])
			blob, ferr := s.as.GetAsync(name).Wait(ctx)
			if ferr == nil {
				c, ferr = s.codec.Decode(blob)
			}
			if ferr != nil {
				return fail(fmt.Errorf("agd: chunk %q: %w", name, ferr))
			}
			chunks[k] = c
			if verr := validate(c, s.cols[k]); verr != nil {
				return fail(verr)
			}
			continue
		}
		if err != nil {
			return fail(err)
		}
		chunks[k] = c
	}

	return &RowGroup{Index: i, Chunks: chunks, release: func() { s.release(chunks, slots) }}, nil
}

// release ends the use of a group's chunks: a cache-backed chunk (its slot
// holds the entry) is unpinned, so it stays resident for the next reader,
// and a pooled one returns to the stream's pool. Cache-mode chunks that are
// not entry-backed (abandoned-fill fallbacks) are standalone allocations and
// never pooled.
func (s *chunkStream) release(chunks []*Chunk, slots []fetchSlot) {
	for k, c := range chunks {
		switch {
		case slots[k].ent != nil:
			s.cache.Unpin(slots[k].ent)
		case c != nil && s.cache == nil && s.pool != nil:
			s.pool.Put(c)
		}
	}
}

// inFlight reports whether a fetch this stream issued for a chunk has not
// completed yet.
func inFlight(slots []fetchSlot) bool {
	for _, sl := range slots {
		if sl.fut == nil {
			continue
		}
		select {
		case <-sl.fut.Done():
		default:
			return true
		}
	}
	return false
}

// close stops the stream: subsequent next calls return io.EOF and no further
// fetches are issued. Fetches already in flight complete in the background
// and their results are dropped; owned cache fills that were never resolved
// are abandoned so streams waiting on them fall back to direct reads.
func (s *chunkStream) close() {
	s.mu.Lock()
	s.closed = true
	slots := s.slots
	s.slots = nil
	s.mu.Unlock()
	if s.cache == nil {
		return
	}
	for _, ss := range slots {
		for k := range ss {
			sl := &ss[k]
			if sl.ent == nil {
				continue
			}
			if sl.fill && !sl.done {
				s.cache.Abort(sl.ent, nil)
			}
			s.cache.Unpin(sl.ent)
		}
	}
}
