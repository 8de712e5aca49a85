package agd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"persona/internal/dataflow"
)

// StreamOptions configures a ChunkStream.
type StreamOptions struct {
	// Columns are the columns fetched per chunk, in delivery order.
	// Empty means every manifest column.
	Columns []string
	// Prefetch is the number of chunk fetch batches kept in flight,
	// counting the one being delivered: 1 reads synchronously, larger
	// windows overlap storage latency with decode and compute.
	// Zero or negative selects DefaultPrefetch.
	Prefetch int
	// Start and End bound the chunk range [Start, End); End <= 0 means the
	// end of the dataset.
	Start, End int
	// ShardedPool, when non-nil, supplies the decoded chunk objects
	// (NewShardedChunkPool): Next checks chunks out of it and
	// StreamChunk.Release returns them, so a bounded pool gives the stream
	// the same back-pressure as the pipeline queues. Chunk i uses shard
	// i % Shards()'s free list, so a chunk's buffers stay with the shard that
	// aligns it; the same shard is handed to the codec (Codec.WithShard), so
	// a multi-member decode runs there too. When nil, chunks are freshly
	// allocated and Release is a no-op.
	ShardedPool *dataflow.ShardedItemPool[*Chunk]
	// Cache, when non-nil, makes the stream read through the shared decoded
	// chunk cache: hits skip the fetch, CRC verify and decode entirely;
	// misses become singleflight fills this stream owns. Cached chunks are
	// always freshly allocated and pinned until Release — the stream never
	// checks them out of ShardedPool (the pool still provides shard
	// affinity hints, but no chunk object can be both cached and pooled).
	Cache *ChunkCache
	// Codec decodes the fetched blobs; the zero value is the package
	// default. Pipelines pass their shared-executor codec.
	Codec Codec
}

// DefaultPrefetch is the fetch window used when StreamOptions.Prefetch is
// unset: deep enough to hide per-blob latency behind decode, shallow enough
// that a handful of streams cannot balloon memory.
const DefaultPrefetch = 4

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

// ChunkStream iterates the column chunks of a dataset in chunk order while
// keeping a window of blob fetches in flight through the store's async read
// path (§4.2: readers saturate storage by overlapping many object fetches).
// Next is safe for concurrent consumers; each call claims the next chunk.
type ChunkStream struct {
	ds    *Dataset
	as    AsyncBlobStore
	cols  []string
	codec Codec
	spool *dataflow.ShardedItemPool[*Chunk]
	cache *ChunkCache

	window int
	start  int
	end    int

	mu     sync.Mutex
	next   int // next chunk index to claim
	issued int // first chunk index whose fetch has not been issued
	// slots[i-start] holds chunk i's in-flight column slots; entries are
	// nilled as chunks are claimed.
	slots [][]fetchSlot
	// names is the blob-name scratch reused across GetBatch calls
	// (implementations must not retain it).
	names  []string
	closed bool
}

// StreamChunk is one delivered row group: the decoded chunks of every
// requested column.
type StreamChunk struct {
	// Index is the chunk's position in the manifest.
	Index  int
	chunks []*Chunk
	// ents[k], when non-nil, is the pinned cache entry backing chunks[k];
	// Release unpins it instead of recycling the chunk.
	ents   []*CacheEntry
	stream *ChunkStream
}

// Chunks returns the decoded column chunks in StreamOptions.Columns order.
func (sc *StreamChunk) Chunks() []*Chunk { return sc.chunks }

// Col returns the decoded chunk of the named column, or nil if the column
// was not requested.
func (sc *StreamChunk) Col(name string) *Chunk {
	for i, col := range sc.stream.cols {
		if col == name {
			return sc.chunks[i]
		}
	}
	return nil
}

// Release ends the caller's use of the row group: cache-backed chunks are
// unpinned (they stay resident for the next reader), pooled chunks return to
// the stream's pool — on a sharded pool, to the chunk's own shard's free
// list. The caller must not reference the chunks (or slices of their data)
// afterwards. On a pool-less, cache-less stream it is a no-op.
func (sc *StreamChunk) Release() {
	s := sc.stream
	for k, c := range sc.chunks {
		if sc.ents != nil && sc.ents[k] != nil {
			s.cache.Unpin(sc.ents[k])
			continue
		}
		if c == nil || s.cache != nil {
			// Cache-mode chunks that are not entry-backed (abandoned-fill
			// fallbacks) are standalone allocations; never pool them.
			continue
		}
		if s.spool != nil {
			s.spool.Put(sc.Index%s.spool.Shards(), c)
		}
	}
	sc.chunks = nil
	sc.ents = nil
}

// Shard returns the executor shard this chunk is affine to (chunk index
// modulo the sharded pool's shard count; 0 on unsharded streams). Consumers
// pass it to Executor.SubmitWaitTo so the chunk's fine-grain tasks land on
// the shard holding its pooled buffers.
func (sc *StreamChunk) Shard() int {
	if sp := sc.stream.spool; sp != nil {
		return sc.Index % sp.Shards()
	}
	return 0
}

// NewShardedChunkPool returns a bounded pool of decoded chunks for stream
// consumers (StreamOptions.ShardedPool): size chunks, Reset applied on
// recycle, one free list per executor shard — chunks decoded for shard S
// recycle on shard S, keeping their backing arrays in that core's cache; a
// consumer with no executor affinity asks for one shard. Size it to columns
// × (prefetch window + 1) so the stream's fetches never starve while the
// consumer holds one delivered row group.
func NewShardedChunkPool(shards, size int) *dataflow.ShardedItemPool[*Chunk] {
	return dataflow.NewShardedItemPool(shards, size,
		func() *Chunk { return new(Chunk) },
		func(c *Chunk) *Chunk { c.Reset(); return c },
	)
}

// Stream opens a prefetching iterator over the dataset's chunks.
func (d *Dataset) Stream(opts StreamOptions) (*ChunkStream, error) {
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
	window := opts.Prefetch
	if window <= 0 {
		window = DefaultPrefetch
	}
	return &ChunkStream{
		ds:     d,
		as:     AsyncOf(d.store),
		cols:   cols,
		codec:  opts.Codec,
		spool:  opts.ShardedPool,
		cache:  opts.Cache,
		window: window,
		start:  start,
		end:    end,
		next:   start,
		issued: start,
		slots:  make([][]fetchSlot, end-start),
		names:  make([]string, 0, len(cols)),
	}, nil
}

// issueToLocked issues fetch batches for chunks [s.issued, hi). With a cache,
// each column is looked up first: hits and other streams' in-flight fills
// cost no fetch at all; only owned misses go into the GetBatch. Callers hold
// s.mu (lock order is stream.mu then cache.mu).
func (s *ChunkStream) issueToLocked(hi int) {
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

// Next claims the next chunk, waits for its blobs, decodes them and returns
// the row group. It returns io.EOF once the range is exhausted (or the
// stream closed). Claiming also tops up the fetch window, so a consumer
// loop keeps Prefetch chunk batches in flight.
func (s *ChunkStream) Next(ctx context.Context) (*StreamChunk, error) {
	s.mu.Lock()
	if s.closed || s.next >= s.end {
		s.mu.Unlock()
		return nil, io.EOF
	}
	i := s.next
	s.next++
	s.issueToLocked(i + s.window)
	slots := s.slots[i-s.start]
	s.slots[i-s.start] = nil
	s.mu.Unlock()

	shard := 0
	codec := s.codec
	if s.spool != nil {
		shard = i % s.spool.Shards()
		codec = codec.WithShard(shard)
	}
	entry := s.ds.Manifest.Chunks[i]
	chunks := make([]*Chunk, len(slots))
	fail := func(err error) (*StreamChunk, error) {
		for k := range slots {
			sl := &slots[k]
			if sl.ent != nil {
				if sl.fill && !sl.done {
					// Abandon unresolved owned fills so waiters fall back
					// to a direct read instead of blocking forever.
					s.cache.Abort(sl.ent, nil)
				}
				s.cache.Unpin(sl.ent)
				continue
			}
			if c := chunks[k]; c != nil && s.cache == nil && s.spool != nil {
				s.spool.Put(shard, c)
			}
		}
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
			c, err := codec.Decode(blob)
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
		if s.spool != nil {
			if c, err = s.spool.Get(ctx, shard); err != nil {
				return fail(err)
			}
			// Record the checkout before decoding, so a decode error
			// releases this chunk too instead of leaking it from the
			// bounded pool.
			chunks[k] = c
			err = codec.DecodeInto(c, blob)
		} else {
			c, err = codec.Decode(blob)
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
				c, ferr = codec.Decode(blob)
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

	var ents []*CacheEntry
	if s.cache != nil {
		ents = make([]*CacheEntry, len(slots))
		for k := range slots {
			ents[k] = slots[k].ent
		}
	}
	return &StreamChunk{Index: i, chunks: chunks, ents: ents, stream: s}, nil
}

// Close stops the stream: subsequent Next calls return io.EOF and no further
// fetches are issued. Fetches already in flight complete in the background
// and their results are dropped; owned cache fills that were never resolved
// are abandoned so streams waiting on them fall back to direct reads.
func (s *ChunkStream) Close() {
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
