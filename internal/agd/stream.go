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
	// ShardedPool is ignored: every stream decodes into chunks from agd's
	// one chunk recycler and gives them back there. The field stays only
	// because bench/ compiles against it.
	ShardedPool *dataflow.ItemPool[*Chunk]
	// Cache, when non-nil, makes the stream read through the shared decoded
	// chunk cache: hits skip the fetch, CRC verify and decode entirely;
	// misses become singleflight fills this stream owns. A delivered chunk
	// stays pinned until Release; the cache recycles it once its entry is
	// dropped and unpinned. With no cache, Release recycles the chunks.
	Cache *ChunkCache
	// Codec decodes the fetched blobs; the zero value decodes on the
	// goroutine calling Next. Pipelines pass their shared-executor codec.
	Codec Codec
}

// A stream's fetch window — the chunks whose column blobs it keeps in
// flight, counting the one being delivered — opens at initialWindow chunks.
// The first time next claims a chunk still in flight, the consumer has caught
// up with storage, and the window opens in one step to every chunk starting
// within windowRecords records of the one delivered, and to at least
// openWindow chunks, so one round trip of the store's latency covers it. Over
// a store that answers at once (a MemStore) it never opens.
//
// windowRecords (64 Ki reads, about 5.7 MB at 87 B a read) bounds what a
// stream of small chunks pins; no benchmark workload reaches it. scan_remote
// (40 chunks of 1000 reads, a 25 ms store) fits whole in the open window:
// ×1.16 reads_per_s over doubling from 4 to 16 chunks (BENCH_44.json).
// openWindow, where that doubling stopped, keeps large chunks (the CLI writes
// 100 000 reads a chunk) reading ahead as far as before.
const (
	initialWindow = 4
	openWindow    = 16
	windowRecords = 64 << 10
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
// storage by overlapping many object fetches). The fetch window holds
// blobs, not chunks: a chunk comes from the recycler only as next decodes
// into it. next is safe for concurrent consumers; each call claims the next
// chunk.
type chunkStream struct {
	ds    *Dataset
	as    AsyncBlobStore
	cols  []string
	codec Codec
	cache *ChunkCache

	start int
	end   int

	mu     sync.Mutex
	claim  int  // next chunk index to claim
	issued int  // first chunk index whose fetch has not been issued
	wide   bool // the window has opened
	// slots[i-start] holds chunk i's in-flight column slots; entries are
	// nilled as chunks are claimed.
	slots [][]fetchSlot
	// names is the blob-name scratch reused across GetBatch calls
	// (implementations must not retain it).
	names  []string
	closed bool
}

// NewShardedChunkPool returns a pool that no stream draws on: streams
// ignore StreamOptions.ShardedPool. It stays only because bench/ compiles
// against it.
func NewShardedChunkPool(shards, size int) *dataflow.ItemPool[*Chunk] {
	return dataflow.NewItemPool(size, func() *Chunk { return new(Chunk) }, nil)
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
		cache:  opts.Cache,
		start:  start,
		end:    end,
		claim:  start,
		issued: start,
		slots:  make([][]fetchSlot, end-start),
		names:  make([]string, 0, len(cols)),
	}, nil
}

// issueLocked issues fetch batches for the chunks of the window of a stream
// delivering chunk i that are not issued yet. With a cache, each column is
// looked up first: hits and other streams' in-flight fills cost no fetch at
// all; only owned misses go into the GetBatch. Callers hold s.mu (lock order
// is stream.mu then cache.mu).
func (s *chunkStream) issueLocked(i int) {
	chunks := s.ds.Manifest.Chunks
	for ; s.issued < s.end && (s.issued < i+initialWindow || s.wide &&
		(s.issued < i+openWindow || chunks[s.issued].First-chunks[i].First < windowRecords)); s.issued++ {
		entry := chunks[s.issued]
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
// fetch window, and opens it when the claimed chunk's blobs are still in
// flight.
func (s *chunkStream) next(ctx context.Context) (*RowGroup, error) {
	s.mu.Lock()
	if s.closed || s.claim >= s.end {
		s.mu.Unlock()
		return nil, io.EOF
	}
	i := s.claim
	s.claim++
	s.issueLocked(i)
	slots := s.slots[i-s.start]
	s.slots[i-s.start] = nil
	if !s.wide && inFlight(slots) {
		s.wide = true
		s.issueLocked(i)
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
	// decode decodes column k's blob into a chunk from the recycler and
	// checks its record count against the manifest; a chunk that fails goes
	// back. Raw columns are copied: a recycled chunk never holds the bytes
	// of a fetched blob, which a store may share with its stored copy.
	decode := func(k int, blob []byte) (*Chunk, error) {
		name := chunkPath(entry, s.cols[k])
		c := pooledChunks.Get()
		err := s.codec.DecodeInto(c, blob)
		if err != nil {
			err = fmt.Errorf("agd: chunk %q: %w", name, err)
		} else if want := int(entry.Records); c.NumRecords() != want {
			err = fmt.Errorf("%w: chunk %q has %d records, manifest says %d", ErrCorrupt, name, c.NumRecords(), want)
		}
		if err != nil {
			pooledChunks.Put(c)
			return nil, err
		}
		return c, nil
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
		var c *Chunk
		if err == nil {
			c, err = decode(k, blob)
		}
		if sl.ent != nil {
			// Owned fill: only a validated chunk is committed, so a corrupt
			// blob is never cached.
			if err != nil {
				s.cache.Abort(sl.ent, err)
			} else {
				s.cache.Commit(sl.ent, c)
			}
			sl.done = true
		}
		if err != nil {
			return fail(err)
		}
		chunks[k] = c
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
			// the blob directly. The result stays uncached, as a plain
			// fetch's — the next Lookup will restart a proper fill.
			s.cache.Unpin(sl.ent)
			sl.ent = nil
			name := chunkPath(entry, s.cols[k])
			blob, ferr := s.as.GetAsync(name).Wait(ctx)
			if ferr != nil {
				return fail(fmt.Errorf("agd: chunk %q: %w", name, ferr))
			}
			c, err = decode(k, blob)
		}
		if err != nil {
			return fail(err)
		}
		chunks[k] = c
	}

	return &RowGroup{Index: i, Chunks: chunks, release: func() { s.release(chunks, slots) }}, nil
}

// release ends the use of a group's chunks: a cached chunk (its slot holds
// the entry) is unpinned, so it stays resident for the next reader until the
// cache drops it, and any other chunk goes back to the recycler.
func (s *chunkStream) release(chunks []*Chunk, slots []fetchSlot) {
	for k, c := range chunks {
		if slots[k].ent != nil {
			s.cache.Unpin(slots[k].ent)
		} else if c != nil {
			pooledChunks.Put(c)
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
