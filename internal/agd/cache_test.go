package agd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// testChunk builds a fresh raw chunk with n records of the given payload.
func testChunk(t testing.TB, payload string, n int) *Chunk {
	t.Helper()
	b := NewChunkBuilder(TypeRaw, 0)
	for i := 0; i < n; i++ {
		b.Append([]byte(payload))
	}
	return b.Chunk()
}

// probeAbsent asserts key is not resident. A probe Lookup that wins fill
// ownership must complete it (Abort), or later readers would wait forever.
func probeAbsent(t testing.TB, c *ChunkCache, key string) {
	t.Helper()
	e, fill := c.Lookup(key)
	if !fill {
		c.Unpin(e)
		t.Fatalf("entry %q unexpectedly resident", key)
	}
	c.Abort(e, nil)
	c.Unpin(e)
}

// fillCache commits a fresh chunk under key and releases the pin.
func fillCache(t testing.TB, c *ChunkCache, key string, recs int) *Chunk {
	t.Helper()
	e, fill := c.Lookup(key)
	if !fill {
		t.Fatalf("Lookup(%q): expected fill ownership", key)
	}
	ch := testChunk(t, "ACGT", recs)
	c.Commit(e, ch)
	c.Unpin(e)
	return ch
}

func TestChunkCacheLRUOrder(t *testing.T) {
	one := testChunk(t, "ACGT", 4).MemSize()
	c := NewChunkCache(3 * one)
	fillCache(t, c, "a", 4)
	fillCache(t, c, "b", 4)
	fillCache(t, c, "c", 4)

	// Touch "a" so "b" becomes the LRU tail.
	if e, fill := c.Lookup("a"); fill {
		t.Fatal("resident entry reported as fill")
	} else {
		c.Unpin(e)
	}

	// Committing "d" exceeds the budget by one entry: "b" must go, not "a".
	fillCache(t, c, "d", 4)
	probeAbsent(t, c, "b")
	for _, key := range []string{"a", "c", "d"} {
		e, fill := c.Lookup(key)
		if fill {
			t.Fatalf("entry %q was evicted out of LRU order", key)
		}
		c.Unpin(e)
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

// TestChunkCacheByteBudget drives a random commit/lookup/unpin schedule and
// checks the accounting invariants: resident bytes equal the sum of resident
// entry sizes, and with no pins outstanding the cache is within budget.
func TestChunkCacheByteBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const budget = 16 << 10
	c := NewChunkCache(budget)
	chunks := make(map[string]*Chunk)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("ds/chunk-%06d.bases", rng.Intn(40))
		e, fill := c.Lookup(key)
		if fill {
			ch := testChunk(t, strings.Repeat("A", 16+rng.Intn(512)), 1+rng.Intn(8))
			chunks[key] = ch
			c.Commit(e, ch)
		} else if got := e.Chunk(); got == nil {
			t.Fatalf("resident entry %q has nil chunk", key)
		}
		c.Unpin(e)

		s := c.Stats()
		if s.Pinned != 0 {
			t.Fatalf("pinned = %d with no outstanding consumers", s.Pinned)
		}
		if s.Bytes > budget {
			t.Fatalf("bytes %d over budget %d with nothing pinned", s.Bytes, budget)
		}
		var sum int64
		n := 0
		for key, ch := range chunks {
			if e, fill := c.Lookup(key); !fill {
				sum += ch.MemSize()
				n++
				c.Unpin(e)
			} else {
				// Our probe Lookup started a fill; abandon it.
				c.Abort(e, nil)
				c.Unpin(e)
				delete(chunks, key)
			}
		}
		if s2 := c.Stats(); s2.Bytes != sum || s2.Entries != n {
			t.Fatalf("stats bytes=%d entries=%d, recomputed bytes=%d entries=%d",
				s2.Bytes, s2.Entries, sum, n)
		}
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatal("schedule never evicted; budget property unexercised")
	}
}

// TestChunkCacheSingleflight has many goroutines race Lookup on one key:
// exactly one must win fill ownership, everyone else waits and sees the
// winner's chunk. Run under -race this is the cache's concurrency test.
func TestChunkCacheSingleflight(t *testing.T) {
	c := NewChunkCache(1 << 20)
	const workers = 16
	var (
		fills  int64
		fillMu sync.Mutex
		wg     sync.WaitGroup
		want   *Chunk
	)
	start := make(chan struct{})
	got := make([]*Chunk, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			e, fill := c.Lookup("ds/chunk-000000.bases")
			if fill {
				time.Sleep(time.Millisecond) // widen the wait window
				ch := testChunk(t, "ACGT", 4)
				fillMu.Lock()
				fills++
				want = ch
				fillMu.Unlock()
				c.Commit(e, ch)
				got[w] = ch
			} else {
				ch, err := e.Wait(context.Background())
				if err != nil {
					t.Errorf("waiter %d: %v", w, err)
				}
				got[w] = ch
			}
			c.Unpin(e)
		}(w)
	}
	close(start)
	wg.Wait()
	if fills != 1 {
		t.Fatalf("fills = %d, want exactly 1", fills)
	}
	for w, ch := range got {
		if ch != want {
			t.Fatalf("worker %d got a different chunk than the filler", w)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != workers-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", s.Hits, s.Misses, workers-1)
	}
}

func TestChunkCachePinnedNotEvicted(t *testing.T) {
	one := testChunk(t, "ACGT", 4).MemSize()
	c := NewChunkCache(one) // room for exactly one entry
	fillCache(t, c, "a", 4)
	// Pin "a", then overflow the budget: "a" must survive (a pin is a
	// liveness promise), leaving the cache temporarily over budget.
	ea, fill := c.Lookup("a")
	if fill {
		t.Fatal("a missing")
	}
	fillCache(t, c, "b", 4)
	if ea.Chunk() == nil {
		t.Fatal("pinned entry lost its chunk")
	}
	if _, fill := c.Lookup("a"); fill {
		t.Fatal("pinned entry evicted")
	} else {
		c.Unpin(ea) // the probe's pin
	}
	// Releasing the original pin makes "a" evictable; the budget squeeze
	// resolves on Unpin.
	c.Unpin(ea)
	if s := c.Stats(); s.Bytes > one {
		t.Fatalf("bytes %d over budget %d after pins released", s.Bytes, one)
	}
}

func TestChunkCacheAbortPaths(t *testing.T) {
	c := NewChunkCache(1 << 20)

	// Error abort: the failure propagates to waiters, nothing is cached,
	// and the next Lookup restarts the fill.
	e, fill := c.Lookup("k")
	if !fill {
		t.Fatal("want fill")
	}
	waiter, fill2 := c.Lookup("k")
	if fill2 {
		t.Fatal("second lookup won a second fill")
	}
	bad := errors.New("corrupt blob")
	c.Abort(e, bad)
	c.Unpin(e)
	if _, err := waiter.Wait(context.Background()); !errors.Is(err, bad) {
		t.Fatalf("waiter error = %v, want the abort error", err)
	}
	c.Unpin(waiter)
	probeAbsent(t, c, "k")
	if s := c.Stats(); s.FillErrors != 1 || s.Entries != 0 {
		t.Fatalf("fillErrors=%d entries=%d, want 1/0", s.FillErrors, s.Entries)
	}

	// Abandoned abort (owner closed early): waiters get ErrCacheAbandoned.
	e2, _ := c.Lookup("k2")
	w2, _ := c.Lookup("k2")
	c.Abort(e2, nil)
	c.Unpin(e2)
	if _, err := w2.Wait(context.Background()); !errors.Is(err, ErrCacheAbandoned) {
		t.Fatalf("waiter error = %v, want ErrCacheAbandoned", err)
	}
	c.Unpin(w2)
}

func TestChunkCacheFlushAndInvalidate(t *testing.T) {
	c := NewChunkCache(1 << 20)
	fillCache(t, c, "ds1/chunk-000000.bases", 4)
	fillCache(t, c, "ds1/chunk-000001.bases", 4)
	fillCache(t, c, "ds2/chunk-000000.bases", 4)

	n, bytes := c.InvalidatePrefix("ds1/")
	if n != 2 || bytes <= 0 {
		t.Fatalf("InvalidatePrefix dropped %d entries (%d bytes), want 2", n, bytes)
	}
	if _, fill := c.Lookup("ds2/chunk-000000.bases"); fill {
		t.Fatal("invalidate crossed dataset prefixes")
	}
	n, _ = c.Flush()
	if n != 1 {
		t.Fatalf("Flush dropped %d, want the 1 remaining", n)
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("post-flush stats: %+v", s)
	}
}

// TestStreamCacheWarmReads streams a dataset twice through one cache: the
// second pass must be all hits, deliver byte-identical records, and leave
// the chunk pool whole — proving cached chunks are never pool-owned (an
// ItemPool recycle of a cached chunk is structurally impossible because the
// cache only ever holds freshly allocated decodes).
func TestStreamCacheWarmReads(t *testing.T) {
	store := NewMemStore()
	writeTestDataset(t, store, "ds", 40, 10)
	ds, err := Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewChunkCache(1 << 20)
	pool := NewChunkPool(64)

	readAll := func() []string {
		var recs []string
		st, err := ds.Groups(StreamOptions{ShardedPool: pool, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for {
			sc, err := st.Next(context.Background())
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range sc.Chunks {
				for r := 0; r < c.NumRecords(); r++ {
					rec, err := c.Record(r)
					if err != nil {
						t.Fatal(err)
					}
					recs = append(recs, string(rec))
				}
			}
			sc.Release()
		}
		return recs
	}

	first := readAll()
	s1 := cache.Stats()
	if s1.Fills == 0 || s1.Hits != 0 {
		t.Fatalf("cold pass: fills=%d hits=%d", s1.Fills, s1.Hits)
	}
	second := readAll()
	s2 := cache.Stats()
	if s2.Fills != s1.Fills {
		t.Fatalf("warm pass refilled: fills %d -> %d", s1.Fills, s2.Fills)
	}
	if warmHits := s2.Hits - s1.Hits; warmHits != s1.Misses {
		t.Fatalf("warm pass hits = %d, want %d (every cold miss)", warmHits, s1.Misses)
	}
	if len(first) != len(second) {
		t.Fatalf("record counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("record %d differs cold vs warm", i)
		}
	}
	if pool.Free() != pool.Size() {
		t.Fatalf("pool free=%d size=%d: a cached chunk leaked into (or out of) the pool",
			pool.Free(), pool.Size())
	}
	if s2.Pinned != 0 {
		t.Fatalf("pinned = %d after all groups released", s2.Pinned)
	}
}

// TestStreamCacheConcurrentStreams runs several cache-sharing streams over
// the same dataset concurrently (singleflight fills + waits under -race) and
// checks each sees the full record set.
func TestStreamCacheConcurrentStreams(t *testing.T) {
	store := NewMemStore()
	writeTestDataset(t, store, "ds", 60, 10)
	ds, err := Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewChunkCache(1 << 20)
	const streams = 6
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := ds.Groups(StreamOptions{Cache: cache})
			if err != nil {
				t.Error(err)
				return
			}
			defer st.Close()
			records := 0
			for {
				sc, err := st.Next(context.Background())
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Error(err)
					return
				}
				records += sc.Col(st.Meta, ColBases).NumRecords()
				sc.Release()
			}
			if records != 60 {
				t.Errorf("stream saw %d records, want 60", records)
			}
		}()
	}
	wg.Wait()
	s := cache.Stats()
	if s.Pinned != 0 {
		t.Fatalf("pinned = %d after all streams done", s.Pinned)
	}
	if s.Fills > 6*3 { // 6 chunks × 3 columns; singleflight may not be perfect across Close races but must not blow up
		t.Fatalf("fills = %d, want at most one per (chunk, column) = 18", s.Fills)
	}
}

// corruptingStore flips a byte of one blob's payload on its first read.
type corruptingStore struct {
	BlobStore
	target string
	mu     sync.Mutex
	done   bool
}

func (s *corruptingStore) Get(name string) ([]byte, error) {
	data, err := s.BlobStore.Get(name)
	if err != nil || name != s.target {
		return data, err
	}
	s.mu.Lock()
	first := !s.done
	s.done = true
	s.mu.Unlock()
	if first {
		cp := make([]byte, len(data))
		copy(cp, data)
		cp[len(cp)/2] ^= 0xFF
		return cp, nil
	}
	return data, nil
}

// TestStreamCacheCorruptNeverCached reads through a store that corrupts one
// chunk blob once: the stream must fail (CRC), the cache must not retain the
// bad decode, and the healed retry must succeed and cache normally.
func TestStreamCacheCorruptNeverCached(t *testing.T) {
	mem := NewMemStore()
	m := writeTestDataset(t, mem, "ds", 30, 10)
	target := chunkPath(m.Chunks[1], ColBases)
	store := &corruptingStore{BlobStore: mem, target: target}
	ds, err := Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewChunkCache(1 << 20)

	st, err := ds.Groups(StreamOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for {
		sc, err := st.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			sawErr = true
			break
		}
		sc.Release()
	}
	st.Close()
	if !sawErr {
		t.Fatal("corrupted blob read succeeded")
	}
	if s := cache.Stats(); s.FillErrors == 0 {
		t.Fatalf("no fill error recorded: %+v", s)
	}
	probeAbsent(t, cache, target)

	// The store heals (corruption was one-shot); a fresh stream succeeds and
	// the once-bad chunk now caches.
	st2, err := ds.Groups(StreamOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	records := 0
	for {
		sc, err := st2.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("healed read failed: %v", err)
		}
		records += sc.Col(st2.Meta, ColBases).NumRecords()
		sc.Release()
	}
	if records != 30 {
		t.Fatalf("healed read saw %d records, want 30", records)
	}
}

// TestCacheAllocOverhead budgets the warm hit path: a resident Lookup+Unpin
// pair must not allocate — repeat jobs hammer this per chunk per column.
func TestCacheAllocOverhead(t *testing.T) {
	c := NewChunkCache(1 << 20)
	fillCache(t, c, "ds/chunk-000000.bases", 8)
	allocs := testing.AllocsPerRun(1000, func() {
		e, fill := c.Lookup("ds/chunk-000000.bases")
		if fill {
			t.Fatal("warm lookup missed")
		}
		c.Unpin(e)
	})
	if allocs > 0 {
		t.Fatalf("warm Lookup+Unpin allocates %.1f objects/op, want 0", allocs)
	}
}
