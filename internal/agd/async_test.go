package agd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

func TestFutureResolveAndWait(t *testing.T) {
	fut, resolve := NewFuture()
	select {
	case <-fut.Done():
		t.Fatal("future done before resolve")
	default:
	}
	go resolve([]byte("data"), nil)
	got, err := fut.Wait(context.Background())
	if err != nil || string(got) != "data" {
		t.Fatalf("Wait = %q, %v", got, err)
	}
	// Waiting again returns the same result.
	if got, err = fut.Wait(context.Background()); err != nil || string(got) != "data" {
		t.Fatalf("second Wait = %q, %v", got, err)
	}

	pre := ResolvedFuture(nil, ErrNotFound)
	if _, err := pre.Wait(context.Background()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("resolved future err = %v", err)
	}
}

func TestFutureWaitCancelled(t *testing.T) {
	fut, _ := NewFuture() // never resolved
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fut.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on cancelled ctx = %v", err)
	}
}

// plainStore hides a MemStore's async methods, forcing AsyncOf to use the
// generic goroutine adapter.
type plainStore struct{ BlobStore }

func TestAsyncOfNativePassthrough(t *testing.T) {
	mem := NewMemStore()
	if AsyncOf(mem) != AsyncBlobStore(mem) {
		t.Fatal("MemStore not passed through AsyncOf")
	}
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if AsyncOf(dir) != AsyncBlobStore(dir) {
		t.Fatal("DirStore not passed through AsyncOf")
	}
}

func TestAsyncAdapterAndNativesMatchGet(t *testing.T) {
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore()
	stores := map[string]AsyncBlobStore{
		"mem":     mem,
		"dir":     dir,
		"adapter": AsyncOf(plainStore{NewMemStore()}),
	}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			names := make([]string, 20)
			for i := range names {
				names[i] = fmt.Sprintf("blob-%02d", i)
				if err := s.Put(names[i], []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
					t.Fatal(err)
				}
			}
			futs := s.GetBatch(names)
			if len(futs) != len(names) {
				t.Fatalf("GetBatch returned %d futures", len(futs))
			}
			for i, fut := range futs {
				got, err := fut.Wait(context.Background())
				if err != nil || string(got) != fmt.Sprintf("payload-%02d", i) {
					t.Fatalf("future %d = %q, %v", i, got, err)
				}
			}
			// A missing blob fails only its own future.
			futs = s.GetBatch([]string{"blob-00", "missing"})
			if _, err := futs[0].Wait(context.Background()); err != nil {
				t.Fatalf("present blob failed: %v", err)
			}
			if _, err := futs[1].Wait(context.Background()); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing blob err = %v", err)
			}
		})
	}
}

// streamTestDataset builds a dataset and returns the expected per-chunk
// records of every column, read blob by blob with Get and DecodeChunk.
func streamTestDataset(t *testing.T, store BlobStore, n, cs int) (*Dataset, [][][]string) {
	t.Helper()
	writeTestDataset(t, store, "ds", n, cs)
	ds, err := Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]string, len(ds.Manifest.Chunks))
	for ci := range ds.Manifest.Chunks {
		want[ci] = make([][]string, len(ds.Manifest.Columns))
		for col, name := range ds.Manifest.Columns {
			blob, err := store.Get(ds.Manifest.ChunkBlobPath(ci, name))
			if err != nil {
				t.Fatal(err)
			}
			c, err := DecodeChunk(blob)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < c.NumRecords(); r++ {
				rec, err := c.Record(r)
				if err != nil {
					t.Fatal(err)
				}
				want[ci][col] = append(want[ci][col], string(rec))
			}
		}
	}
	return ds, want
}

func checkGroup(t *testing.T, sc *RowGroup, want [][][]string) {
	t.Helper()
	if err := groupErr(sc, want); err != nil {
		t.Fatal(err)
	}
}

// groupErr is checkGroup for goroutines other than the test's.
func groupErr(sc *RowGroup, want [][][]string) error {
	for col, c := range sc.Chunks {
		recs := want[sc.Index][col]
		if c.NumRecords() != len(recs) {
			return fmt.Errorf("chunk %d col %d: %d records, want %d", sc.Index, col, c.NumRecords(), len(recs))
		}
		for r := range recs {
			rec, err := c.Record(r)
			if err != nil {
				return err
			}
			if string(rec) != recs[r] {
				return fmt.Errorf("chunk %d col %d record %d = %q, want %q", sc.Index, col, r, rec, recs[r])
			}
		}
	}
	return nil
}

// streamStores are the stores the stream tests run over: one that answers
// every read at once, so the fetch window never grows, and one whose reads
// take a millisecond each, so consumers wait and the window grows.
func streamStores(ds *Dataset) map[string]*Dataset {
	slow := AsyncOf(plainStore{BlobStore: delayStore{ds.Store(), time.Millisecond}})
	return map[string]*Dataset{"mem": ds, "slow": OpenManifest(slow, ds.Manifest)}
}

func TestChunkStreamDeliversAllChunks(t *testing.T) {
	base, want := streamTestDataset(t, NewMemStore(), 50, 8) // 7 chunks
	for name, ds := range streamStores(base) {
		t.Run(name, func(t *testing.T) {
			stream, err := newChunkStream(ds, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer stream.close()
			next := 0
			for {
				sc, err := stream.next(context.Background())
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if sc.Index != next {
					t.Fatalf("chunk %d delivered, want %d", sc.Index, next)
				}
				checkGroup(t, sc, want)
				next++
			}
			if next != len(ds.Manifest.Chunks) {
				t.Fatalf("delivered %d chunks, want %d", next, len(ds.Manifest.Chunks))
			}
			// The stream stays exhausted.
			if _, err := stream.next(context.Background()); err != io.EOF {
				t.Fatalf("Next after EOF = %v", err)
			}
		})
	}
}

func TestChunkStreamColumnSubsetAndRange(t *testing.T) {
	ds, want := streamTestDataset(t, NewMemStore(), 50, 8)
	stream, err := newChunkStream(ds, StreamOptions{
		Columns: []string{ColQual}, Start: 2, End: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.close()
	qualCol := 0
	for i, name := range ds.Manifest.Columns {
		if name == ColQual {
			qualCol = i
		}
	}
	for i := 2; i < 5; i++ {
		sc, err := stream.next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sc.Index != i {
			t.Fatalf("Index = %d, want %d", sc.Index, i)
		}
		if len(sc.Chunks) != 1 {
			t.Fatalf("%d columns delivered, want qual alone", len(sc.Chunks))
		}
		c := sc.Chunks[0]
		for r := 0; r < c.NumRecords(); r++ {
			rec, _ := c.Record(r)
			if string(rec) != want[i][qualCol][r] {
				t.Fatalf("chunk %d qual record %d = %q", i, r, rec)
			}
		}
	}
	if _, err := stream.next(context.Background()); err != io.EOF {
		t.Fatalf("range end = %v, want EOF", err)
	}

	if _, err := newChunkStream(ds, StreamOptions{Columns: []string{"nope"}}); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("unknown column err = %v", err)
	}
}

func TestChunkStreamPoolRecycles(t *testing.T) {
	ds, want := streamTestDataset(t, NewMemStore(), 60, 6) // 10 chunks
	cols := len(ds.Manifest.Columns)
	pool := NewChunkPool(cols + 1) // barely enough for one chunk in hand
	stream, err := newChunkStream(ds, StreamOptions{ShardedPool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.close()
	delivered := 0
	for {
		sc, err := stream.next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		checkGroup(t, sc, want)
		sc.Release()
		delivered++
	}
	if delivered != 10 {
		t.Fatalf("delivered %d chunks", delivered)
	}
	if pool.Recycled() < int64((delivered-1)*cols) {
		t.Fatalf("pool recycled %d times; chunks leaked from the pool", pool.Recycled())
	}
	if pool.Free() != pool.Size() {
		t.Fatalf("%d of %d pool items free after stream end", pool.Free(), pool.Size())
	}
}

// TestChunkStreamShardedPoolName: NewShardedChunkPool, kept under its old
// name, is the plain pool: the shard count is ignored, and the stream checks
// chunks out of it and back into its one free list.
func TestChunkStreamShardedPoolName(t *testing.T) {
	ds, want := streamTestDataset(t, NewMemStore(), 60, 6)
	cols := len(ds.Manifest.Columns)
	pool := NewShardedChunkPool(4, cols+1)
	if pool.Size() != cols+1 {
		t.Fatalf("pool size %d, want %d", pool.Size(), cols+1)
	}
	stream, err := newChunkStream(ds, StreamOptions{ShardedPool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.close()
	sc, err := stream.next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGroup(t, sc, want)
	if free := pool.Free(); free != 1 {
		t.Fatalf("%d chunks free with one row group held, want 1", free)
	}
	sc.Release()
	if pool.Free() != pool.Size() {
		t.Fatalf("%d of %d chunks free after Release", pool.Free(), pool.Size())
	}
}

// TestChunkStreamConcurrentConsumers: several consumers share one stream;
// over the slow store they widen its fetch window while others claim.
func TestChunkStreamConcurrentConsumers(t *testing.T) {
	base, want := streamTestDataset(t, NewMemStore(), 120, 7) // 18 chunks
	for name, ds := range streamStores(base) {
		t.Run(name, func(t *testing.T) { consumeConcurrently(t, ds, want) })
	}
}

func consumeConcurrently(t *testing.T, ds *Dataset, want [][][]string) {
	stream, err := newChunkStream(ds, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.close()
	var mu sync.Mutex
	seen := make(map[int]bool)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sc, err := stream.next(context.Background())
				if err == io.EOF {
					return
				}
				if err != nil {
					errs <- err
					return
				}
				if err := groupErr(sc, want); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				if seen[sc.Index] {
					mu.Unlock()
					errs <- fmt.Errorf("chunk %d delivered twice", sc.Index)
					return
				}
				seen[sc.Index] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if len(seen) != len(ds.Manifest.Chunks) {
		t.Fatalf("saw %d distinct chunks, want %d", len(seen), len(ds.Manifest.Chunks))
	}
}

func TestChunkStreamCorruptBlob(t *testing.T) {
	store := NewMemStore()
	ds, _ := streamTestDataset(t, store, 50, 8)
	name := ds.Manifest.ChunkBlobPath(3, ColBases)
	blob, err := store.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, blob...)
	bad[len(bad)-1] ^= 0xff
	if err := store.Put(name, bad); err != nil {
		t.Fatal(err)
	}
	stream, err := newChunkStream(ds, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.close()
	for i := 0; ; i++ {
		_, err := stream.next(context.Background())
		if i < 3 && err != nil {
			t.Fatalf("chunk %d failed early: %v", i, err)
		}
		if i == 3 {
			if err == nil {
				t.Fatal("corrupt chunk delivered")
			}
			break
		}
	}
}

func TestChunkStreamClose(t *testing.T) {
	ds, _ := streamTestDataset(t, NewMemStore(), 50, 8)
	stream, err := newChunkStream(ds, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.next(context.Background()); err != nil {
		t.Fatal(err)
	}
	stream.close()
	if _, err := stream.next(context.Background()); err != io.EOF {
		t.Fatalf("Next after Close = %v, want EOF", err)
	}
	stream.close() // idempotent
}

// TestChunkStreamWindowGrowsWhileWaiting steps a consumer through a store
// that answers a read only when the test releases it, so every point where
// the consumer waits is known: the window opens at initialWindow, doubles
// each time the claimed chunk is still in flight and stops at maxWindow, and
// the stream never has more chunks issued than its window allows.
func TestChunkStreamWindowGrowsWhileWaiting(t *testing.T) {
	base, want := streamTestDataset(t, NewMemStore(), 448, 8) // 56 chunks
	cols := len(base.Manifest.Columns)
	held := newHeldStore(base.Store())
	stream, err := newChunkStream(OpenManifest(held, base.Manifest), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.close()
	// On failure, free a consumer still waiting on a held read.
	defer held.release()
	done := make(chan error, 1)
	go func() {
		for next := 0; ; next++ {
			sc, err := stream.next(context.Background())
			if err == io.EOF {
				if next != len(want) {
					err = fmt.Errorf("delivered %d chunks, want %d", next, len(want))
				} else {
					err = nil
				}
				done <- err
				return
			}
			if err != nil {
				done <- err
				return
			}
			if sc.Index != next {
				done <- fmt.Errorf("chunk %d delivered, want %d", sc.Index, next)
				return
			}
			if err := groupErr(sc, want); err != nil {
				done <- err
				return
			}
		}
	}()
	// Each step: the consumer blocks on chunk `claimed` with `issued` chunks
	// fetched and the window at `window`. Chunk 0 waits at the initial window
	// (4) and doubles it; chunk 8, issued after the first release, doubles it
	// again to the cap (16); chunks 24 and 40 wait at the cap.
	for _, step := range []struct{ claimed, issued, window int }{
		{0, 8, 8},
		{8, 24, 16},
		{24, 40, 16},
		{40, 56, 16},
	} {
		if !held.waitIssued(step.issued * cols) {
			stream.mu.Lock()
			issued, window := stream.issued, stream.window
			stream.mu.Unlock()
			t.Fatalf("stream stalled with %d chunks issued and window %d, want %d issued", issued, window, step.issued)
		}
		stream.mu.Lock()
		issued, window, claimed := stream.issued, stream.window, stream.claim-1
		stream.mu.Unlock()
		if issued != step.issued || window != step.window || claimed != step.claimed {
			t.Fatalf("waiting on chunk %d with %d chunks issued and window %d, want chunk %d, %d issued, window %d",
				claimed, issued, window, step.claimed, step.issued, step.window)
		}
		if issued-claimed > maxWindow {
			t.Fatalf("%d chunks issued ahead of chunk %d, window cap is %d", issued-claimed, claimed, maxWindow)
		}
		held.release()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestChunkStreamWindowStaysOnReadyStore: over a store whose reads have
// completed by the time they are claimed, the window never grows.
func TestChunkStreamWindowStaysOnReadyStore(t *testing.T) {
	ds, _ := streamTestDataset(t, NewMemStore(), 640, 8) // 80 chunks
	stream, err := newChunkStream(ds, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.close()
	for {
		_, err := stream.next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		stream.mu.Lock()
		ahead, window := stream.issued-stream.claim, stream.window
		stream.mu.Unlock()
		if window != initialWindow || ahead >= initialWindow {
			t.Fatalf("window %d with %d chunks issued ahead, want %d and fewer", window, ahead, initialWindow)
		}
	}
}

// heldStore issues reads that complete only when the test calls release.
type heldStore struct {
	BlobStore
	mu     sync.Mutex
	cond   *sync.Cond
	issued int      // reads issued so far
	held   []func() // resolvers of the reads not yet released, in issue order
}

func newHeldStore(inner BlobStore) *heldStore {
	h := &heldStore{BlobStore: inner}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *heldStore) GetAsync(name string) *Future { return h.GetBatch([]string{name})[0] }

func (h *heldStore) GetBatch(names []string) []*Future {
	futs := make([]*Future, len(names))
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, name := range names {
		fut, resolve := NewFuture()
		data, err := h.BlobStore.Get(name)
		h.held = append(h.held, func() { resolve(data, err) })
		futs[i] = fut
	}
	h.issued += len(names)
	h.cond.Broadcast()
	return futs
}

// waitIssued blocks until n reads have been issued and reports whether they
// were. It gives up after ten seconds: a stream whose consumer waits on a
// held read issues nothing more until release.
func (h *heldStore) waitIssued(n int) bool {
	expired := false
	timer := time.AfterFunc(10*time.Second, func() {
		h.mu.Lock()
		expired = true
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	defer timer.Stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.issued < n && !expired {
		h.cond.Wait()
	}
	return h.issued >= n
}

// release completes every read issued so far, newest first: the consumer
// waits on the oldest, so it resumes only once all of them are complete.
func (h *heldStore) release() {
	h.mu.Lock()
	held := h.held
	h.held = nil
	h.mu.Unlock()
	for i := len(held) - 1; i >= 0; i-- {
		held[i]()
	}
}

// delayStore adds fixed latency to every Get.
type delayStore struct {
	BlobStore
	d time.Duration
}

func (s delayStore) Get(name string) ([]byte, error) {
	time.Sleep(s.d)
	return s.BlobStore.Get(name)
}
