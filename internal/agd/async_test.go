package agd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
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

// raceEnabled is set when the race detector is on (race_test.go), whose
// sync.Pool drops recycled objects on purpose.
var raceEnabled bool

// countChunksMade counts the chunks the recycler has to make, rather than
// hand back, until the test ends. The collector is off meanwhile, so no
// recycled chunk is dropped.
func countChunksMade(t *testing.T) *atomic.Int64 {
	made := new(atomic.Int64)
	prevNew := pooledChunks.New
	pooledChunks.New = func() *Chunk { made.Add(1); return new(Chunk) }
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		pooledChunks.New = prevNew
		debug.SetGCPercent(gc)
	})
	return made
}

// TestChunkStreamPoolRecycles: a stream with no cache decodes into chunks
// from the recycler and gives each group's back at its Release, so ten
// groups read one at a time make one group's worth of chunks, not ten.
func TestChunkStreamPoolRecycles(t *testing.T) {
	ds, want := streamTestDataset(t, NewMemStore(), 60, 6) // 10 chunks
	cols := len(ds.Manifest.Columns)
	made := countChunksMade(t)
	stream, err := newChunkStream(ds, StreamOptions{})
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
	if n := made.Load(); !raceEnabled && n > int64(cols) {
		t.Fatalf("the stream made %d chunks for %d groups of %d columns: released chunks were not reused", n, delivered, cols)
	}
}

// TestChunkStreamShardedPoolName: NewShardedChunkPool, kept under its old
// name, makes a pool no stream draws on: a stream given it delivers the
// same groups and leaves the pool whole.
func TestChunkStreamShardedPoolName(t *testing.T) {
	ds, want := streamTestDataset(t, NewMemStore(), 60, 6)
	pool := NewShardedChunkPool(4, 3)
	if pool.Size() != 3 {
		t.Fatalf("pool size %d, want 3", pool.Size())
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
	if pool.Free() != pool.Size() {
		t.Fatalf("%d of %d chunks free with a group held: the stream drew on the ignored pool", pool.Free(), pool.Size())
	}
	sc.Release()
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

// TestChunkStreamWindowOpensWhileWaiting steps a consumer through a store
// that answers a read only when the test releases it, so every point where
// the consumer waits is known. The window opens at initialWindow; the first
// wait opens it in one step to windowRecords records, and never to fewer
// than openWindow chunks, and the stream never has more chunks issued than
// that. 56 chunks of 2048 records drain in two release rounds (⌈56 / 32⌉),
// where a window that doubled from 4 to 16 chunks took four; 20 chunks of
// 8192 records, 8 to the record budget, drain in two rounds of openWindow.
func TestChunkStreamWindowOpensWhileWaiting(t *testing.T) {
	for _, tc := range []struct {
		name             string
		chunks, perChunk int
	}{
		{"small-chunks", 56, 2048},
		{"large-chunks", 20, 8192},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testWindowOpensWhileWaiting(t, tc.chunks, tc.perChunk)
		})
	}
}

func testWindowOpensWhileWaiting(t *testing.T, chunks, perChunk int) {
	base, want := streamTestDataset(t, NewMemStore(), chunks*perChunk, perChunk)
	bound := max(openWindow, windowRecords/perChunk)
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
	// Each round waits until the stream has issued `issued` chunks and then
	// releases every read. Chunk 0 waits and opens the window to the bound;
	// delivering chunks 1 to bound-1 tops it up one chunk each, and chunk
	// `bound` finds its reads issued with the second round.
	rounds := (len(want) + bound - 1) / bound
	for r := 1; r <= rounds; r++ {
		issued := min(r*bound, len(want))
		if !held.waitIssued(issued * cols) {
			stream.mu.Lock()
			got := stream.issued
			stream.mu.Unlock()
			t.Fatalf("round %d: stream stalled with %d chunks issued, want %d", r, got, issued)
		}
		stream.mu.Lock()
		got, wide, claimed := stream.issued, stream.wide, stream.claim-1
		stream.mu.Unlock()
		if got != issued || !wide || r == 1 && claimed != 0 {
			t.Fatalf("round %d: chunk %d claimed with %d chunks issued (window open %v), want %d issued, window open",
				r, claimed, got, wide, issued)
		}
		if got-claimed > bound {
			t.Fatalf("%d chunks issued ahead of chunk %d, the window is %d", got-claimed, claimed, bound)
		}
		held.release()
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("stream still waiting after %d release rounds", rounds)
	}
}

// TestChunkStreamIssuerNeverBlocks: over a store with nothing but Get, a
// stream issues more reads than the async adapter has workers, and next
// still returns chunk 0 as soon as chunk 0's reads are answered. The reads
// beyond the adapter's bound wait in its queue; an issuer that waited for a
// free worker would hold the stream's lock until reads the consumer has not
// claimed yet were answered.
func TestChunkStreamIssuerNeverBlocks(t *testing.T) {
	// Six columns, so that even an 8-chunk window is 48 reads.
	cols := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	rows := make([][][]byte, 12*4)
	for i := range rows {
		for range cols {
			rows[i] = append(rows[i], []byte(fmt.Sprintf("row.%d", i)))
		}
	}
	mem := NewMemStore()
	m := writeRows(t, mem, "ds", StreamMeta{Columns: cols, ChunkSize: 4}, rows)
	gated := newGatedStore(mem)
	stream, err := newChunkStream(OpenManifest(gated, m), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.close()
	defer gated.openGates()
	type delivery struct {
		sc  *RowGroup
		err error
	}
	got := make(chan delivery, 1)
	go func() {
		sc, err := stream.next(context.Background())
		got <- delivery{sc, err}
	}()
	gated.mu.Lock()
	busy := waitFor(gated.cond, func() bool { return gated.waiting >= asyncAdapterParallelism })
	gated.mu.Unlock()
	if !busy {
		t.Fatalf("fewer than %d reads reached the store", asyncAdapterParallelism)
	}
	chunk0 := make([]string, len(cols))
	for k, col := range cols {
		chunk0[k] = m.ChunkBlobPath(0, col)
	}
	gated.openGates(chunk0...)
	select {
	case d := <-got:
		if d.err != nil {
			t.Fatal(d.err)
		}
		if d.sc.Index != 0 {
			t.Fatalf("chunk %d delivered, want 0", d.sc.Index)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("next did not return chunk 0 after its reads were answered")
	}
}

// TestReadQueueStartsNoStrayWorker: at one processor, a round of reads is
// queued before any worker runs, and the newest worker takes them all. A
// worker started for a read that another worker took is left runnable with
// nothing to do; the queue starts one only for a read that no worker already
// started will take, so such workers serve the next round instead of piling
// up, and the goroutines left after every round stay within one round's
// reads (plus one worker still finishing).
func TestReadQueueStartsNoStrayWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const reads = 3
	q := &readQueue{idle: 32}
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for round := 0; round < 100; round++ {
		wg.Add(reads)
		for i := 0; i < reads; i++ {
			q.Go(wg.Done)
		}
		wg.Wait()
		if extra := runtime.NumGoroutine() - base; extra > reads+1 {
			t.Fatalf("round %d: %d goroutines beyond the test's own, for %d reads a round", round, extra, reads)
		}
	}
}

// TestReadQueueBacklogStaysBounded: reads keep arriving as fast as the one
// worker finishes them, so the queue never empties, and its backing array
// stays the size of the backlog rather than of every read ever queued.
func TestReadQueueBacklogStaysBounded(t *testing.T) {
	const backlog = 8
	q := &readQueue{idle: 1}
	gate, done := make(chan struct{}), make(chan struct{})
	read := func() { <-gate; done <- struct{}{} }
	for i := 0; i < backlog; i++ {
		q.Go(read)
	}
	for i := 0; i < 10000; i++ {
		gate <- struct{}{}
		<-done
		q.Go(read)
	}
	q.mu.Lock()
	size := cap(q.pending)
	q.mu.Unlock()
	close(gate)
	for i := 0; i < backlog; i++ {
		<-done
	}
	if size > 4*backlog {
		t.Fatalf("queue holds %d slots for a backlog of %d reads", size, backlog)
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
		ahead, wide := stream.issued-stream.claim, stream.wide
		stream.mu.Unlock()
		if wide || ahead >= initialWindow {
			t.Fatalf("window opened (%v) with %d chunks issued ahead, want closed and fewer than %d", wide, ahead, initialWindow)
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
	h.mu.Lock()
	defer h.mu.Unlock()
	return waitFor(h.cond, func() bool { return h.issued >= n })
}

// waitFor waits on cond, whose lock the caller holds, until ok holds, and
// reports whether it does. It gives up after ten seconds.
func waitFor(cond *sync.Cond, ok func() bool) bool {
	expired := false
	timer := time.AfterFunc(10*time.Second, func() {
		cond.L.Lock()
		expired = true
		cond.Broadcast()
		cond.L.Unlock()
	})
	defer timer.Stop()
	for !ok() && !expired {
		cond.Wait()
	}
	return ok()
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

// gatedStore is a store with nothing but Get, so AsyncOf gives it the
// adapter. Each Get waits until the test opens its blob's gate.
type gatedStore struct {
	BlobStore
	mu      sync.Mutex
	cond    *sync.Cond
	open    map[string]bool // nil once every gate is open
	waiting int             // Gets waiting on a closed gate
}

func newGatedStore(inner BlobStore) *gatedStore {
	g := &gatedStore{BlobStore: inner, open: map[string]bool{}}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gatedStore) Get(name string) ([]byte, error) {
	g.mu.Lock()
	g.waiting++
	g.cond.Broadcast()
	for g.open != nil && !g.open[name] {
		g.cond.Wait()
	}
	g.waiting--
	g.mu.Unlock()
	return g.BlobStore.Get(name)
}

// openGates opens the named gates, or every gate when names is empty.
func (g *gatedStore) openGates(names ...string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, name := range names {
		g.open[name] = true
	}
	if len(names) == 0 {
		g.open = nil
	}
	g.cond.Broadcast()
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
