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
// records of every column, via the synchronous read path.
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
			c, err := ds.ReadChunk(name, ci)
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

func checkStreamChunk(t *testing.T, sc *StreamChunk, want [][][]string) {
	t.Helper()
	for col, c := range sc.Chunks() {
		recs := want[sc.Index][col]
		if c.NumRecords() != len(recs) {
			t.Fatalf("chunk %d col %d: %d records, want %d", sc.Index, col, c.NumRecords(), len(recs))
		}
		for r := range recs {
			rec, err := c.Record(r)
			if err != nil {
				t.Fatal(err)
			}
			if string(rec) != recs[r] {
				t.Fatalf("chunk %d col %d record %d = %q, want %q", sc.Index, col, r, rec, recs[r])
			}
		}
	}
}

func TestChunkStreamDeliversAllChunks(t *testing.T) {
	ds, want := streamTestDataset(t, NewMemStore(), 50, 8) // 7 chunks
	for _, window := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			stream, err := ds.Stream(StreamOptions{Prefetch: window})
			if err != nil {
				t.Fatal(err)
			}
			defer stream.Close()
			next := 0
			for {
				sc, err := stream.Next(context.Background())
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if sc.Index != next {
					t.Fatalf("chunk %d delivered, want %d", sc.Index, next)
				}
				checkStreamChunk(t, sc, want)
				next++
			}
			if next != len(ds.Manifest.Chunks) {
				t.Fatalf("delivered %d chunks, want %d", next, len(ds.Manifest.Chunks))
			}
			// The stream stays exhausted.
			if _, err := stream.Next(context.Background()); err != io.EOF {
				t.Fatalf("Next after EOF = %v", err)
			}
		})
	}
}

func TestChunkStreamColumnSubsetAndRange(t *testing.T) {
	ds, want := streamTestDataset(t, NewMemStore(), 50, 8)
	stream, err := ds.Stream(StreamOptions{
		Columns: []string{ColQual}, Start: 2, End: 5, Prefetch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	qualCol := 0
	for i, name := range ds.Manifest.Columns {
		if name == ColQual {
			qualCol = i
		}
	}
	for i := 2; i < 5; i++ {
		sc, err := stream.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sc.Index != i {
			t.Fatalf("Index = %d, want %d", sc.Index, i)
		}
		if sc.Col(ColQual) == nil || sc.Col(ColBases) != nil {
			t.Fatal("column subset not respected")
		}
		c := sc.Col(ColQual)
		for r := 0; r < c.NumRecords(); r++ {
			rec, _ := c.Record(r)
			if string(rec) != want[i][qualCol][r] {
				t.Fatalf("chunk %d qual record %d = %q", i, r, rec)
			}
		}
	}
	if _, err := stream.Next(context.Background()); err != io.EOF {
		t.Fatalf("range end = %v, want EOF", err)
	}

	if _, err := ds.Stream(StreamOptions{Columns: []string{"nope"}}); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("unknown column err = %v", err)
	}
}

func TestChunkStreamPoolRecycles(t *testing.T) {
	ds, want := streamTestDataset(t, NewMemStore(), 60, 6) // 10 chunks
	cols := len(ds.Manifest.Columns)
	pool := NewShardedChunkPool(1, cols+1) // barely enough for one chunk in hand
	stream, err := ds.Stream(StreamOptions{Prefetch: 4, ShardedPool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	delivered := 0
	for {
		sc, err := stream.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		checkStreamChunk(t, sc, want)
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

func TestChunkStreamConcurrentConsumers(t *testing.T) {
	ds, want := streamTestDataset(t, NewMemStore(), 120, 7) // 18 chunks
	stream, err := ds.Stream(StreamOptions{Prefetch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	var mu sync.Mutex
	seen := make(map[int]bool)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sc, err := stream.Next(context.Background())
				if err == io.EOF {
					return
				}
				if err != nil {
					errs <- err
					return
				}
				checkStreamChunk(t, sc, want)
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
	stream, err := ds.Stream(StreamOptions{Prefetch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for i := 0; ; i++ {
		_, err := stream.Next(context.Background())
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
	stream, err := ds.Stream(StreamOptions{Prefetch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	stream.Close()
	if _, err := stream.Next(context.Background()); err != io.EOF {
		t.Fatalf("Next after Close = %v, want EOF", err)
	}
	stream.Close() // idempotent
}

// TestChunkStreamOverlapsLatency is the tentpole's behavioural check: with a
// per-Get latency of d, a synchronous reader pays ~chunks*cols*d while a
// windowed stream overlaps the fetches. The margin (3x) is wide enough for
// CI noise but tight enough that a silently serialized stream fails.
func TestChunkStreamOverlapsLatency(t *testing.T) {
	const d = 2 * time.Millisecond
	store := NewMemStore()
	ds, _ := streamTestDataset(t, store, 96, 8) // 12 chunks, 3 columns
	slow := AsyncOf(plainStore{BlobStore: delayStore{store, d}})
	sds := OpenManifest(slow, ds.Manifest)

	elapsed := func(window int) time.Duration {
		stream, err := sds.Stream(StreamOptions{Prefetch: window})
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		start := time.Now()
		for {
			if _, err := stream.Next(context.Background()); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	serial := elapsed(1)
	windowed := elapsed(8)
	if windowed > serial/3 {
		t.Fatalf("prefetch window hid no latency: sync %v, windowed %v", serial, windowed)
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
