package persona

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"maps"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"persona/internal/agd"
	"persona/internal/testutil"
)

// Tests of the process-wide pools a run takes its stage memory from (run
// builders, chunk builders, decoded chunks, marker tables): a second run
// reuses what the first grew, and nothing is recycled while a run can still
// read it.

// TestSecondRunAllocatesHalf: in one process, the second identical
// Read → Align → Sort → MarkDuplicates → ExportBAM run, on a session of its
// own as the first, allocates at most half the bytes of the first, which
// starts from empty pools. Each run gets a fresh store clone; both runs'
// BAMs are equal. Collections run only where the test asks: a pooled object
// outlives one, and the benchmark collects once before each rep, so an
// automatic collection mid-test would measure the heap's timing instead.
func TestSecondRunAllocatesHalf(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects on purpose")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the benchmark's schedule
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	seed := agd.NewMemStore()
	f := testutil.Build(t, seed, "ds", testutil.Config{
		GenomeSize: 100_000, NumReads: 8000, ChunkSize: 1000, DupFrac: 0.1, Seed: 52, SkipAlign: true,
	})
	run := func() (uint64, []byte) {
		sess := NewSession(testutil.CopyStore(t, seed), SessionOptions{})
		defer sess.Close()
		var bam bytes.Buffer
		bam.Grow(2 << 20)
		var before, after runtime.MemStats
		runtime.GC() // as the benchmark does before a rep
		runtime.ReadMemStats(&before)
		_, err := sess.Read("ds").Align(f.Index, AlignOptions{}).Sort(ByLocation).MarkDuplicates().ExportBAM(&bam).Run(ctx)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, bam.Bytes()
	}
	runtime.GC()
	runtime.GC() // the pools are empty
	first, want := run()
	second, got := run()
	if !bytes.Equal(got, want) {
		t.Fatalf("the second run's BAM differs from the first's (%d vs %d bytes)", len(got), len(want))
	}
	t.Logf("first run allocated %d bytes, second %d (x%.3f)", first, second, float64(second)/float64(first))
	if 2*second > first {
		t.Fatalf("second run allocated %d bytes, the first %d: want at most half", second, first)
	}
}

// decodedBytes sums what decoding every chunk of a dataset's columns holds:
// record bytes and the relative index.
func decodedBytes(t *testing.T, store Store, dataset string) int64 {
	t.Helper()
	ds, err := agd.Open(store, dataset)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for i := range ds.Manifest.Chunks {
		for _, col := range ds.Manifest.Columns {
			blob, err := store.Get(ds.Manifest.ChunkBlobPath(i, col))
			if err != nil {
				t.Fatal(err)
			}
			c, err := agd.DecodeChunk(blob)
			if err != nil {
				t.Fatal(err)
			}
			n += int64(len(c.Data)) + 4*int64(c.NumRecords())
		}
	}
	return n
}

// TestWarmSessionAllocatesLessThanItReads: a cache-on Read → ExportSAM on a
// second session decodes every chunk into the chunks the first session's
// Close gave back to the recycler, so it allocates less than the decoded
// bytes it reads. Collections run only where the test asks, as in
// TestSecondRunAllocatesHalf.
func TestWarmSessionAllocatesLessThanItReads(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects on purpose")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	seed := agd.NewMemStore()
	testutil.Build(t, seed, "ds", testutil.Config{
		GenomeSize: 100_000, NumReads: 8000, ChunkSize: 1000, DupFrac: 0.1, Seed: 55,
	})
	decoded := decodedBytes(t, seed, "ds")
	run := func() uint64 {
		sess := NewSession(testutil.CopyStore(t, seed), SessionOptions{})
		defer sess.Close()
		var sam bytes.Buffer
		sam.Grow(8 << 20)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := sess.Read("ds").ExportSAM(&sam).Run(ctx)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	runtime.GC()
	runtime.GC() // the pools are empty
	first := run()
	second := run()
	t.Logf("decoded %d bytes; the first session allocated %d, the second %d", decoded, first, second)
	if int64(second) >= decoded {
		t.Fatalf("the second session allocated %d bytes reading %d decoded bytes: want less", second, decoded)
	}
}

// TestRawColumnsLeaveStoreIntact: a MemStore hands out its stored bytes, and
// a raw column (the packed bases, a distributed export's staging dataset)
// decodes without inflating. Runs over such columns, with the cache on and
// off, single-node and distributed, on sessions each decoding into the
// chunks the last one gave back, leave every stored blob's SHA-256 as it
// was.
func TestRawColumnsLeaveStoreIntact(t *testing.T) {
	ctx := context.Background()
	store := agd.NewMemStore()
	testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 100_000, NumReads: 2000, ChunkSize: 200, DupFrac: 0.1, Seed: 56,
	})
	sums := func() map[string][sha256.Size]byte {
		m := make(map[string][sha256.Size]byte)
		for name, blob := range testutil.Blobs(t, store, "") {
			m[name] = sha256.Sum256(blob)
		}
		return m
	}
	want := sums()
	for round := 0; round < 3; round++ {
		for _, cacheBytes := range []int64{0, -1} {
			sess := NewSession(store, SessionOptions{CacheBytes: cacheBytes})
			for _, p := range []*Pipeline{
				sess.Read("ds").ExportSAM(io.Discard),
				sess.Read("ds").Sort(ByLocation).MarkDuplicates().ExportBAM(io.Discard),
				sess.Read("ds").Sort(ByLocation).ExportSAM(io.Discard).Distributed(2),
				sess.Read("ds").ExportFASTQ(io.Discard),
			} {
				if _, err := p.Run(ctx); err != nil {
					t.Fatal(err)
				}
			}
			sess.Close()
		}
	}
	if got := sums(); !maps.Equal(got, want) {
		for name, sum := range want {
			if got[name] != sum {
				t.Fatalf("blob %q changed under runs that only read it", name)
			}
		}
		t.Fatalf("the store holds %d blobs after the runs, %d before", len(got), len(want))
	}
}

// TestLeakProbeSeesHeldGroup: a Read group held without release on a
// default session is what the leak probe reports, also once the cache has
// dropped the group's entries, and the probe reads clean once the group is
// released.
func TestLeakProbeSeesHeldGroup(t *testing.T) {
	ctx := context.Background()
	store, _ := pipelineFixture(t, "ds")
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()
	ds, err := sess.openDataset("ds")
	if err != nil {
		t.Fatal(err)
	}
	gs, err := sess.Read("ds").stages[0].open(&run{src: ds})
	if err != nil {
		t.Fatal(err)
	}
	g, err := gs.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gs.Close()
	if chunkLeak(sess) == nil {
		t.Fatal("the leak probe reads clean with a Read group held")
	}
	sess.FlushCache()
	if chunkLeak(sess) == nil {
		t.Fatal("the leak probe reads clean with a Read group held once the cache dropped its entries")
	}
	g.Release()
	if err := chunkLeak(sess); err != nil {
		t.Fatalf("the group was released: %v", err)
	}
}

// cancelAfterWrite cancels a run at its sink's first write: the sort's merge
// has begun emitting, so the cancel lands mid-merge.
type cancelAfterWrite struct {
	w      io.Writer
	cancel context.CancelFunc
}

func (c *cancelAfterWrite) Write(p []byte) (int, error) {
	c.cancel()
	return c.w.Write(p)
}

// TestRecycledMemoryStaysPrivate: two sessions run different sort pipelines
// concurrently, pumped at GOMAXPROCS 4, while a third run on one of them is
// cancelled mid-merge, round after round on fresh sessions, so every run
// draws builders, chunks and marker tables that another run just gave back.
// The second session's cache holds a few chunks only, so its entries are
// evicted, and their chunks recycled, while both its runs read. Every
// completed output must equal its serial reference byte for byte: a
// buffer recycled while a run still reads or writes it shows up as corrupted
// bytes (and, under -race, as a race).
func TestRecycledMemoryStaysPrivate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx := context.Background()
	store := agd.NewMemStore()
	testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 100_000, NumReads: 3000, ChunkSize: 200, DupFrac: 0.1, Seed: 53,
	})
	graphs := []func(s *Session, w io.Writer) *Pipeline{
		func(s *Session, w io.Writer) *Pipeline {
			return s.Read("ds").Sort(ByLocation).MarkDuplicates().ExportBAM(w)
		},
		func(s *Session, w io.Writer) *Pipeline {
			return s.Read("ds").Sort(ByMetadata).Filter(FilterMappedOnly()).ExportSAM(w)
		},
	}
	refs := make([][]byte, len(graphs))
	for i, graph := range graphs {
		sess := NewSession(store, SessionOptions{})
		var out bytes.Buffer
		if _, err := graph(sess, &out).Serial().Run(ctx); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		refs[i] = out.Bytes()
	}
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		sessions := []*Session{NewSession(store, SessionOptions{}), NewSession(store, SessionOptions{CacheBytes: 64 << 10})}
		outs := make([]bytes.Buffer, len(graphs))
		errs := make([]error, len(graphs)+1)
		var wg sync.WaitGroup
		for i := range graphs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = graphs[i](sessions[i], &outs[i]).Run(ctx)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			_, err := graphs[0](sessions[1], &cancelAfterWrite{io.Discard, cancel}).Run(cctx)
			if !errors.Is(err, context.Canceled) {
				errs[len(graphs)] = fmt.Errorf("the run cancelled mid-merge returned %v", err)
			}
		}()
		wg.Wait()
		for _, s := range sessions {
			s.Close()
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d, run %d: %v", round, i, err)
			}
		}
		for i := range graphs {
			if !bytes.Equal(outs[i].Bytes(), refs[i]) {
				t.Fatalf("round %d: graph %d wrote %d bytes unlike its serial reference's %d", round, i, outs[i].Len(), len(refs[i]))
			}
		}
		checkPoolsHandOutOnce(t, store, "ds")
	}
}

// checkPoolsHandOutOnce takes chunk builders from their process-wide pool
// and decoded chunks from agd's recycler (through streams over store's
// dataset, with no cache, holding every group), checks that none comes out
// twice, and gives them back: an object given back twice would be handed to
// two owners.
func checkPoolsHandOutOnce(t *testing.T, store Store, dataset string) {
	t.Helper()
	var builders []*agd.ChunkBuilder
	seen := make(map[any]bool)
	for i := 0; i < 256; i++ {
		b := agd.NewChunkBuilder(agd.TypeRaw, 0)
		builders = append(builders, b)
		if seen[b] {
			t.Fatalf("chunk builder %d came out of the pool a second time", i)
		}
		seen[b] = true
	}
	ds, err := agd.Open(store, dataset)
	if err != nil {
		t.Fatal(err)
	}
	var held []*agd.RowGroup
	for chunks := 0; chunks < 256; {
		gs, err := ds.Groups(agd.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for {
			g, err := gs.Next(context.Background())
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, g)
			for _, c := range g.Chunks {
				if seen[c] {
					t.Fatalf("decoded chunk %d came out of the recycler a second time", chunks)
				}
				seen[c] = true
				chunks++
			}
		}
		gs.Close()
	}
	for _, g := range held {
		g.Release()
	}
	for _, b := range builders {
		b.Recycle()
	}
}
