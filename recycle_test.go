package persona

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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
// Every completed output must equal its serial reference byte for byte: a
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
		sessions := []*Session{NewSession(store, SessionOptions{}), NewSession(store, SessionOptions{})}
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
		checkPoolsHandOutOnce(t)
	}
}

// checkPoolsHandOutOnce takes chunk builders and decoded chunks from the
// process-wide pools, checks that none comes out twice, and gives them
// back: an object given back twice would be handed to two owners.
func checkPoolsHandOutOnce(t *testing.T) {
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
	pool := agd.NewChunkPool(256)
	var chunks []*agd.Chunk
	for c, ok := pool.TryGet(); ok; c, ok = pool.TryGet() {
		chunks = append(chunks, c)
		if seen[c] {
			t.Fatalf("chunk %d came out of the pool a second time", len(chunks))
		}
		seen[c] = true
	}
	for _, c := range chunks {
		pool.Put(c)
	}
	agd.RecycleChunks(pool)
	for _, b := range builders {
		b.Recycle()
	}
}
