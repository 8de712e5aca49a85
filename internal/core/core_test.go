package core

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/dataflow"
	"persona/internal/genome"
	"persona/internal/testutil"
)

// alignDataset aligns dataset name of store in place the way the one-shot
// persona.Align does, in stream form: the dataset's columns through
// AlignStream on an executor of threads workers into the results column
// sink, then the column registered. It returns what AlignStream reports.
func alignDataset(ctx context.Context, store agd.BlobStore, name string, cfg AlignConfig, threads int) (*AlignReport, *agd.Manifest, error) {
	ds, err := agd.Open(store, name)
	if err != nil {
		return nil, nil, err
	}
	exec := dataflow.NewExecutor(threads, 2*threads)
	defer exec.Close()
	codec := agd.Codec{Exec: exec}
	in, err := ds.Groups(agd.StreamOptions{Codec: codec})
	if err != nil {
		return nil, nil, err
	}
	out, report, err := AlignStream(cfg, exec, in)
	if err != nil {
		in.Close()
		return nil, nil, err
	}
	if err := agd.WriteColumn(ctx, out, store, ds.Manifest, agd.ColResults, codec); err != nil {
		return nil, nil, err
	}
	m, err := agd.RegisterColumn(store, ds.Manifest, agd.ColResults)
	return report, m, err
}

func TestAlignPipelineEndToEnd(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 200_000, NumReads: 1000, ReadLen: 90, ChunkSize: 128, Seed: 91, SkipAlign: true,
	})
	report, m, err := alignDataset(context.Background(), store, "ds", AlignConfig{Index: f.Index}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasColumn(agd.ColResults) {
		t.Fatal("results column missing")
	}
	if report.Reads != 1000 {
		t.Fatalf("Reads = %d", report.Reads)
	}
	if report.Bases != 1000*90 {
		t.Fatalf("Bases = %d", report.Bases)
	}
	if report.Chunks != 8 { // ceil(1000/128)
		t.Fatalf("Chunks = %d", report.Chunks)
	}
	if report.BasesPerSec <= 0 {
		t.Fatal("throughput not measured")
	}
	if report.Stats.Reads != 1000 || report.Stats.CandidatesxLV == 0 {
		t.Fatalf("aligner stats not aggregated: %+v", report.Stats)
	}

	// Accuracy: pipeline results must match direct alignment quality.
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	results, err := ds.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	mapped, correct := 0, 0
	for i, r := range results {
		if r.IsUnmapped() {
			continue
		}
		mapped++
		diff := r.Location - f.Origins[i].Pos
		if diff < 0 {
			diff = -diff
		}
		if diff <= 5 {
			correct++
		}
	}
	if frac := float64(mapped) / float64(len(results)); frac < 0.95 {
		t.Fatalf("mapped %.3f", frac)
	}
	if frac := float64(correct) / float64(mapped); frac < 0.9 {
		t.Fatalf("correct %.3f", frac)
	}
}

func TestAlignPipelineRejectsAligned(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 60_000, NumReads: 100, ReadLen: 60, ChunkSize: 50, Seed: 93,
	})
	if _, _, err := alignDataset(context.Background(), store, "ds", AlignConfig{Index: f.Index}, 2); err == nil {
		t.Fatal("re-align succeeded")
	}
}

func TestAlignPipelineMissingDataset(t *testing.T) {
	store := agd.NewMemStore()
	if _, _, err := alignDataset(context.Background(), store, "nope", AlignConfig{}, 2); err == nil {
		t.Fatal("missing dataset accepted")
	}
}

// chunkGets counts the chunk blobs read through it.
type chunkGets struct {
	agd.BlobStore
	n *atomic.Int64
}

func (s chunkGets) Get(name string) ([]byte, error) {
	if strings.Contains(name, "chunk-") {
		s.n.Add(1)
	}
	return s.BlobStore.Get(name)
}

// TestAlignNeedsIndex: AlignStream without a reference index fails before
// a chunk is read, over a dataset source or any other.
func TestAlignNeedsIndex(t *testing.T) {
	mem := agd.NewMemStore()
	testutil.Build(t, mem, "ds", testutil.Config{
		GenomeSize: 60_000, NumReads: 100, ReadLen: 60, ChunkSize: 50, Seed: 112, SkipAlign: true,
	})
	var gets atomic.Int64
	if _, _, err := alignDataset(context.Background(), chunkGets{mem, &gets}, "ds", AlignConfig{}, 2); !errors.Is(err, errNoIndex) {
		t.Fatalf("aligning a dataset: err = %v, want %v", err, errNoIndex)
	}
	if n := gets.Load(); n != 0 {
		t.Fatalf("aligning a dataset read %d chunk blobs before failing", n)
	}

	exec := dataflow.NewExecutor(1, 2)
	defer exec.Close()
	in := agd.NewGroupStream(agd.StreamMeta{Columns: []string{agd.ColBases, agd.ColQual}, NumRecords: 100},
		func(context.Context) (*agd.RowGroup, error) {
			t.Error("AlignStream read a group")
			return nil, io.EOF
		}, nil)
	if _, _, err := AlignStream(AlignConfig{}, exec, in); !errors.Is(err, errNoIndex) {
		t.Fatalf("AlignStream err = %v, want %v", err, errNoIndex)
	}
}

func TestAlignPipelineCancellation(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 100_000, NumReads: 500, ReadLen: 80, ChunkSize: 50, Seed: 94, SkipAlign: true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := alignDataset(ctx, store, "ds", AlignConfig{Index: f.Index}, 2); err == nil {
		t.Fatal("cancelled run succeeded")
	}
}

// cancelOnPut cancels a context at the first results blob written — the
// middle of a run: later chunks are being fetched, aligned and queued.
type cancelOnPut struct {
	agd.BlobStore
	cancel context.CancelFunc
}

func (s cancelOnPut) Put(name string, data []byte) error {
	s.cancel()
	return s.BlobStore.Put(name, data)
}

// TestAlignPipelineCancelledMidRun: a context that dies while results are
// being written ends the run with the context's error, registers nothing,
// and leaves no goroutine of the run behind.
func TestAlignPipelineCancelledMidRun(t *testing.T) {
	mem := agd.NewMemStore()
	f := testutil.Build(t, mem, "ds", testutil.Config{
		GenomeSize: 100_000, NumReads: 600, ReadLen: 80, ChunkSize: 30, Seed: 95, SkipAlign: true,
	})
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err := alignDataset(ctx, cancelOnPut{mem, cancel}, "ds", AlignConfig{Index: f.Index}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ds, err := agd.Open(mem, "ds")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Manifest.HasColumn(agd.ColResults) {
		t.Fatal("cancelled run registered a results column")
	}
	// The run waits for its executor; only fetches whose results were dropped
	// may still be finishing.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after a cancelled run, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestAlignStreamCancelWaitsForSubchunks: a context cancelled while a group's
// subchunk tasks sit in the executor's queue ends Next with an error, but
// only once every task of the group has returned — the group's chunks go
// back to agd's recycler (and may be decoded into again) only after nothing
// aligns from them.
func TestAlignStreamCancelWaitsForSubchunks(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 60_000, NumReads: 200, ReadLen: 60, ChunkSize: 100, Seed: 97, SkipAlign: true,
	})
	exec := dataflow.NewExecutor(1, 2)
	defer exec.Close()
	src, err := f.Dataset.Groups(agd.StreamOptions{
		Columns: []string{agd.ColBases},
	})
	if err != nil {
		t.Fatal(err)
	}
	var releasedEarly atomic.Bool
	in := agd.NewGroupStream(src.Meta, func(ctx context.Context) (*agd.RowGroup, error) {
		g, err := src.Next(ctx)
		if err != nil {
			return nil, err
		}
		return agd.NewRowGroup(g.Index, 0, g.Chunks, func() {
			if submitted, completed, _ := exec.Stats(); submitted != completed {
				releasedEarly.Store(true)
			}
			g.Release()
		}), nil
	}, src.Close)
	out, _, err := AlignStream(AlignConfig{Index: f.Index, Subchunks: 4}, exec, in)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	// Wedge the one worker, so the group's subchunks queue behind it.
	gate := make(chan struct{})
	started := make(chan struct{})
	if err := exec.Submit(context.Background(), func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	result := make(chan error, 1)
	go func() {
		g, err := out.Next(ctx)
		if g != nil {
			g.Release()
		}
		result <- err
	}()
	// The queue holds two subchunks once the third blocks on submitting.
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		if submitted, _, _ := exec.Stats(); submitted >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the group's subchunks never reached the executor")
		}
	}
	cancel()
	// A return that must not happen can only be watched for a bounded time.
	select {
	case err := <-result:
		close(gate) // let the worker finish so Close can return
		t.Fatalf("Next returned %v while the group's subchunks were still queued", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-result; !errors.Is(err, dataflow.ErrStopped) && !errors.Is(err, context.Canceled) {
		t.Fatalf("Next = %v, want a cancellation error", err)
	}
	if releasedEarly.Load() {
		t.Fatal("the group was released while its subchunk tasks were unfinished")
	}
	if submitted, completed, _ := exec.Stats(); submitted != completed {
		t.Fatalf("%d of %d tasks finished once Next returned", completed, submitted)
	}
}

// TestAlignPooledChunkLifecycleRace drives alignment with every knob at
// both ends, so chunk-pool get/put, builder recycling, subchunk tasks and
// parallel member compression all race each other. Under `go test -race` it
// is the regression test for the pooled chunk lifecycle; in any mode it
// checks that recycled buffers cannot bleed data between chunks (results
// must be identical to the one-thread, one-subchunk run).
func TestAlignPooledChunkLifecycleRace(t *testing.T) {
	run := func(threads, subchunks int) []agd.Result {
		store := agd.NewMemStore()
		f := testutil.Build(t, store, "ds", testutil.Config{
			GenomeSize: 120_000, NumReads: 600, ReadLen: 80, ChunkSize: 48, Seed: 123, SkipAlign: true,
		})
		_, _, err := alignDataset(context.Background(), store, "ds", AlignConfig{Index: f.Index, Subchunks: subchunks}, threads)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := agd.Open(store, "ds")
		if err != nil {
			t.Fatal(err)
		}
		results, err := ds.ReadAllResults()
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	serial := run(1, 1)
	parallel := run(4, 4)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("result %d differs between serial and parallel runs:\n  serial:   %+v\n  parallel: %+v",
				i, serial[i], parallel[i])
		}
	}
}

// TestAlignStagesUnderTightPools wires a dataset alignment's three stages
// (source, AlignStream, column sink) by hand over the smallest builder pool
// that can make progress — two builder sets — where the sink's window wants
// five. Exhaustion must be back-pressure: the run completes with the same
// results.
func TestAlignStagesUnderTightPools(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 100_000, NumReads: 500, ReadLen: 80, ChunkSize: 40, Seed: 96,
	})
	want, err := f.Dataset.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	bare := *f.Dataset.Manifest
	bare.Columns = []string{agd.ColBases, agd.ColQual, agd.ColMetadata}
	ds := agd.OpenManifest(store, &bare)

	exec := dataflow.NewExecutor(3, 6)
	defer exec.Close()
	in, err := ds.Groups(agd.StreamOptions{
		Columns: []string{agd.ColBases, agd.ColQual}, Codec: agd.Codec{Exec: exec},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, report, err := AlignStream(AlignConfig{
		Index: f.Index, Aligner: snap.Config{MaxDist: 10}, Subchunks: 3, Pipelining: 2,
	}, exec, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := agd.WriteColumn(context.Background(), out, store, &bare, agd.ColResults, agd.Codec{Exec: exec}); err != nil {
		t.Fatal(err)
	}
	if report.Reads != 500 {
		t.Fatalf("Reads = %d", report.Reads)
	}
	got, err := f.Dataset.ReadAllResults() // the sink replaced the reference blobs
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d differs under tight pools:\n  want %+v\n  got  %+v", i, want[i], got[i])
		}
	}
}

// corruptGroupStream is a stream of two groups of packed bases records of
// exact reads from g; group 1's record 3 is bad.
func corruptGroupStream(t *testing.T, g *genome.Genome, bad []byte) *agd.GroupStream {
	t.Helper()
	const perGroup = 6
	groups := make([]*agd.RowGroup, 2)
	for gi := range groups {
		b := agd.NewChunkBuilder(agd.TypePackedBases, uint64(gi*perGroup))
		for r := 0; r < perGroup; r++ {
			if gi == 1 && r == 3 {
				b.Append(bad)
				continue
			}
			read, err := g.Slice(int64(1000+900*(gi*perGroup+r)), 80)
			if err != nil {
				t.Fatal(err)
			}
			b.AppendBases(read)
		}
		groups[gi] = agd.NewRowGroup(gi, 0, []*agd.Chunk{b.Chunk()}, nil)
	}
	meta := agd.StreamMeta{Columns: []string{agd.ColBases}, NumRecords: 2 * perGroup}
	return agd.NewGroupStream(meta, func(context.Context) (*agd.RowGroup, error) {
		if len(groups) == 0 {
			return nil, io.EOF
		}
		g := groups[0]
		groups = groups[1:]
		return g, nil
	}, nil)
}

// TestAlignCorruptRecordFailsGroup: a bases record whose header does not
// parse fails its group, single or paired, and the error names the group and
// the record.
func TestAlignCorruptRecordFailsGroup(t *testing.T) {
	// A bad count varint, and a count of 200 bases in 2 bytes.
	testAlignCorruptRecord(t, []byte{0x80}, []byte{200, 1, 0x55, 0x55})
}

// TestAlignCorruptExceptionRunFailsGroup: so does a record whose header
// parses but whose exception run overruns the read, which the aligner reads
// to know which seeds to skip.
func TestAlignCorruptExceptionRunFailsGroup(t *testing.T) {
	testAlignCorruptRecord(t, append(agd.PackBases(nil, []byte("ACGTACGT")), 7, 2))
}

func testAlignCorruptRecord(t *testing.T, bads ...[]byte) {
	t.Helper()
	g, err := genome.Synthesize(genome.DefaultSyntheticConfig(20_000, 117))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := snap.BuildIndex(g, snap.IndexConfig{SeedLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	exec := dataflow.NewExecutor(2, 4)
	defer exec.Close()
	for _, bad := range bads {
		for _, paired := range []bool{false, true} {
			out, _, err := AlignStream(AlignConfig{Index: idx, Paired: paired, Subchunks: 3}, exec, corruptGroupStream(t, g, bad))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			first, err := out.Next(ctx)
			if err != nil {
				t.Fatalf("paired %v: group 0: %v", paired, err)
			}
			first.Release()
			_, err = out.Next(ctx)
			if err == nil || !errors.Is(err, agd.ErrCorrupt) || !strings.Contains(err.Error(), "group 1") || !strings.Contains(err.Error(), "record") || !strings.Contains(err.Error(), " 3") {
				t.Fatalf("paired %v, record %v: err = %v, want ErrCorrupt naming group 1 and record 3", paired, bad, err)
			}
			out.Close()
		}
	}
}
