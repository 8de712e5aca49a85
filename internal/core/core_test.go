package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/dataflow"
	"persona/internal/testutil"
)

func TestAlignPipelineEndToEnd(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 200_000, NumReads: 1000, ReadLen: 90, ChunkSize: 128, Seed: 91, SkipAlign: true,
	})
	report, m, err := Align(context.Background(), AlignConfig{
		Store: store, Dataset: "ds", Index: f.Index,
	})
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
	if _, _, err := Align(context.Background(), AlignConfig{Store: store, Dataset: "ds", Index: f.Index}); err == nil {
		t.Fatal("re-align succeeded")
	}
}

func TestAlignPipelineMissingDataset(t *testing.T) {
	store := agd.NewMemStore()
	if _, _, err := Align(context.Background(), AlignConfig{Store: store, Dataset: "nope"}); err == nil {
		t.Fatal("missing dataset accepted")
	}
}

func TestAlignPipelineCancellation(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 100_000, NumReads: 500, ReadLen: 80, ChunkSize: 50, Seed: 94, SkipAlign: true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Align(ctx, AlignConfig{Store: store, Dataset: "ds", Index: f.Index}); err == nil {
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
	_, _, err := Align(ctx, AlignConfig{Store: cancelOnPut{mem, cancel}, Dataset: "ds", Index: f.Index})
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
	// Align waits for its pumps, writers and executor; only fetches whose
	// results were dropped may still be finishing.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after a cancelled run, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestAlignPooledChunkLifecycleRace drives Align with every remaining knob at
// both ends, so chunk-pool get/put, builder recycling, subchunk tasks and
// parallel member compression all race each other. Under `go test -race` it
// is the regression test for the pooled chunk lifecycle; in any mode it
// checks that recycled buffers cannot bleed data between chunks (results
// must be identical to the one-thread, one-subchunk, synchronous-fetch run).
func TestAlignPooledChunkLifecycleRace(t *testing.T) {
	run := func(threads, subchunks, prefetch int) []agd.Result {
		store := agd.NewMemStore()
		f := testutil.Build(t, store, "ds", testutil.Config{
			GenomeSize: 120_000, NumReads: 600, ReadLen: 80, ChunkSize: 48, Seed: 123, SkipAlign: true,
		})
		_, _, err := Align(context.Background(), AlignConfig{
			Store: store, Dataset: "ds", Index: f.Index,
			ExecutorThreads: threads, Subchunks: subchunks, Prefetch: prefetch,
		})
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
	serial := run(1, 1, 1)
	parallel := run(4, 4, 6)
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

// TestAlignStagesUnderTightPools wires Align's three stages by hand over the
// smallest pools that can make progress — one group's worth of source
// chunks, two builder sets — where the sink's window wants five of each.
// Exhaustion must be back-pressure: the run completes with the same results,
// and every pooled chunk is back when it ends.
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
	pool := agd.NewShardedChunkPool(exec.NumShards(), 2)
	in, err := ds.Groups(agd.StreamOptions{
		Columns: []string{agd.ColBases, agd.ColQual}, ShardedPool: pool, Codec: agd.Codec{Exec: exec},
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
	if err := agd.WriteColumn(context.Background(), out, store, &bare, agd.ColResults, agd.Codec{Exec: exec}, nil); err != nil {
		t.Fatal(err)
	}
	if report.Reads != 500 {
		t.Fatalf("Reads = %d", report.Reads)
	}
	if pool.Free() != pool.Size() {
		t.Fatalf("%d of %d pooled chunks back after the run", pool.Free(), pool.Size())
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
