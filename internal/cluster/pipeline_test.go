package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/filter"
	"persona/internal/shuffle"
	"persona/internal/storage"
	"persona/internal/testutil"
)

// TestReduceStragglerFailureKeepsSurvivorChunks plays the overlap the phase
// server allows: a reduce that blew its lease keeps running beside the attempt
// its task was re-dealt to, both writing "<out>/part<k>/chunk-*". Once the
// survivor has finished (and acked), the straggler fails — each of its Puts in
// turn, with the transient error a run survives — and must leave every chunk
// the survivor wrote in place, byte for byte; a straggler that succeeds
// rewrites the same bytes and returns the same payload.
func TestReduceStragglerFailureKeepsSurvivorChunks(t *testing.T) {
	ctx := context.Background()
	store := agd.NewMemStore()
	testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 120_000, NumReads: 600, ReadLen: 80, ChunkSize: 50, Seed: 93, DupFrac: 0.1,
	})
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	const parts = 2
	plan := &PipelinePlan{
		Dataset: "ds", By: agdsort.ByLocation, MarkDup: true, Filter: filter.DropDuplicates(),
		OutName: "out", ChunkSize: 50, ChunksPerBatch: 4,
	}
	plan.applyDefaults()
	cfg := &Config{}
	cfg.applyDefaults()
	cols := planColumns(plan, ds.Manifest)
	keyCol := agdsort.KeyColumn(cols, plan.By)
	numBatches := (len(ds.Manifest.Chunks) + plan.ChunksPerBatch - 1) / plan.ChunksPerBatch

	// Map and shuffle, as pipelineNode and RunPipeline's cut selection do.
	var summaries []shuffle.RunSummary
	for b := 0; b < numBatches; b++ {
		payload, _, err := runMapTask(ctx, store, ds, plan, cfg, nil, b)
		if err != nil {
			t.Fatal(err)
		}
		var sum shuffle.RunSummary
		if err := shuffle.Decode(payload, &sum); err != nil {
			t.Fatal(err)
		}
		summaries = append(summaries, sum)
	}
	cuts, err := shuffle.SelectCuts(summaries, parts, plan.MarkDup)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < numBatches; b++ {
		if _, _, err := runShuffleTask(ctx, store, plan, keyCol, &cuts, b, parts); err != nil {
			t.Fatal(err)
		}
	}

	for k := 0; k < parts; k++ {
		prefix := shuffle.PartDataset(plan.OutName, k) + "/"
		acked, err := runReduceTask(ctx, store, plan, cols, keyCol, k, numBatches)
		if err != nil {
			t.Fatal(err)
		}
		survivor := testutil.Blobs(t, store, prefix)
		if len(survivor) == 0 {
			t.Fatalf("partition %d wrote no chunk: the fixture does not exercise the sink", k)
		}
		for name := range survivor {
			straggler := storage.NewFaultStore(store, storage.FaultPolicy{
				Keys: []storage.KeyFaults{{Substr: name, Writes: storage.OpFaults{ErrProb: 1}}},
			})
			_, err := runReduceTask(ctx, straggler, plan, cols, keyCol, k, numBatches)
			straggler.Close()
			if !errors.Is(err, storage.ErrInjected) || runFatal(err) {
				t.Fatalf("partition %d, failing %s: error %v, want the injected transient one", k, name, err)
			}
			testutil.SameBlobs(t, fmt.Sprintf("partition %d after its straggler failed putting %s", k, name),
				testutil.Blobs(t, store, prefix), survivor)
		}
		again, err := runReduceTask(ctx, store, plan, cols, keyCol, k, numBatches)
		if err != nil || again != acked {
			t.Fatalf("partition %d re-executed: payload %q (error %v), the first attempt acked %q", k, again, err, acked)
		}
		testutil.SameBlobs(t, fmt.Sprintf("partition %d re-executed", k), testutil.Blobs(t, store, prefix), survivor)
	}
}
