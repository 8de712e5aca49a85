package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/filter"
	"persona/internal/markdup"
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
	// The reduce of Read → Sort → MarkDuplicates → Filter: the mark stage
	// seeded from its halo, then the filter.
	mark := Stage{Build: func(e *Env, in *agd.GroupStream) (out *agd.GroupStream, err error) {
		out, e.Dups, err = markdup.SeededStream(in, e.Halo, e.Window)
		return out, err
	}}
	drop := Stage{Build: func(e *Env, in *agd.GroupStream) (*agd.GroupStream, error) {
		out, stats, err := filter.RunStream(in, filter.DropDuplicates(), e.Window)
		e.Filtered = stats
		return out, err
	}}
	by := agdsort.ByLocation
	plan := &PipelinePlan{
		Dataset: "ds", Sort: &by, Reduce: []Stage{mark, drop},
		Halo:    func() func([]byte) (int64, error) { return markdup.NewMarker(0).Span },
		OutName: "out",
	}
	plan.applyDefaults()
	cols := ds.Manifest.Columns
	keyCol := agdsort.KeyColumn(cols, by)
	numBatches := (len(ds.Manifest.Chunks) + plan.chunksPerTask() - 1) / plan.chunksPerTask()
	if numBatches < 2 {
		t.Fatalf("%d map batches: the fixture does not exercise the merge of runs", numBatches)
	}

	// Map and shuffle, as pipelineNode and RunPipeline's cut selection do.
	var summaries []shuffle.RunSummary
	for b := 0; b < numBatches; b++ {
		payload, err := runMapTask(ctx, store, ds, plan, nil, b, &NodeReport{})
		if err != nil {
			t.Fatal(err)
		}
		var sum shuffle.RunSummary
		if err := shuffle.Decode(payload, &sum); err != nil {
			t.Fatal(err)
		}
		summaries = append(summaries, sum)
	}
	cuts, err := shuffle.SelectCuts(summaries, parts, true)
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
		acked, err := runReduceTask(ctx, store, ds, plan, nil, cols, keyCol, k, numBatches, &NodeReport{})
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
			_, err := runReduceTask(ctx, straggler, ds, plan, nil, cols, keyCol, k, numBatches, &NodeReport{})
			straggler.Close()
			if !errors.Is(err, storage.ErrInjected) || runFatal(err) {
				t.Fatalf("partition %d, failing %s: error %v, want the injected transient one", k, name, err)
			}
			testutil.SameBlobs(t, fmt.Sprintf("partition %d after its straggler failed putting %s", k, name),
				testutil.Blobs(t, store, prefix), survivor)
		}
		again, err := runReduceTask(ctx, store, ds, plan, nil, cols, keyCol, k, numBatches, &NodeReport{})
		if err != nil || again != acked {
			t.Fatalf("partition %d re-executed: payload %q (error %v), the first attempt acked %q", k, again, err, acked)
		}
		testutil.SameBlobs(t, fmt.Sprintf("partition %d re-executed", k), testutil.Blobs(t, store, prefix), survivor)
	}
}
