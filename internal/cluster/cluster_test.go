package cluster

import (
	"context"
	"strings"
	"testing"

	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/storage"
	"persona/internal/testutil"
)

func TestClusterAlignEndToEnd(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 150_000, NumReads: 800, ReadLen: 80, ChunkSize: 100, Seed: 81, SkipAlign: true,
	})
	report, m, err := Align(context.Background(), store, "ds", f.Index, Config{Nodes: 3, ThreadsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasColumn(agd.ColResults) {
		t.Fatal("results column not registered")
	}
	if report.TotalReads != 800 {
		t.Fatalf("TotalReads = %d", report.TotalReads)
	}
	if report.TotalBases != 800*80 {
		t.Fatalf("TotalBases = %d", report.TotalBases)
	}
	if report.BasesPerSec <= 0 {
		t.Fatal("no throughput measured")
	}

	// Results must decode and be mostly mapped and accurate.
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	results, err := ds.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 800 {
		t.Fatalf("results = %d", len(results))
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
	if frac := float64(mapped) / 800; frac < 0.95 {
		t.Fatalf("mapped fraction %.3f", frac)
	}
	if frac := float64(correct) / float64(mapped); frac < 0.9 {
		t.Fatalf("correct fraction %.3f", frac)
	}

	// All chunks must be accounted to exactly one node.
	chunkSum := 0
	for _, nr := range report.Nodes {
		chunkSum += nr.Chunks
	}
	if chunkSum != ds.NumChunks() {
		t.Fatalf("nodes processed %d chunks, dataset has %d", chunkSum, ds.NumChunks())
	}
}

func TestClusterAlignOnObjectStore(t *testing.T) {
	objStore, err := storage.NewObjectStore(storage.ObjectStoreConfig{OSDs: 7, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := testutil.Build(t, objStore, "ds", testutil.Config{
		GenomeSize: 100_000, NumReads: 300, ReadLen: 70, ChunkSize: 64, Seed: 82, SkipAlign: true,
	})
	report, _, err := Align(context.Background(), objStore, "ds", f.Index, Config{Nodes: 2, ThreadsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalReads != 300 {
		t.Fatalf("TotalReads = %d", report.TotalReads)
	}
	stats := objStore.Stats()
	if stats.ReplicatedBytesIn <= stats.BytesIn {
		t.Fatal("replication accounting missing")
	}
}

// TestClusterRejectsEmptyDataset: a manifest without chunks reads as a valid
// one, but a run over it has no task to deal. Align and a sort plan both
// fail with an error naming it.
func TestClusterRejectsEmptyDataset(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 60_000, NumReads: 100, ReadLen: 60, ChunkSize: 50, Seed: 84, SkipAlign: true,
	})
	empty := &agd.Manifest{Name: "empty", Version: 1, Columns: f.Dataset.Manifest.Columns}
	if err := agd.WriteManifest(store, empty); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := Align(ctx, store, "empty", f.Index, Config{Nodes: 2}); err == nil || !strings.Contains(err.Error(), "no chunks") {
		t.Errorf("Align: error %v, want \"no chunks\"", err)
	}
	by := agdsort.ByMetadata
	plan := PipelinePlan{Dataset: "empty", Sort: &by, OutName: "out"}
	if _, err := RunPipeline(ctx, store, plan, Config{Nodes: 2}); err == nil || !strings.Contains(err.Error(), "no chunks") {
		t.Errorf("RunPipeline: error %v, want \"no chunks\"", err)
	}
}

func TestClusterAlignRejectsAligned(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 60_000, NumReads: 100, ReadLen: 60, ChunkSize: 50, Seed: 83,
	})
	if _, _, err := Align(context.Background(), store, "ds", f.Index, Config{Nodes: 1}); err == nil {
		t.Fatal("re-aligning an aligned dataset succeeded")
	}
}
