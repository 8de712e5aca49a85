package cluster

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"persona/internal/agd"
	"persona/internal/storage"
	"persona/internal/testutil"
)

// fastDetect is a failure-detector tuning quick enough for tests: dead
// workers are noticed in a few hundred milliseconds.
var fastDetect = ServerOptions{
	LeaseTimeout: 10 * time.Second,
	BeatTimeout:  300 * time.Millisecond,
	MaxAttempts:  4,
}

// resultsBlobs collects the results-column blobs of a dataset, by name.
func resultsBlobs(t *testing.T, store storage.Store, dataset string) map[string][]byte {
	t.Helper()
	ds, err := agd.Open(store, dataset)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for i := range ds.Manifest.Chunks {
		name := ds.Manifest.ChunkBlobPath(i, agd.ColResults)
		data, err := store.Get(name)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		out[name] = data
	}
	return out
}

var recoveryFixture = testutil.Config{
	GenomeSize: 120_000, NumReads: 600, ReadLen: 80, ChunkSize: 75, Seed: 91, SkipAlign: true,
}

// TestAlignSurvivesWorkerDeath: one of two workers dies mid-run; the run
// completes on the survivor, the report records the degradation and the
// reassignments, and the output is byte-identical to a fault-free run.
func TestAlignSurvivesWorkerDeath(t *testing.T) {
	clean := agd.NewMemStore()
	f := testutil.Build(t, clean, "ds", recoveryFixture)
	if _, _, err := Align(context.Background(), clean, "ds", f.Index, Config{Nodes: 1, ThreadsPerNode: 2}); err != nil {
		t.Fatal(err)
	}
	want := resultsBlobs(t, clean, "ds")

	store := agd.NewMemStore()
	f2 := testutil.Build(t, store, "ds", recoveryFixture)
	cfg := Config{
		Nodes: 2, ThreadsPerNode: 2,
		ServerOptions: fastDetect,
		NodeFaults:    map[int]int{0: 1}, // node 0 dies after one chunk
	}
	cfg.applyDefaults()
	plan := PipelinePlan{Dataset: "ds", Columns: []string{agd.ColBases}, Map: []Stage{alignStage(f2.Index)}}
	plan.applyDefaults()
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	chunks := len(ds.Manifest.Chunks)
	srv, err := NewPhaseServer([]int{chunks}, nil, cfg.ServerOptions)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Node 0 dies at its second lease, and greedy leasing could deal node 1
	// every chunk before node 0 asks twice: the task loop of Align's
	// write-back plan runs here with node 1 held back until node 0 is dead,
	// so the fault always fires.
	dead0 := make(chan struct{})
	report, err := runNodes(context.Background(), srv, &cfg, func(ctx context.Context, w *worker) error {
		if w.node == 0 {
			defer close(dead0)
		} else {
			select {
			case <-dead0:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return pipelineNode(ctx, w, store, ds, &plan, columns(ds.Manifest.Columns, plan.Map), cfg.Nodes, chunks)
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := agd.RegisterColumn(store, ds.Manifest, agd.ColResults)
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasColumn(agd.ColResults) {
		t.Fatal("results column not registered")
	}
	if !report.Degraded || report.FailedNodes != 1 {
		t.Fatalf("Degraded=%v FailedNodes=%d, want a degraded 1-failure run", report.Degraded, report.FailedNodes)
	}
	if report.Reassigned < 1 {
		t.Fatalf("Reassigned = %d, want >= 1", report.Reassigned)
	}
	var dead *NodeReport
	for i := range report.Nodes {
		if report.Nodes[i].Failed {
			dead = &report.Nodes[i]
		}
	}
	if dead == nil || dead.Node != 0 || !strings.Contains(dead.Err, "node death") {
		t.Fatalf("failed node report = %+v", dead)
	}

	got := resultsBlobs(t, store, "ds")
	if len(got) != len(want) {
		t.Fatalf("results chunks = %d, want %d", len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("results blob %s differs from fault-free run", name)
		}
	}
}

// TestAlignAllWorkersDead: a run whose every worker dies fails cleanly.
func TestAlignAllWorkersDead(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", recoveryFixture)
	_, _, err := Align(context.Background(), store, "ds", f.Index, Config{
		Nodes: 2, ThreadsPerNode: 2,
		ServerOptions: ServerOptions{LeaseTimeout: fastDetect.LeaseTimeout, BeatTimeout: fastDetect.BeatTimeout},
		NodeFaults:    map[int]int{0: 0, 1: 0},
	})
	if err == nil || !strings.Contains(err.Error(), "all 2 nodes failed") {
		t.Fatalf("err = %v, want all-nodes-failed", err)
	}
}

// cancelAtPut cancels a context at the first Put whose name contains substr,
// and lets that Put through.
type cancelAtPut struct {
	storage.Store
	substr string
	cancel context.CancelFunc
}

func (s cancelAtPut) Put(name string, data []byte) error {
	if strings.Contains(name, s.substr) {
		s.cancel()
	}
	return s.Store.Put(name, data)
}

// TestAlignFailureLeavesNoResults: a two-node run cancelled at chunk 4's
// results Put, with other chunks' results already stored, fails and leaves
// the dataset as it found it — no results blob, no results column.
func TestAlignFailureLeavesNoResults(t *testing.T) {
	mem := agd.NewMemStore()
	f := testutil.Build(t, mem, "ds", recoveryFixture)
	before := testutil.Blobs(t, mem, "")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := cancelAtPut{Store: mem, substr: "ds/chunk-000004.results", cancel: cancel}
	if _, _, err := Align(ctx, store, "ds", f.Index, Config{Nodes: 2, ThreadsPerNode: 2}); err == nil {
		t.Fatal("a run cancelled midway succeeded")
	}
	testutil.SameBlobs(t, "after a failed run", testutil.Blobs(t, mem, ""), before)
}

// TestAlignUnderInjectedReadFaults: the full distributed run, with >=10% of
// reads failing transiently, completes byte-identical to the fault-free run
// when the store is resilience-wrapped.
func TestAlignUnderInjectedReadFaults(t *testing.T) {
	clean := agd.NewMemStore()
	f := testutil.Build(t, clean, "ds", recoveryFixture)
	if _, _, err := Align(context.Background(), clean, "ds", f.Index, Config{Nodes: 1, ThreadsPerNode: 2}); err != nil {
		t.Fatal(err)
	}
	want := resultsBlobs(t, clean, "ds")

	inner := agd.NewMemStore()
	f2 := testutil.Build(t, inner, "ds", recoveryFixture)
	faulty := storage.NewFaultStore(inner, storage.FaultPolicy{
		Seed:   17,
		Reads:  storage.OpFaults{ErrProb: 0.15, LatencyProb: 0.1, Latency: time.Millisecond},
		Writes: storage.OpFaults{ErrProb: 0.1},
	})
	defer faulty.Close()
	resilient := storage.NewRetryStore(faulty, storage.RetryPolicy{
		MaxAttempts: 8, BaseDelay: 200 * time.Microsecond, MaxDelay: 5 * time.Millisecond,
	})

	report, m, err := Align(context.Background(), resilient, "ds", f2.Index, Config{Nodes: 2, ThreadsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasColumn(agd.ColResults) {
		t.Fatal("results column not registered")
	}
	if report.Degraded {
		t.Fatal("transient faults should not degrade the run")
	}
	if faulty.Stats().InjectedErrors == 0 {
		t.Fatal("fault store injected nothing; the test is vacuous")
	}
	if resilient.RetryStats().Retries == 0 {
		t.Fatal("no retries recorded; the resilience layer was bypassed")
	}

	got := resultsBlobs(t, inner, "ds")
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("results blob %s differs from fault-free run", name)
		}
	}
}

// TestAlignCorruptChunkFailsClean: a corrupted bases chunk must fail the run
// with a classified permanent error naming the chunk — never produce output.
func TestAlignCorruptChunkFailsClean(t *testing.T) {
	inner := agd.NewMemStore()
	f := testutil.Build(t, inner, "ds", recoveryFixture)
	ds, err := agd.Open(inner, "ds")
	if err != nil {
		t.Fatal(err)
	}
	target := ds.Manifest.ChunkBlobPath(2, agd.ColBases)
	faulty := storage.NewFaultStore(inner, storage.FaultPolicy{
		Seed: 23,
		Keys: []storage.KeyFaults{{Substr: target, Reads: storage.OpFaults{CorruptProb: 1}}},
	})
	defer faulty.Close()
	resilient := storage.NewRetryStore(faulty, storage.RetryPolicy{
		MaxAttempts: 4, BaseDelay: 200 * time.Microsecond,
	})

	_, _, err = Align(context.Background(), resilient, "ds", f.Index, Config{Nodes: 2, ThreadsPerNode: 2})
	if err == nil {
		t.Fatal("aligning a corrupt chunk succeeded")
	}
	if !errors.Is(err, agd.ErrCorrupt) {
		t.Fatalf("err = %v, want a classified corruption error", err)
	}
	if !strings.Contains(err.Error(), target) {
		t.Fatalf("err = %v, does not name the corrupt chunk %s", err, target)
	}
	m2, err := agd.Open(inner, "ds")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Manifest.HasColumn(agd.ColResults) {
		t.Fatal("failed run registered a results column")
	}
}
