package persona

// White-box pipeline tests: golden equivalence between the fused
// Session/Pipeline graph and the staged free-function sequence, the
// zero-intermediate-write guarantee, and cancellation/leak behavior.

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"persona/internal/agd"
	"persona/internal/formats/fastq"
	"persona/internal/reads"
	"persona/internal/storage"
)

// countingStore wraps a Store, recording every Put name and counting Gets;
// onGet (if set) runs before each Get — the hook cancellation tests use to
// cancel mid-stream.
type countingStore struct {
	inner storage.Store
	mu    sync.Mutex
	puts  []string
	gets  atomic.Int64
	onGet atomic.Pointer[func(n int64)]
}

func (c *countingStore) Put(name string, data []byte) error {
	c.mu.Lock()
	c.puts = append(c.puts, name)
	c.mu.Unlock()
	return c.inner.Put(name, data)
}

func (c *countingStore) Get(name string) ([]byte, error) {
	n := c.gets.Add(1)
	if hook := c.onGet.Load(); hook != nil {
		(*hook)(n)
	}
	return c.inner.Get(name)
}

func (c *countingStore) Delete(name string) error { return c.inner.Delete(name) }
func (c *countingStore) List(prefix string) ([]string, error) {
	return c.inner.List(prefix)
}

func (c *countingStore) putNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string{}, c.puts...)
}

// pipelineFixture imports the same simulated reads into two datasets of one
// store and returns the store and the genome.
func pipelineFixture(t testing.TB, names ...string) (*countingStore, *Genome) {
	t.Helper()
	g, err := SynthesizeGenome(150_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := reads.NewSimulator(g, reads.SimConfig{
		Seed: 8, N: 800, ReadLen: 80, ErrorRate: 0.003, DuplicateFraction: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := sim.All()
	var fq bytes.Buffer
	w := fastq.NewWriter(&fq)
	for i := range rs {
		if err := w.Write(&rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	store := &countingStore{inner: NewMemStore()}
	for _, name := range names {
		if _, _, err := ImportFASTQ(context.Background(), store, name, strings.NewReader(fq.String()), RefSeqs(g), 100); err != nil {
			t.Fatal(err)
		}
	}
	return store, g
}

// TestPipelineMatchesStagedSAM is the golden equivalence check: a fused
// Read→Align→Sort→MarkDup→ExportSAM pipeline must produce byte-identical
// SAM to the staged free-function sequence — and must write nothing to the
// store except sort's temporary spill blobs, which it must delete again.
func TestPipelineMatchesStagedSAM(t *testing.T) {
	ctx := context.Background()
	store, g := pipelineFixture(t, "staged", "fused")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}

	// Staged: align writes results chunks, sort writes a whole dataset,
	// markdup rewrites its results column, export re-reads everything.
	if _, _, err := Align(ctx, store, "staged", idx, AlignOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(ctx, store, "staged", ByLocation, "staged.sorted"); err != nil {
		t.Fatal(err)
	}
	stagedDups, err := MarkDuplicates(ctx, store, "staged.sorted")
	if err != nil {
		t.Fatal(err)
	}
	var stagedSAM bytes.Buffer
	if _, err := ExportSAM(ctx, store, "staged.sorted", &stagedSAM); err != nil {
		t.Fatal(err)
	}

	// The staged SAM header names the dataset-independent fields only, so
	// the two paths' bytes are comparable directly.
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()
	before := len(store.putNames())
	var fusedSAM bytes.Buffer
	report, err := sess.Read("fused").
		Align(idx, AlignOptions{}).
		Sort(ByLocation).
		MarkDuplicates().
		ExportSAM(&fusedSAM).
		Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(stagedSAM.Bytes(), fusedSAM.Bytes()) {
		t.Fatalf("fused SAM differs from staged SAM (%d vs %d bytes)", fusedSAM.Len(), stagedSAM.Len())
	}
	if report.Records != 800 {
		t.Fatalf("pipeline exported %d records", report.Records)
	}
	if report.Dups != stagedDups {
		t.Fatalf("pipeline dups %+v, staged %+v", report.Dups, stagedDups)
	}
	if report.Align == nil || report.Align.Reads != 800 {
		t.Fatalf("pipeline align report %+v", report.Align)
	}
	if len(report.Stages) != 5 {
		t.Fatalf("expected 5 stage reports, got %v", report.Stages)
	}

	// Zero intermediate datasets: every store write during the fused run
	// must be a sort spill blob under the pipeline temp prefix...
	writes := store.putNames()[before:]
	if len(writes) == 0 {
		t.Fatal("expected sort spill writes")
	}
	for _, name := range writes {
		if !strings.HasPrefix(name, ".pipeline/") || !strings.Contains(name, "/tmp/") {
			t.Fatalf("fused pipeline wrote non-spill blob %q", name)
		}
	}
	// ...and the spill blobs are deleted by the time Run returns.
	left, err := store.List(".pipeline/")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill blobs left behind: %v", left)
	}
	// The session pool got every chunk back.
	if size, free := sess.PoolStats(); size != free {
		t.Fatalf("chunk pool leak: %d of %d free", free, size)
	}
}

// TestPipelineWriteMatchesFreeFunctions checks the dataset-sink path: an
// ImportFASTQ→Write pipeline round-trips reads identically to the
// free-function import, and a Read→Filter→Write pipeline matches Filter.
func TestPipelineWriteMatchesFreeFunctions(t *testing.T) {
	ctx := context.Background()
	store, g := pipelineFixture(t, "seed")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Align(ctx, store, "seed", idx, AlignOptions{}); err != nil {
		t.Fatal(err)
	}

	sess := NewSession(store, SessionOptions{})
	defer sess.Close()

	// Filter both ways; the outputs must export identically.
	if _, _, err := Filter(ctx, store, "seed", FilterMinMapQ(20), "seed.filtered"); err != nil {
		t.Fatal(err)
	}
	report, err := sess.Read("seed").Filter(FilterMinMapQ(20)).Write("seed.pfiltered").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Manifest == nil || report.Manifest.Name != "seed.pfiltered" {
		t.Fatalf("write sink manifest %+v", report.Manifest)
	}
	if report.Filtered.Kept == 0 || report.Filtered.Kept != report.Records {
		t.Fatalf("filter stats %+v vs records %d", report.Filtered, report.Records)
	}
	// The written dataset keeps the SOURCE's chunking (100 records/chunk),
	// not the arbitrary kept-count of the first filtered group.
	if report.Filtered.Kept > 100 && report.Manifest.Chunks[0].Records != 100 {
		t.Fatalf("write sink chunked at %d records, want source's 100", report.Manifest.Chunks[0].Records)
	}
	var a, b bytes.Buffer
	if _, err := ExportSAM(ctx, store, "seed.filtered", &a); err != nil {
		t.Fatal(err)
	}
	if _, err := ExportSAM(ctx, store, "seed.pfiltered", &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("filtered pipeline dataset differs from free-function filter")
	}

	// Import through the pipeline source, then round-trip the reads.
	sim, _ := reads.NewSimulator(g, reads.SimConfig{Seed: 3, N: 120, ReadLen: 60})
	rs, _ := sim.All()
	var fq bytes.Buffer
	w := fastq.NewWriter(&fq)
	for i := range rs {
		if err := w.Write(&rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ImportFASTQ(strings.NewReader(fq.String()), RefSeqs(g), 50).Write("imp").Run(ctx); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := ExportFASTQ(ctx, store, "imp", &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != fq.String() {
		t.Fatal("pipeline import did not round-trip FASTQ")
	}
}

// TestPipelineValidation exercises the plan-time graph checks.
func TestPipelineValidation(t *testing.T) {
	ctx := context.Background()
	store, g := pipelineFixture(t, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()

	cases := []struct {
		name string
		p    *Pipeline
		want string
	}{
		{"no sink", sess.Read("ds"), "no sink"},
		{"sink not last", sess.Read("ds").ExportSAM(&bytes.Buffer{}).MarkDuplicates().ExportSAM(&bytes.Buffer{}), "final stage"},
		{"sort unaligned", sess.Read("ds").Sort(ByLocation).ExportFASTQ(&bytes.Buffer{}), "needs alignment results"},
		{"markdup unaligned", sess.Read("ds").MarkDuplicates().ExportSAM(&bytes.Buffer{}), "needs alignment results"},
		{"filter no pred", sess.Read("ds").Align(idx, AlignOptions{}).Filter(nil).ExportSAM(&bytes.Buffer{}), "predicate"},
		{"align nil index", sess.Read("ds").Align(nil, AlignOptions{}).ExportSAM(&bytes.Buffer{}), "index"},
		{"write empty name", sess.Read("ds").Write(""), "dataset name"},
		{"export unaligned", sess.Read("ds").ExportSAM(&bytes.Buffer{}), "alignment results"},
	}
	for _, tc := range cases {
		if _, err := tc.p.Run(ctx); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// Double alignment is caught once the dataset carries results.
	if _, _, err := Align(ctx, store, "ds", idx, AlignOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Read("ds").Align(idx, AlignOptions{}).ExportSAM(&bytes.Buffer{}).Run(ctx); err == nil || !strings.Contains(err.Error(), "already aligned") {
		t.Errorf("realign: got %v", err)
	}
}

// TestPipelineCancellationMidStream cancels a fused pipeline partway
// through its input and checks that Run fails promptly, that the sort spill
// blobs are cleaned up, that the session chunk pool gets every pooled chunk
// back (no pool-item leak), that no goroutines are left behind, and that
// the same session still completes the pipeline afterwards. Run under
// -race, this also shakes out unsynchronized teardown.
func TestPipelineCancellationMidStream(t *testing.T) {
	store, g := pipelineFixture(t, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()
	time.Sleep(10 * time.Millisecond) // let executor workers reach steady state
	goroutines := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	baseline := store.gets.Load()
	hook := func(n int64) {
		// The 8-chunk dataset fetches 3 columns per chunk: cancelling
		// after a handful of fetches lands mid-align.
		if n-baseline > 6 {
			cancel()
		}
	}
	store.onGet.Store(&hook)
	var out bytes.Buffer
	_, err = sess.Read("ds").
		Align(idx, AlignOptions{}).
		Sort(ByLocation).
		MarkDuplicates().
		ExportSAM(&out).
		Run(ctx)
	store.onGet.Store(nil)
	cancel()
	if err == nil {
		t.Fatal("cancelled pipeline succeeded")
	}
	if err != context.Canceled && !strings.Contains(err.Error(), "stopped") && !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("unexpected cancellation error: %v", err)
	}

	// Pool items and goroutines drain back; allow brief settling for
	// in-flight async fetches whose results are dropped.
	deadline := time.Now().Add(5 * time.Second)
	for {
		size, free := sess.PoolStats()
		ngo := runtime.NumGoroutine()
		if size == free && ngo <= goroutines {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after cancellation: pool %d/%d free, goroutines %d (was %d)",
				free, size, ngo, goroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if left, _ := store.List(".pipeline/"); len(left) != 0 {
		t.Fatalf("spill blobs left after cancellation: %v", left)
	}

	// The same session (same executor, same pools) still works.
	out.Reset()
	report, err := sess.Read("ds").
		Align(idx, AlignOptions{}).
		Sort(ByLocation).
		MarkDuplicates().
		ExportSAM(&out).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Records != 800 {
		t.Fatalf("post-cancel run exported %d records", report.Records)
	}
	if size, free := sess.PoolStats(); size != free {
		t.Fatalf("chunk pool leak after rerun: %d of %d free", free, size)
	}
}

// TestFreeFunctionCancellation checks the satellite ctx plumbing: the
// one-shot free functions notice an already-cancelled context within a
// chunk, and Align notices one that dies mid-stream.
func TestFreeFunctionCancellation(t *testing.T) {
	store, g := pipelineFixture(t, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}

	// Mid-stream alignment cancellation via the store hook.
	ctx, cancel := context.WithCancel(context.Background())
	base := store.gets.Load()
	hook := func(n int64) {
		if n-base > 3 { // a few fetches in
			cancel()
		}
	}
	store.onGet.Store(&hook)
	_, _, err = Align(ctx, store, "ds", idx, AlignOptions{})
	store.onGet.Store(nil)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancelled Align: err = %v, want context.Canceled", err)
	}

	// Fresh fixture for the downstream stages: "ds" aligned, "raw" not
	// (the distributed-align check needs an unaligned input). The genome is
	// seeded identically, so idx applies.
	store2, g2 := pipelineFixture(t, "ds", "raw")
	if _, _, err := Align(context.Background(), store2, "ds", idx, AlignOptions{}); err != nil {
		t.Fatal(err)
	}
	// Mid-sort cancellation must also clean up the spilled superchunks.
	sctx, scancel := context.WithCancel(context.Background())
	sbase := store2.gets.Load()
	shook := func(n int64) {
		if n-sbase > 4 {
			scancel()
		}
	}
	store2.onGet.Store(&shook)
	_, err = Sort(sctx, store2, "ds", ByLocation, "ds.cancelled")
	store2.onGet.Store(nil)
	scancel()
	if err == nil {
		t.Error("mid-stream cancelled Sort succeeded")
	}
	if left, _ := store2.List("ds.cancelled/tmp/"); len(left) != 0 {
		t.Errorf("cancelled Sort left spill blobs: %v", left)
	}

	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := Sort(dead, store2, "ds", ByLocation, ""); err == nil {
		t.Error("Sort ignored cancelled context")
	}
	if _, err := MarkDuplicates(dead, store2, "ds"); err == nil {
		t.Error("MarkDuplicates ignored cancelled context")
	}
	if _, _, err := Filter(dead, store2, "ds", FilterMappedOnly(), ""); err == nil {
		t.Error("Filter ignored cancelled context")
	}
	var buf bytes.Buffer
	if _, err := ExportSAM(dead, store2, "ds", &buf); err == nil {
		t.Error("ExportSAM ignored cancelled context")
	}
	if _, err := ExportFASTQ(dead, store2, "ds", &buf); err == nil {
		t.Error("ExportFASTQ ignored cancelled context")
	}
	if _, _, err := ImportFASTQ(dead, store2, "dead", strings.NewReader("@r\nACGT\n+\nIIII\n"), nil, 2); err == nil {
		t.Error("ImportFASTQ ignored cancelled context")
	}
	if _, err := CallVariants(dead, store2, "ds", g2); err == nil {
		t.Error("CallVariants ignored cancelled context")
	}
	if _, _, err := AlignDistributed(dead, store2, "raw", idx, 1, 1); err == nil {
		t.Error("AlignDistributed ignored cancelled context")
	}
}

// TestSessionIndexCache checks the warm-index reuse.
func TestSessionIndexCache(t *testing.T) {
	g, err := SynthesizeGenome(60_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(NewMemStore(), SessionOptions{})
	defer sess.Close()
	a, err := sess.Index(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Index(g)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("session rebuilt the index for the same genome")
	}
}

// groupStreamColumns is a compile-time-ish sanity check that the agd stream
// metadata helpers behave (used across stage packages).
func TestStreamMetaHelpers(t *testing.T) {
	m := agd.StreamMeta{Columns: []string{"bases", "qual"}}
	if m.Col("qual") != 1 || m.Col("missing") != -1 || !m.HasColumn("bases") {
		t.Fatal("StreamMeta lookups broken")
	}
	m2 := m.WithColumn("results")
	if len(m.Columns) != 2 || len(m2.Columns) != 3 || m2.Col("results") != 2 {
		t.Fatalf("WithColumn mutated or mislaid: %v %v", m.Columns, m2.Columns)
	}
}
