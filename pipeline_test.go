package persona

// White-box pipeline tests: golden equivalence between the fused
// Session/Pipeline graph and the staged free-function sequence, the
// zero-intermediate-write guarantee, and cancellation/leak behavior.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"persona/internal/agd"
	"persona/internal/formats/bgzf"
	"persona/internal/formats/fastq"
	"persona/internal/reads"
	"persona/internal/storage"
)

// countingStore wraps a Store, recording every Put name and counting Gets
// and Deletes; onGet (if set) runs before each Get — the hook cancellation
// tests use to cancel mid-stream.
type countingStore struct {
	inner   storage.Store
	mu      sync.Mutex
	puts    []string
	gets    atomic.Int64
	deletes atomic.Int64
	onGet   atomic.Pointer[func(n int64)]
	// stored, once record has made it, keeps a copy of every blob Put
	// since, deleted or not.
	stored map[string][]byte
}

func (c *countingStore) Put(name string, data []byte) error {
	c.mu.Lock()
	c.puts = append(c.puts, name)
	if c.stored != nil {
		c.stored[name] = append([]byte(nil), data...)
	}
	c.mu.Unlock()
	return c.inner.Put(name, data)
}

// record starts keeping a copy of every blob Put from now on.
func (c *countingStore) record() {
	c.mu.Lock()
	c.stored = make(map[string][]byte)
	c.mu.Unlock()
}

// recorded returns the blobs Put since record whose names start with prefix.
func (c *countingStore) recorded(prefix string) map[string][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]byte)
	for name, blob := range c.stored {
		if strings.HasPrefix(name, prefix) {
			out[name] = blob
		}
	}
	return out
}

func (c *countingStore) Get(name string) ([]byte, error) {
	n := c.gets.Add(1)
	if hook := c.onGet.Load(); hook != nil {
		(*hook)(n)
	}
	return c.inner.Get(name)
}

func (c *countingStore) Delete(name string) error {
	c.deletes.Add(1)
	return c.inner.Delete(name)
}
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
// SAM to the staged free-function sequence — and must neither put nor
// delete a single blob: the sort keeps its runs in memory.
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
	puts, deletes := len(store.putNames()), store.deletes.Load()
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

	// Zero intermediate datasets, and no sort runs either.
	if writes := store.putNames()[puts:]; len(writes) != 0 {
		t.Fatalf("fused pipeline put %v", writes)
	}
	if n := store.deletes.Load() - deletes; n != 0 {
		t.Fatalf("fused pipeline deleted %d blobs", n)
	}
	// Every delivered group was released.
	checkNoLeak(t, sess)
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

// TestPipelineBAMExportOnExecutor: the BAM sink compresses its BGZF blocks
// as tasks on the session executor — one task per block on top of what the
// same graph submits with a SAM sink — and writes the bytes the serial
// free-function export writes.
func TestPipelineBAMExportOnExecutor(t *testing.T) {
	ctx := context.Background()
	store, g := pipelineFixture(t, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Align(ctx, store, "ds", idx, AlignOptions{}); err != nil {
		t.Fatal(err)
	}
	var serial bytes.Buffer
	if _, err := ExportBAM(ctx, store, "ds", &serial); err != nil {
		t.Fatal(err)
	}
	// No cache, so both runs decode the same chunks with the same tasks.
	sess := NewSession(store, SessionOptions{ExecutorThreads: 2, CacheBytes: -1})
	defer sess.Close()
	var fused, samText bytes.Buffer
	bamReport, err := sess.Read("ds").ExportBAM(&fused).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	samReport, err := sess.Read("ds").ExportSAM(&samText).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fused.Bytes(), serial.Bytes()) {
		t.Fatalf("pipeline BAM differs from the serial export (%d vs %d bytes)", fused.Len(), serial.Len())
	}
	payload, err := io.ReadAll(bgzf.NewReader(bytes.NewReader(serial.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	blocks := int64((len(payload) + bgzf.MaxBlockSize - 1) / bgzf.MaxBlockSize)
	if got := bamReport.Executor.Submitted - samReport.Executor.Submitted; got != blocks {
		t.Fatalf("BAM sink submitted %d tasks beyond the SAM sink's, want one per block (%d)", got, blocks)
	}
}

// TestPipelineValidation pins the message of every plan-time graph check.
func TestPipelineValidation(t *testing.T) {
	ctx := context.Background()
	store, g := pipelineFixture(t, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()
	// Datasets that lack a column: validation reads only the manifest.
	ds, err := OpenDataset(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	for name, drop := range map[string]string{"nobases": agd.ColBases, "nometa": agd.ColMetadata} {
		m := *ds.Manifest
		m.Name, m.Columns = name, nil
		for _, c := range ds.Manifest.Columns {
			if c != drop {
				m.Columns = append(m.Columns, c)
			}
		}
		if err := agd.WriteManifest(store, &m); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name string
		p    *Pipeline
		want string
	}{
		{"no sink", sess.Read("ds"), "no sink"},
		{"no sink at the end", sess.Read("ds").Sort(ByMetadata), "must end in a sink"},
		{"sink not last", sess.Read("ds").ExportSAM(&bytes.Buffer{}).MarkDuplicates().ExportSAM(&bytes.Buffer{}), "final stage"},
		{"sort unaligned", sess.Read("ds").Sort(ByLocation).ExportFASTQ(&bytes.Buffer{}), "needs alignment results"},
		{"sort no metadata", sess.Read("nometa").Sort(ByMetadata).ExportFASTQ(&bytes.Buffer{}), `needs a "metadata" column`},
		{"markdup unaligned", sess.Read("ds").MarkDuplicates().ExportSAM(&bytes.Buffer{}), "needs alignment results"},
		{"filter unaligned", sess.Read("ds").Filter(FilterMappedOnly()).ExportSAM(&bytes.Buffer{}), "needs alignment results"},
		{"filter no pred", sess.Read("ds").Align(idx, AlignOptions{}).Filter(nil).ExportSAM(&bytes.Buffer{}), "predicate"},
		{"align nil index", sess.Read("ds").Align(nil, AlignOptions{}).ExportSAM(&bytes.Buffer{}), "index"},
		{"align no bases", sess.Read("nobases").Align(idx, AlignOptions{}).ExportSAM(&bytes.Buffer{}), `needs a "bases" column`},
		{"write empty name", sess.Read("ds").Write(""), "dataset name"},
		{"export unaligned", sess.Read("ds").ExportSAM(&bytes.Buffer{}), "alignment results"},
		{"export bam unaligned", sess.Read("ds").ExportBAM(&bytes.Buffer{}), "alignment results"},
		{"export no bases", sess.Read("nobases").ExportSAM(&bytes.Buffer{}), `export-sam needs a "bases" column`},
		{"export fastq no bases", sess.Read("nobases").ExportFASTQ(&bytes.Buffer{}), `export-fastq needs a "bases" column`},
	}
	for _, tc := range cases {
		if _, err := tc.p.Run(ctx); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// The one-shot MarkDuplicates writes results back: it needs them first.
	if _, err := MarkDuplicates(ctx, store, "ds"); err == nil || !strings.Contains(err.Error(), "needs alignment results") {
		t.Errorf("one-shot markdup unaligned: got %v", err)
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
// through its input and checks that Run fails promptly, that it put no blob,
// that every cached chunk's pin is released (no group leaked), that no
// goroutines are left behind, and that
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
	goroutines := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	puts := len(store.putNames())
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

	// Chunk pins and goroutines drain back; allow brief settling for
	// in-flight async fetches whose results are dropped.
	deadline := time.Now().Add(5 * time.Second)
	for {
		leak := chunkLeak(sess)
		ngo := runtime.NumGoroutine()
		if leak == nil && ngo <= goroutines {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after cancellation: %v, goroutines %d (was %d)", leak, ngo, goroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if writes := store.putNames()[puts:]; len(writes) != 0 {
		t.Fatalf("cancelled pipeline put %v", writes)
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
	checkNoLeak(t, sess)
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
	// Mid-sort cancellation must leave nothing of the output behind.
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
	if left, _ := store2.List("ds.cancelled/"); len(left) != 0 {
		t.Errorf("cancelled Sort left blobs: %v", left)
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

// TestFreeFunctionsMissingDataset: every one-shot over a dataset the store
// does not hold fails, and stores nothing.
func TestFreeFunctionsMissingDataset(t *testing.T) {
	ctx := context.Background()
	store := NewMemStore()
	for name, run := range map[string]func() error{
		"Align": func() error { _, _, err := Align(ctx, store, "nope", nil, AlignOptions{}); return err },
		"AlignPaired": func() error {
			_, _, err := AlignPaired(ctx, store, "nope", nil, AlignOptions{})
			return err
		},
		"Sort":           func() error { _, err := Sort(ctx, store, "nope", ByLocation, ""); return err },
		"MarkDuplicates": func() error { _, err := MarkDuplicates(ctx, store, "nope"); return err },
		"Filter":         func() error { _, _, err := Filter(ctx, store, "nope", FilterMappedOnly(), ""); return err },
		"ExportSAM":      func() error { _, err := ExportSAM(ctx, store, "nope", io.Discard); return err },
		"ExportBAM":      func() error { _, err := ExportBAM(ctx, store, "nope", io.Discard); return err },
		"ExportFASTQ":    func() error { _, err := ExportFASTQ(ctx, store, "nope", io.Discard); return err },
	} {
		if err := run(); err == nil {
			t.Errorf("%s of a missing dataset succeeded", name)
		}
	}
	if left, _ := store.List(""); len(left) != 0 {
		t.Fatalf("failed one-shots stored %v", left)
	}
}

// columnGets counts the chunk blobs fetched through it, per column.
type columnGets struct {
	Store
	mu   sync.Mutex
	gets map[string]int
}

func (s *columnGets) Get(name string) ([]byte, error) {
	if i := strings.LastIndexByte(name, '.'); strings.Contains(name, "/chunk-") && i >= 0 {
		s.mu.Lock()
		s.gets[name[i+1:]]++
		s.mu.Unlock()
	}
	return s.Store.Get(name)
}

// fetched returns the per-column counts since the last call.
func (s *columnGets) fetched() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	got := s.gets
	s.gets = map[string]int{}
	return got
}

// TestSourceFetchesOnlyColumnsRead: a Read source fetches the columns its
// graph reads and no other. The one-shot Align reads bases (the results it
// gets are RegisterColumn checking what it stored), MarkDuplicates results
// alone, a metadata sort into a FASTQ export everything but results, and
// the distributed align's map tasks bases alone, like the one-shot Align.
func TestSourceFetchesOnlyColumnsRead(t *testing.T) {
	ctx := context.Background()
	base, g := pipelineFixture(t, "ds", "raw")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	store := &columnGets{Store: base, gets: map[string]int{}}
	ds, err := OpenDataset(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	chunks := ds.NumChunks()
	check := func(what string, want map[string]int) {
		t.Helper()
		if got := store.fetched(); !maps.Equal(got, want) {
			t.Errorf("%s fetched %v chunk blobs, want %v", what, got, want)
		}
	}

	store.fetched()
	if _, _, err := Align(ctx, store, "ds", idx, AlignOptions{}); err != nil {
		t.Fatal(err)
	}
	check("Align", map[string]int{agd.ColBases: chunks, agd.ColResults: chunks})

	if _, err := MarkDuplicates(ctx, store, "ds"); err != nil {
		t.Fatal(err)
	}
	check("MarkDuplicates", map[string]int{agd.ColResults: chunks})

	sess := NewSession(store, SessionOptions{CacheBytes: -1})
	defer sess.Close()
	if _, err := sess.Read("ds").Sort(ByMetadata).ExportFASTQ(io.Discard).Run(ctx); err != nil {
		t.Fatal(err)
	}
	check("Read.Sort(ByMetadata).ExportFASTQ", map[string]int{agd.ColBases: chunks, agd.ColQual: chunks, agd.ColMetadata: chunks})

	if _, _, err := AlignDistributed(ctx, store, "raw", idx, 2, 1); err != nil {
		t.Fatal(err)
	}
	check("AlignDistributed(2 nodes)", map[string]int{agd.ColBases: chunks, agd.ColResults: chunks})
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

// TestSessionIndexBuildsOnce: concurrent first callers for one genome share
// one build and all get its index; a failed build is not kept, so the next
// caller builds again.
func TestSessionIndexBuildsOnce(t *testing.T) {
	g, err := SynthesizeGenome(60_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(NewMemStore(), SessionOptions{})
	defer sess.Close()
	const callers = 8
	var builds atomic.Int32
	var ready sync.WaitGroup
	ready.Add(callers)
	sess.buildIndex = func(g *Genome) (*Index, error) {
		builds.Add(1)
		// Hold the first build until every caller has asked, yielding so
		// that a caller not sharing it would start a build of its own.
		ready.Wait()
		for i := 0; i < 100 && builds.Load() < callers; i++ {
			runtime.Gosched()
		}
		return BuildIndex(g)
	}
	idxs := make([]*Index, callers)
	errs := make([]error, callers)
	var done sync.WaitGroup
	for i := range idxs {
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Done()
			idxs[i], errs[i] = sess.Index(g)
		}()
	}
	done.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent first callers built the index %d times, want once", callers, n)
	}
	for i := range idxs {
		if errs[i] != nil || idxs[i] != idxs[0] || idxs[0] == nil {
			t.Fatalf("caller %d got (%p, %v), caller 0 %p", i, idxs[i], errs[i], idxs[0])
		}
	}

	other, err := SynthesizeGenome(60_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	builds.Store(0)
	sess.buildIndex = func(*Genome) (*Index, error) {
		builds.Add(1)
		return nil, errors.New("index: out of memory")
	}
	if _, err := sess.Index(other); err == nil {
		t.Fatal("a failed build returned no error")
	}
	sess.buildIndex = func(g *Genome) (*Index, error) {
		builds.Add(1)
		return BuildIndex(g)
	}
	if idx, err := sess.Index(other); err != nil || idx == nil || builds.Load() != 2 {
		t.Fatalf("after a failed build: (%p, %v) after %d builds, want a second build", idx, err, builds.Load())
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
