package persona

// A dataset-to-dataset operation that fails must leave the store as it found
// it — no column blob of a dataset that never got its manifest — and no
// goroutine of its own behind.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"persona/internal/agd"
	"persona/internal/storage"
	"persona/internal/testutil"
)

// eachPutFault learns, from one clean run of op on a copy of base, every blob
// op puts; then, once per blob, runs op on a fresh copy behind a key-targeted
// FaultStore that fails that one Put. Each faulted run must fail, leave
// base's blobs and nothing else in the store, and leave no goroutine behind.
// It returns how many Puts were failed.
func eachPutFault(t *testing.T, base agd.BlobStore, op func(store agd.BlobStore) error) int {
	t.Helper()
	log := &countingStore{inner: testutil.CopyStore(t, base)}
	if err := op(log); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	want := testutil.Blobs(t, base, "")
	for k, name := range log.putNames() {
		before := runtime.NumGoroutine()
		mem := testutil.CopyStore(t, base)
		faulty := storage.NewFaultStore(mem, storage.FaultPolicy{
			Keys: []storage.KeyFaults{{Substr: name, Writes: storage.OpFaults{ErrProb: 1}}},
		})
		if err := op(faulty); err == nil {
			t.Fatalf("put %d (%s) failed, the operation did not", k, name)
		}
		faulty.Close()
		testutil.SameBlobs(t, "after failing put "+name, testutil.Blobs(t, mem, ""), want)
		waitGoroutines(t, before)
	}
	return len(log.putNames())
}

// waitGoroutines fails the test if the goroutine count does not fall back to
// limit: an executor worker may take a moment to exit, a leaked one never
// does.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > limit {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the operation:\n%s", runtime.NumGoroutine(), limit, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOneShotsLeaveNoGoroutine: every one-shot function runs its pipeline
// on the calling goroutine and on the executor of a session it closes before
// returning, so the goroutine count right after each is the count before —
// with no waiting. The imports write chunks big enough for a codec with
// workers to split. It runs at one processor: there a worker that has
// signalled Close is gone before Close's caller runs again, while with more
// processors it may still be on its way out when the count is taken.
func TestOneShotsLeaveNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{GenomeSize: 100_000, NumReads: 2000, ReadLen: 101, ChunkSize: 100, Seed: 5})
	idx := f.Index
	var fq, text bytes.Buffer
	if _, err := ExportFASTQ(ctx, store, "ds", &fq); err != nil {
		t.Fatal(err)
	}
	if _, err := ExportSAM(ctx, store, "ds", &text); err != nil {
		t.Fatal(err)
	}
	single, paired := unaligned(t, store), unaligned(t, store)
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"Align", func() error {
			_, _, err := Align(ctx, single, "ds", idx, AlignOptions{})
			return err
		}},
		{"AlignPaired", func() error {
			_, _, err := AlignPaired(ctx, paired, "ds", idx, AlignOptions{ExecutorThreads: 3})
			return err
		}},
		{"Sort", func() error {
			_, err := Sort(ctx, store, "ds", ByLocation, "sorted")
			return err
		}},
		{"MarkDuplicates", func() error {
			_, err := MarkDuplicates(ctx, store, "sorted")
			return err
		}},
		{"Filter", func() error {
			_, _, err := Filter(ctx, store, "ds", FilterMappedOnly(), "mapped")
			return err
		}},
		{"ExportSAM", func() error {
			_, err := ExportSAM(ctx, store, "sorted", io.Discard)
			return err
		}},
		{"ExportBAM", func() error {
			_, err := ExportBAM(ctx, store, "sorted", io.Discard)
			return err
		}},
		{"ExportFASTQ", func() error {
			_, err := ExportFASTQ(ctx, store, "mapped", io.Discard)
			return err
		}},
		{"ImportFASTQ", func() error {
			_, _, err := ImportFASTQ(ctx, store, "imported", bytes.NewReader(fq.Bytes()), nil, 2000)
			return err
		}},
		{"ImportSAM", func() error {
			_, _, err := ImportSAM(ctx, store, "imported-sam", bytes.NewReader(text.Bytes()), 2000)
			return err
		}},
		{"CallVariants", func() error {
			_, err := CallVariants(ctx, store, "sorted", f.Genome)
			return err
		}},
	} {
		before := runtime.NumGoroutine()
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("%s: %d goroutines after it returned, %d before", op.name, after, before)
		}
	}
}

// cancelOnPut cancels a context at the first Put whose name contains substr.
type cancelOnPut struct {
	agd.BlobStore
	substr string
	cancel context.CancelFunc
}

func (c *cancelOnPut) Put(name string, data []byte) error {
	if strings.Contains(name, c.substr) {
		c.cancel()
	}
	return c.BlobStore.Put(name, data)
}

// TestSortFailureLeavesNothing fails every Put of a dataset sort in turn —
// each output column blob, the manifest: the runs stay in memory and are
// never put — and cancels one mid-merge.
func TestSortFailureLeavesNothing(t *testing.T) {
	base := agd.NewMemStore()
	ds := writeKeyFixture(t, base, "ds", "ragged")
	for _, by := range []SortKey{ByLocation, ByMetadata} {
		sort := func(ctx context.Context, store agd.BlobStore) error {
			_, err := Sort(ctx, store, "ds", by, "out")
			return err
		}
		puts := eachPutFault(t, base, func(store agd.BlobStore) error {
			return sort(context.Background(), store)
		})
		chunks := len(ds.Manifest.Chunks)
		if want := chunks*len(ds.Manifest.Columns) + 1; puts != want {
			t.Fatalf("by %s: the sort put %d blobs, want %d (column chunks, manifest)", by, puts, want)
		}

		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		mem := testutil.CopyStore(t, base)
		err := sort(ctx, &cancelOnPut{BlobStore: mem, substr: "out/chunk-000003", cancel: cancel})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("by %s: sort cancelled mid-merge returned %v", by, err)
		}
		testutil.SameBlobs(t, "after a mid-merge cancel", testutil.Blobs(t, mem, ""), testutil.Blobs(t, base, ""))
		waitGoroutines(t, before)
	}
}

// TestAlignFailureLeavesNothing fails every Put of a one-shot Align in turn —
// each results blob, the manifest that registers the column — and cancels
// one midway: the results blobs already stored go again, so the dataset is
// the unaligned one it was.
func TestAlignFailureLeavesNothing(t *testing.T) {
	aligned := agd.NewMemStore()
	f := testutil.Build(t, aligned, "ds", testutil.Config{GenomeSize: 60_000, NumReads: 120, ReadLen: 60, ChunkSize: 20, Seed: 9})
	base := unaligned(t, aligned)
	align := func(ctx context.Context, store agd.BlobStore) error {
		_, _, err := Align(ctx, store, "ds", f.Index, AlignOptions{})
		return err
	}
	puts := eachPutFault(t, base, func(store agd.BlobStore) error {
		return align(context.Background(), store)
	})
	if want := f.Dataset.NumChunks() + 1; puts != want {
		t.Fatalf("the align put %d blobs, want %d (results chunks, manifest)", puts, want)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	mem := testutil.CopyStore(t, base)
	err := align(ctx, &cancelOnPut{BlobStore: mem, substr: "ds/chunk-000003.results", cancel: cancel})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("align cancelled midway returned %v", err)
	}
	testutil.SameBlobs(t, "after a cancel midway", testutil.Blobs(t, mem, ""), testutil.Blobs(t, base, ""))
	waitGoroutines(t, before)
}

// TestFilterFailureLeavesNothing fails every Put of a filter pass in turn —
// output column blobs stored row by row and whole, and the manifest — and
// runs a predicate nothing matches.
func TestFilterFailureLeavesNothing(t *testing.T) {
	base := agd.NewMemStore()
	writeKeyFixture(t, base, "ds", "ragged")
	ctx := context.Background()
	for name, pred := range map[string]FilterPredicate{
		"some rows": FilterMinMapQ(20),                          // ragged groups: the sink re-chunks row by row
		"every row": func(*agd.ResultView) bool { return true }, // whole groups
	} {
		puts := eachPutFault(t, base, func(store agd.BlobStore) error {
			_, _, err := Filter(ctx, store, "ds", pred, "out")
			return err
		})
		if puts < 2*4+1 {
			t.Fatalf("%s: the filter put only %d blobs", name, puts)
		}
	}
	before := runtime.NumGoroutine()
	mem := testutil.CopyStore(t, base)
	if _, _, err := Filter(ctx, mem, "ds", FilterRegion(1<<41, 1<<41+1), "out"); err == nil || !strings.Contains(err.Error(), "no records of") || !errors.Is(err, agd.ErrNoRecords) {
		t.Fatalf("a filter nothing matches returned %v", err)
	}
	testutil.SameBlobs(t, "after an empty filter", testutil.Blobs(t, mem, ""), testutil.Blobs(t, base, ""))
	waitGoroutines(t, before)
}

// TestImportFailureLeavesNothing fails every Put of a FASTQ import and of a
// SAM import in turn, and stops a SAM import at a malformed record three
// chunks in, with the first chunks' blobs already stored or being stored.
func TestImportFailureLeavesNothing(t *testing.T) {
	ctx := context.Background()
	src := agd.NewMemStore()
	writeKeyFixture(t, src, "ds", "ragged")
	var fq, sam bytes.Buffer
	if _, err := ExportFASTQ(ctx, src, "ds", &fq); err != nil {
		t.Fatal(err)
	}
	if _, err := ExportSAM(ctx, src, "ds", &sam); err != nil {
		t.Fatal(err)
	}
	puts := eachPutFault(t, agd.NewMemStore(), func(store agd.BlobStore) error {
		_, _, err := ImportFASTQ(ctx, store, "out", bytes.NewReader(fq.Bytes()), nil, 20)
		return err
	})
	if puts != 12*3+1 {
		t.Fatalf("the FASTQ import put %d blobs, want %d", puts, 12*3+1)
	}
	puts = eachPutFault(t, agd.NewMemStore(), func(store agd.BlobStore) error {
		_, _, err := ImportSAM(ctx, store, "out", bytes.NewReader(sam.Bytes()), 20)
		return err
	})
	if puts != 12*4+1 {
		t.Fatalf("the SAM import put %d blobs, want %d", puts, 12*4+1)
	}

	// Record 3·20+1 loses its last four fields.
	lines := strings.SplitAfter(sam.String(), "\n")
	header := 0
	for strings.HasPrefix(lines[header], "@") {
		header++
	}
	bad := header + 3*20
	lines[bad] = strings.Join(strings.Split(lines[bad], "\t")[:7], "\t") + "\n"
	before := runtime.NumGoroutine()
	mem := agd.NewMemStore()
	_, n, err := ImportSAM(ctx, mem, "out", strings.NewReader(strings.Join(lines, "")), 20)
	if err == nil || n != 3*20 || !strings.Contains(err.Error(), "only 7 fields") {
		t.Fatalf("a SAM import with a short record %d returned %d records, error %v", 3*20+1, n, err)
	}
	if left := testutil.Blobs(t, mem, ""); len(left) != 0 {
		t.Fatalf("the failed SAM import left %d blobs", len(left))
	}
	waitGoroutines(t, before)
}

// TestWriteRefusesItsSource: a Write naming its own Read source would store
// over the blobs its source still reads, and a write that fails deletes
// every blob it stored, which are the source's own chunks. Validate refuses
// the graph, single-node and distributed, before a blob is touched: with
// the Put of one chunk's metadata failing, the source reads back byte for
// byte.
func TestWriteRefusesItsSource(t *testing.T) {
	ctx := context.Background()
	store, _ := pipelineFixture(t, "ds")
	want := testutil.Blobs(t, store, "")
	var fq bytes.Buffer
	if _, err := ExportFASTQ(ctx, store, "ds", &fq); err != nil {
		t.Fatal(err)
	}
	puts := len(store.putNames())
	faulty := storage.NewFaultStore(store, storage.FaultPolicy{
		Keys: []storage.KeyFaults{{Substr: "ds/chunk-000001.metadata", Writes: storage.OpFaults{ErrProb: 1}}},
	})
	defer faulty.Close()
	sess := NewSession(faulty, SessionOptions{})
	defer sess.Close()
	for _, nodes := range []int{0, 2} {
		_, err := sess.Read("ds").Write("ds").Distributed(nodes).Run(ctx)
		if !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), `Write cannot replace its source "ds"`) {
			t.Errorf("Distributed(%d): error %v, want the refusal of a Write naming its source", nodes, err)
		}
	}
	if n := len(store.putNames()); n != puts {
		t.Errorf("the refused runs put %d blobs", n-puts)
	}
	testutil.SameBlobs(t, "after the refused runs", testutil.Blobs(t, store, ""), want)
	var back bytes.Buffer
	if _, err := ExportFASTQ(ctx, store, "ds", &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), fq.Bytes()) {
		t.Errorf("the source reads back %d FASTQ bytes, %d before", back.Len(), fq.Len())
	}
}
