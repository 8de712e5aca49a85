package storage

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"persona/internal/agd"
	"persona/internal/testutil"
)

// TestLatencyStoreDelaysAllReadPaths checks the wrapper's contract: sync
// Gets pay the delay each, async batches through agd.AsyncOf pay it once
// (issued concurrently, overlapped), range reads through agd.RangeOf pay it,
// and writes pay nothing.
func TestLatencyStoreDelaysAllReadPaths(t *testing.T) {
	const d = 30 * time.Millisecond
	mem := NewMem()
	ls := WithLatency(mem, d)
	as, rs := agd.AsyncOf(ls), agd.RangeOf(ls)
	for i := 0; i < 8; i++ {
		if err := ls.Put(string(rune('a'+i)), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}

	// Sync Get pays the full delay.
	t0 := time.Now()
	if _, err := ls.Get("a"); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(t0); e < d {
		t.Fatalf("sync Get took %v, want >= %v", e, d)
	}

	// A batch of async reads overlaps: 8 reads cost ~one delay, not 8.
	t0 = time.Now()
	futs := as.GetBatch([]string{"a", "b", "c", "d", "e", "f", "g", "h"})
	for _, f := range futs {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	e := time.Since(t0)
	if e < d {
		t.Fatalf("async batch completed in %v — the delay was not applied to async reads", e)
	}
	if e > 6*d {
		t.Fatalf("async batch took %v: reads serialized instead of overlapping one %v delay", e, d)
	}

	// GetAsync alone also pays the delay.
	t0 = time.Now()
	if _, err := as.GetAsync("a").Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(t0); e < d {
		t.Fatalf("GetAsync took %v, want >= %v", e, d)
	}

	// Range reads pay the delay (one per call).
	t0 = time.Now()
	if _, err := rs.GetRange("a", 0, 3); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(t0); e < d {
		t.Fatalf("GetRange took %v, want >= %v", e, d)
	}

	// Errors propagate through the adapter's future.
	if _, err := as.GetAsync("missing").Wait(context.Background()); err == nil {
		t.Fatal("missing blob resolved without error")
	}

	// Writes and lists are not delayed (allow generous scheduling slack but
	// far below the read delay).
	t0 = time.Now()
	for i := 0; i < 20; i++ {
		if err := ls.Put("w", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := ls.List(""); err != nil {
			t.Fatal(err)
		}
	}
	if e := time.Since(t0); e > d {
		t.Fatalf("20 Put+List rounds took %v — writes appear to pay the read delay", e)
	}
}

// TestRetryStoreReadProfile checks the latency ring's throughput profile:
// reads through a latency-wrapped store must report a median latency at
// least the injected delay and a sane MB/s figure.
func TestRetryStoreReadProfile(t *testing.T) {
	const d = 10 * time.Millisecond
	mem := NewMem()
	payload := make([]byte, 64<<10)
	if err := mem.Put("blob", payload); err != nil {
		t.Fatal(err)
	}
	rs := NewRetryStore(WithLatency(mem, d), RetryPolicy{})
	if _, _, n := rs.ReadProfile(); n != 0 {
		t.Fatalf("unprofiled store reports %d samples", n)
	}
	for i := 0; i < 8; i++ {
		if _, err := rs.Get("blob"); err != nil {
			t.Fatal(err)
		}
	}
	lat, mbps, n := rs.ReadProfile()
	if n != 8 {
		t.Fatalf("samples = %d, want 8", n)
	}
	if lat < d {
		t.Fatalf("median latency %v below injected %v", lat, d)
	}
	if mbps <= 0 {
		t.Fatalf("throughput = %.2f MB/s, want > 0", mbps)
	}
	// 64 KiB per ~10ms read is at most ~6.5 MB/s; the profile must be in
	// that ballpark, not the memory-bandwidth figure.
	if mbps > 64 {
		t.Fatalf("throughput %.2f MB/s ignores the injected latency", mbps)
	}
}

// TestFaultStoreCorruptBlobNeverCached wires a chunk cache over a FaultStore
// that corrupts one chunk blob's reads: the checksum rejects the blob every
// time, the cache never retains it, and untouched columns still cache and
// serve hits.
func TestFaultStoreCorruptBlobNeverCached(t *testing.T) {
	mem := NewMem()
	// Build a small dataset directly with agd.
	rows := make([][][]byte, 30)
	for i := range rows {
		rows[i] = [][]byte{[]byte("ACGTACGTAC"), []byte("IIIIIIIIII"), []byte("r")}
	}
	if _, err := testutil.WriteRows(mem, "ds", readMeta(10), rows); err != nil {
		t.Fatal(err)
	}

	fs := NewFaultStore(mem, FaultPolicy{
		Seed: 3,
		Keys: []KeyFaults{{
			Substr: "chunk-000001.bases",
			Reads:  OpFaults{CorruptProb: 1},
		}},
	})
	defer fs.Close()
	ds, err := agd.Open(fs, "ds")
	if err != nil {
		t.Fatal(err)
	}
	cache := agd.NewChunkCache(1 << 20)
	readAll := func() error {
		st, err := ds.Groups(agd.StreamOptions{Cache: cache})
		if err != nil {
			return err
		}
		defer st.Close()
		for {
			sc, err := st.Next(context.Background())
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			sc.Release()
		}
	}
	for pass := 0; pass < 3; pass++ {
		err := readAll()
		if err == nil {
			t.Fatalf("pass %d: corrupted read succeeded", pass)
		}
		if !errors.Is(err, agd.ErrCorrupt) && !errors.Is(err, agd.ErrChecksum) {
			t.Fatalf("pass %d: error %v, want corruption", pass, err)
		}
	}
	s := cache.Stats()
	if s.FillErrors < 3 {
		t.Fatalf("fill errors = %d, want one per pass", s.FillErrors)
	}
	// The corrupt blob must not be resident; resident entries must decode to
	// the expected record count (i.e. only healthy columns cached).
	probe, fill := cache.Lookup("ds/chunk-000001.bases")
	if !fill {
		t.Fatal("corrupt blob is resident in the cache")
	}
	cache.Abort(probe, nil)
	cache.Unpin(probe)
	if stats := fs.Stats(); stats.CorruptedReads == 0 {
		t.Fatal("fault store injected no corruption — test is vacuous")
	}
}

// TestLatencyStoreConcurrentUse shakes the async adapter over the wrapper
// under -race: concurrent batches against one agd.AsyncOf view, with
// waiters on every future.
func TestLatencyStoreConcurrentUse(t *testing.T) {
	mem := NewMem()
	for _, n := range []string{"x", "y", "z"} {
		if err := mem.Put(n, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	ls := agd.AsyncOf(WithLatency(mem, time.Millisecond))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				futs := ls.GetBatch([]string{"x", "y", "z"})
				for _, f := range futs {
					if _, err := f.Wait(context.Background()); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
