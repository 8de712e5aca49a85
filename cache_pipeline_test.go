package persona

// Integration tests for storage tiering: the decoded-chunk cache must be
// invisible to pipeline output (byte-identical SAM with the cache on or
// off, serial or parallel), warm runs must be served from the cache, and
// the sort's spills must stay raw behind a high-latency store.

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"persona/internal/storage"
)

// runFusedSAM runs the canonical fused pipeline on an existing session and
// returns the exported SAM bytes plus the report.
func runFusedSAM(t *testing.T, sess *Session, dataset string, idx *Index) ([]byte, *PipelineReport) {
	t.Helper()
	var sam bytes.Buffer
	report, err := sess.Read(dataset).
		Align(idx, AlignOptions{}).
		Sort(ByLocation).
		MarkDuplicates().
		ExportSAM(&sam).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sam.Bytes(), report
}

// TestPipelineCacheEquivalence is the cache-transparency acceptance check:
// the fused pipeline must produce byte-identical output with the chunk
// cache disabled and enabled (cold and warm), at GOMAXPROCS 1 and 4.
func TestPipelineCacheEquivalence(t *testing.T) {
	store, g := pipelineFixture(t, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)

		off := NewSession(store, SessionOptions{CacheBytes: -1})
		samOff, repOff := runFusedSAM(t, off, "ds", idx)
		if repOff.Cache != nil {
			t.Fatalf("GOMAXPROCS=%d: disabled cache still reported stats %+v", procs, repOff.Cache)
		}
		off.Close()

		on := NewSession(store, SessionOptions{})
		samCold, repCold := runFusedSAM(t, on, "ds", idx)
		samWarm, repWarm := runFusedSAM(t, on, "ds", idx)
		on.Close()

		runtime.GOMAXPROCS(prev)

		if !bytes.Equal(samOff, samCold) {
			t.Fatalf("GOMAXPROCS=%d: cold cached output differs from uncached (%d vs %d bytes)",
				procs, len(samCold), len(samOff))
		}
		if !bytes.Equal(samOff, samWarm) {
			t.Fatalf("GOMAXPROCS=%d: warm cached output differs from uncached (%d vs %d bytes)",
				procs, len(samWarm), len(samOff))
		}
		if repCold == nil || repCold.Cache == nil || repCold.Cache.Misses == 0 {
			t.Fatalf("GOMAXPROCS=%d: cold run reported no cache misses: %+v", procs, repCold.Cache)
		}
		if repWarm.Cache == nil || repWarm.Cache.Misses != 0 {
			t.Fatalf("GOMAXPROCS=%d: warm run missed the cache: %+v", procs, repWarm.Cache)
		}
		if repWarm.Cache.Hits != repCold.Cache.Misses {
			t.Fatalf("GOMAXPROCS=%d: warm hits %d != cold misses %d",
				procs, repWarm.Cache.Hits, repCold.Cache.Misses)
		}
	}
}

// TestPipelineWarmCacheStats checks the session-level accounting the job
// server exposes: after a cold and a warm run the cumulative stats must be
// the sum of the per-run deltas, and FlushCache must make the next run cold
// again.
func TestPipelineWarmCacheStats(t *testing.T) {
	store, g := pipelineFixture(t, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()

	_, cold := runFusedSAM(t, sess, "ds", idx)
	_, warm := runFusedSAM(t, sess, "ds", idx)

	total, ok := sess.CacheStats()
	if !ok {
		t.Fatal("session has no cache")
	}
	if total.Hits != cold.Cache.Hits+warm.Cache.Hits ||
		total.Misses != cold.Cache.Misses+warm.Cache.Misses {
		t.Fatalf("cumulative stats %+v don't sum the run deltas (%+v, %+v)",
			total, cold.Cache, warm.Cache)
	}
	if total.Bytes <= 0 || total.Entries <= 0 {
		t.Fatalf("no resident entries after warm run: %+v", total)
	}

	entries, bytesFlushed := sess.FlushCache()
	if entries != total.Entries || bytesFlushed != total.Bytes {
		t.Fatalf("FlushCache dropped (%d, %d), stats said (%d, %d)",
			entries, bytesFlushed, total.Entries, total.Bytes)
	}
	_, recold := runFusedSAM(t, sess, "ds", idx)
	if recold.Cache.Misses == 0 || recold.Cache.Hits != 0 {
		t.Fatalf("post-flush run was not cold: %+v", recold.Cache)
	}
}

// TestPipelineSpillsRaw pins that sort spills are stored raw whatever the
// store: the same pipeline behind a 25 ms store and over the plain store
// spills the same number of runs and stored bytes, and writes the same SAM.
func TestPipelineSpillsRaw(t *testing.T) {
	store, g := pipelineFixture(t, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}

	run := func(s storage.Store) ([]byte, *SpillReport) {
		sess := NewSession(s, SessionOptions{})
		defer sess.Close()
		sam, rep := runFusedSAM(t, sess, "ds", idx)
		if rep.Spill == nil || rep.Spill.Runs == 0 {
			t.Fatalf("sort spilled no runs: %+v", rep.Spill)
		}
		return sam, rep.Spill
	}

	remoteSAM, remote := run(storage.NewRetryStore(
		storage.WithLatency(store, 25*time.Millisecond), storage.RetryPolicy{}))
	plainSAM, plain := run(store)
	if *remote != *plain {
		t.Fatalf("spills behind the 25 ms store %+v, over the plain store %+v", *remote, *plain)
	}
	if !bytes.Equal(remoteSAM, plainSAM) {
		t.Fatal("the 25 ms store changed pipeline output")
	}
}
