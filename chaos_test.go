package persona

// Chaos suite: fused pipelines driven through a fault-injecting store behind
// the resilience layer must produce byte-identical output to a fault-free
// run (transient faults), or fail with a clean classified error naming the
// corrupt chunk (permanent faults) — never wrong output, never leaked pooled
// chunks. Seeds are fixed so CI replays the same fault schedules.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"persona/internal/agd"
	"persona/internal/formats/fastq"
	"persona/internal/reads"
	"persona/internal/storage"
)

// chaosImport imports the standard simulated read set into store as dataset
// name, returning the genome.
func chaosImport(t testing.TB, store Store, name string) *Genome {
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
	if _, _, err := ImportFASTQ(context.Background(), store, name, strings.NewReader(fq.String()), RefSeqs(g), 100); err != nil {
		t.Fatal(err)
	}
	return g
}

// runWGS runs the fused whole-genome preprocessing pipeline over a session.
func runWGS(t testing.TB, sess *Session, dataset string, idx *Index) (*PipelineReport, []byte) {
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
	return report, sam.Bytes()
}

// checkNoLeak asserts every pooled chunk went back to the session pool.
func checkNoLeak(t testing.TB, sess *Session) {
	t.Helper()
	size, free := sess.PoolStats()
	if size != free {
		t.Fatalf("chunk pool leak: %d of %d chunks not returned", size-free, size)
	}
}

// TestChaosFusedPipelineTransientFaults: under >=10% injected transient read
// errors (plus latency spikes and flaky writes), the fused WGS pipeline must
// produce byte-identical
// SAM to the fault-free run, for each seed of the fixed matrix.
func TestChaosFusedPipelineTransientFaults(t *testing.T) {
	cleanStore := NewMemStore()
	g := chaosImport(t, cleanStore, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	cleanSess := NewSession(cleanStore, SessionOptions{})
	defer cleanSess.Close()
	cleanReport, cleanSAM := runWGS(t, cleanSess, "ds", idx)
	if cleanReport.Storage != nil {
		t.Fatal("plain store reported resilience stats")
	}
	checkNoLeak(t, cleanSess)

	for _, seed := range []int64{11, 22, 33} {
		seed := seed
		t.Run(string(rune('A'+seed%26)), func(t *testing.T) {
			inner := NewMemStore()
			chaosImport(t, inner, "ds")
			faulty := NewFaultStore(inner, FaultPolicy{
				Seed:   seed,
				Reads:  OpFaults{ErrProb: 0.15, LatencyProb: 0.05, Latency: 200 * time.Microsecond},
				Writes: OpFaults{ErrProb: 0.1},
			})
			defer faulty.Close()
			resilient := NewRetryStore(faulty, RetryPolicy{
				MaxAttempts: 8, BaseDelay: 100 * time.Microsecond, MaxDelay: 2 * time.Millisecond,
			})
			sess := NewSession(resilient, SessionOptions{})
			defer sess.Close()

			report, sam := runWGS(t, sess, "ds", idx)
			if !bytes.Equal(sam, cleanSAM) {
				t.Fatalf("seed %d: SAM differs from fault-free run (%d vs %d bytes)", seed, len(sam), len(cleanSAM))
			}
			if faulty.Stats().InjectedErrors == 0 {
				t.Fatalf("seed %d: no faults injected; the chaos run is vacuous", seed)
			}
			if report.Storage == nil || report.Storage.Retries == 0 {
				t.Fatalf("seed %d: report.Storage = %+v, want recorded retries", seed, report.Storage)
			}
			checkNoLeak(t, sess)
		})
	}
}

// TestChaosCorruptChunkFailsClean: a targeted corrupt bases chunk must
// surface as a classified permanent error naming the chunk — retries must
// not mask it, and the pipeline must never emit wrong output.
func TestChaosCorruptChunkFailsClean(t *testing.T) {
	inner := NewMemStore()
	g := chaosImport(t, inner, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDataset(inner, "ds")
	if err != nil {
		t.Fatal(err)
	}
	target := ds.Manifest.ChunkBlobPath(3, agd.ColBases)

	faulty := NewFaultStore(inner, FaultPolicy{
		Seed: 99,
		Keys: []KeyFaults{{Substr: target, Reads: OpFaults{CorruptProb: 1}}},
	})
	defer faulty.Close()
	resilient := NewRetryStore(faulty, RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond})
	sess := NewSession(resilient, SessionOptions{})
	defer sess.Close()

	var sam bytes.Buffer
	_, err = sess.Read("ds").
		Align(idx, AlignOptions{}).
		Sort(ByLocation).
		MarkDuplicates().
		ExportSAM(&sam).
		Run(context.Background())
	if err == nil {
		t.Fatal("pipeline over a corrupt chunk succeeded")
	}
	if !errors.Is(err, agd.ErrChecksum) {
		t.Fatalf("err = %v, want a checksum-classified error", err)
	}
	if !strings.Contains(err.Error(), target) {
		t.Fatalf("err = %v, does not name the corrupt chunk %q", err, target)
	}
	if storage.IsTransient(err) {
		t.Fatal("corruption classified transient")
	}
	checkNoLeak(t, sess)
}

// TestChaosDistributedAlignWithSession: the session-level distributed align
// over a resilient faulty store matches the clean run's alignment results
// and surfaces retry activity via Session.ResilienceStats.
func TestChaosDistributedAlignWithSession(t *testing.T) {
	cleanStore := NewMemStore()
	g := chaosImport(t, cleanStore, "ds")
	cleanSess := NewSession(cleanStore, SessionOptions{})
	defer cleanSess.Close()
	if _, _, err := cleanSess.AlignDistributed(context.Background(), "ds", g, 2); err != nil {
		t.Fatal(err)
	}
	var cleanSAM bytes.Buffer
	if _, err := ExportSAM(context.Background(), cleanStore, "ds", &cleanSAM); err != nil {
		t.Fatal(err)
	}

	inner := NewMemStore()
	chaosImport(t, inner, "ds")
	// The distributed read path touches only a handful of blobs (one bases
	// chunk per manifest entry), so the error rate is high to guarantee the
	// fixed seed injects at least one fault into the run.
	faulty := NewFaultStore(inner, FaultPolicy{
		Seed:  44,
		Reads: OpFaults{ErrProb: 0.35},
	})
	defer faulty.Close()
	resilient := NewRetryStore(faulty, RetryPolicy{
		MaxAttempts: 8, BaseDelay: 100 * time.Microsecond, MaxDelay: 2 * time.Millisecond,
	})
	sess := NewSession(resilient, SessionOptions{})
	defer sess.Close()
	if _, ok := sess.ResilienceStats(); !ok {
		t.Fatal("resilient store not detected by the session")
	}
	report, m, err := sess.AlignDistributed(context.Background(), "ds", g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasColumn(agd.ColResults) {
		t.Fatal("results column not registered")
	}
	if report.Degraded {
		t.Fatal("transient faults degraded the run")
	}
	var sam bytes.Buffer
	if _, err := ExportSAM(context.Background(), inner, "ds", &sam); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sam.Bytes(), cleanSAM.Bytes()) {
		t.Fatal("distributed alignment under faults differs from the clean run")
	}
	if faulty.Stats().InjectedErrors == 0 {
		t.Fatal("no faults injected; the chaos run is vacuous")
	}
	stats, _ := sess.ResilienceStats()
	if stats.Retries == 0 {
		t.Fatal("no retries recorded")
	}
}
