package persona

// Distributed fused-pipeline tests: golden byte-identity between the
// single-node pumped scheduler and the cluster scheduler at every node
// count, Write-sink equivalence, degraded completion when a worker dies
// mid-shuffle, and stage-shape validation.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"persona/internal/agd"
	"persona/internal/cluster"
	"persona/internal/formats/fastq"
	"persona/internal/reads"
	"persona/internal/testutil"
)

// distFixture is pipelineFixture with a controllable import chunk size, so
// tests can force multi-batch map/shuffle phases (one map batch covers
// eight chunks).
func distFixture(t testing.TB, chunkSize int, names ...string) (*countingStore, *Genome) {
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
		if _, _, err := ImportFASTQ(context.Background(), store, name, strings.NewReader(fq.String()), RefSeqs(g), chunkSize); err != nil {
			t.Fatal(err)
		}
	}
	return store, g
}

// leakedClusterBlobs returns every blob still parked under the distributed
// scheduler's temp namespace.
func leakedClusterBlobs(t *testing.T, store *countingStore) []string {
	t.Helper()
	names, err := store.List("cluster/")
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDistributedMatchesSingleNode is the distributed golden check: the
// full fused graph (Read → Align → Sort → MarkDup → Filter → Export) must
// produce byte-identical SAM and BAM whether it runs single-node pumped or
// distributed across 1, 2 or 4 worker nodes — and must sweep every temp
// blob it parked under cluster/.
func TestDistributedMatchesSingleNode(t *testing.T) {
	ctx := context.Background()
	store, g := distFixture(t, 50, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()

	build := func(out *bytes.Buffer, bam bool) *Pipeline {
		p := sess.Read("ds").
			Align(idx, AlignOptions{}).
			Sort(ByLocation).
			MarkDuplicates().
			Filter(FilterMappedOnly())
		if bam {
			return p.ExportBAM(out)
		}
		return p.ExportSAM(out)
	}

	var goldSAM, goldBAM bytes.Buffer
	goldReport, err := build(&goldSAM, false).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := build(&goldBAM, true).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if goldSAM.Len() == 0 || goldBAM.Len() == 0 {
		t.Fatal("golden run exported nothing")
	}

	for _, nodes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			var sam, bam bytes.Buffer
			report, err := build(&sam, false).Distributed(nodes).Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := build(&bam, true).Distributed(nodes).Run(ctx); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sam.Bytes(), goldSAM.Bytes()) {
				t.Errorf("distributed SAM differs from single-node (%d vs %d bytes)", sam.Len(), goldSAM.Len())
			}
			if !bytes.Equal(bam.Bytes(), goldBAM.Bytes()) {
				t.Errorf("distributed BAM differs from single-node (%d vs %d bytes)", bam.Len(), goldBAM.Len())
			}
			c := report.Cluster
			if c == nil {
				t.Fatal("distributed run has no cluster report")
			}
			if c.Partitions != nodes {
				t.Errorf("Partitions = %d, want %d", c.Partitions, nodes)
			}
			if len(c.Nodes) != nodes {
				t.Errorf("node reports = %d, want %d", len(c.Nodes), nodes)
			}
			if c.Degraded || c.FailedNodes != 0 {
				t.Errorf("healthy run reported degraded (failed=%d)", c.FailedNodes)
			}
			if c.ShuffleBytes <= 0 {
				t.Errorf("ShuffleBytes = %d, want > 0", c.ShuffleBytes)
			}
			if nodes > 1 && c.PartitionSkew < 1.0 {
				t.Errorf("PartitionSkew = %v, want >= 1", c.PartitionSkew)
			}
			if report.Records != goldReport.Records {
				t.Errorf("Records = %d, want %d", report.Records, goldReport.Records)
			}
			if report.Dups != goldReport.Dups {
				t.Errorf("Dups = %+v, want %+v", report.Dups, goldReport.Dups)
			}
			if report.Filtered != goldReport.Filtered {
				t.Errorf("Filtered = %+v, want %+v", report.Filtered, goldReport.Filtered)
			}
			if leaked := leakedClusterBlobs(t, store); len(leaked) != 0 {
				t.Errorf("leaked %d cluster temp blobs, e.g. %s", len(leaked), leaked[0])
			}
		})
	}
}

// TestDistributedWriteSink checks the Write sink path: a distributed run
// materializing an output dataset must hold the same record sequence as the
// single-node run's dataset (chunk boundaries may differ at partition
// edges), with the manifest remembered in the session. On one node the one
// partition is the dataset: its reduce is the single-node pipeline's tail, so
// it must write the single-node run's chunk blobs, byte for byte.
func TestDistributedWriteSink(t *testing.T) {
	ctx := context.Background()
	store, g := distFixture(t, 50, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()

	gold, err := sess.Read("ds").Align(idx, AlignOptions{}).Sort(ByLocation).MarkDuplicates().Write("gold.out").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var goldSAM bytes.Buffer
	if _, err := ExportSAM(ctx, store, "gold.out", &goldSAM); err != nil {
		t.Fatal(err)
	}
	// chunks returns a dataset's chunk blobs by their name under prefix.
	chunks := func(prefix string) map[string][]byte {
		out := make(map[string][]byte)
		for name, blob := range testutil.Blobs(t, store, prefix+"chunk-") {
			out[strings.TrimPrefix(name, prefix)] = blob
		}
		return out
	}
	for _, nodes := range []int{1, 2} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			out := fmt.Sprintf("dist%d.out", nodes)
			report, err := sess.Read("ds").Align(idx, AlignOptions{}).Sort(ByLocation).MarkDuplicates().Write(out).Distributed(nodes).Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if report.Manifest == nil {
				t.Fatal("distributed Write returned no manifest")
			}
			if report.Manifest.SortedBy != "location" {
				t.Errorf("SortedBy = %q, want location", report.Manifest.SortedBy)
			}
			if c := report.Cluster; c.TotalBases != gold.Align.Bases || c.BasesPerSec <= 0 {
				t.Errorf("cluster report: %d bases at %.0f bases/s, want the %d bases aligned", c.TotalBases, c.BasesPerSec, gold.Align.Bases)
			}
			var distSAM bytes.Buffer
			if _, err := ExportSAM(ctx, store, out, &distSAM); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(goldSAM.Bytes(), distSAM.Bytes()) {
				t.Errorf("distributed Write dataset differs from single-node (%d vs %d SAM bytes)", distSAM.Len(), goldSAM.Len())
			}
			if nodes == 1 {
				testutil.SameBlobs(t, "partition 0 of a one-node run", chunks(out+"/part0/"), chunks("gold.out/"))
			}
			if leaked := leakedClusterBlobs(t, store); len(leaked) != 0 {
				t.Errorf("leaked %d cluster temp blobs, e.g. %s", len(leaked), leaked[0])
			}
		})
	}
}

// TestDistributedEmptyPartition: a filter that keeps only the first tenth of
// the genome drops every row of the upper of two partitions. Its reduce must
// complete with no chunk and no blob, and the run with the single-node output.
func TestDistributedEmptyPartition(t *testing.T) {
	ctx := context.Background()
	store, g := distFixture(t, 50, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()

	build := func() *Pipeline {
		return sess.Read("ds").Align(idx, AlignOptions{}).Sort(ByLocation).MarkDuplicates().Filter(FilterRegion(0, 15_000))
	}
	if _, err := build().Write("gold.out").Run(ctx); err != nil {
		t.Fatal(err)
	}
	report, err := build().Write("dist.out").Distributed(2).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Records == 0 || report.Filtered.Kept != report.Records {
		t.Fatalf("Records = %d, Filtered = %+v", report.Records, report.Filtered)
	}
	if names, err := store.List("dist.out/part1/"); err != nil || len(names) != 0 {
		t.Errorf("the emptied partition left %d blobs (error %v), e.g. %v", len(names), err, names)
	}
	for _, c := range report.Manifest.Chunks {
		if !strings.HasPrefix(c.Path, "dist.out/part0/") {
			t.Errorf("manifest names chunk %q outside partition 0", c.Path)
		}
	}
	var goldSAM, distSAM bytes.Buffer
	if _, err := ExportSAM(ctx, store, "gold.out", &goldSAM); err != nil {
		t.Fatal(err)
	}
	if _, err := ExportSAM(ctx, store, "dist.out", &distSAM); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(goldSAM.Bytes(), distSAM.Bytes()) {
		t.Errorf("distributed output differs from single-node (%d vs %d SAM bytes)", distSAM.Len(), goldSAM.Len())
	}
}

// TestSessionAlignDistributedTwice: a second distributed align of a dataset
// is refused before it reaches the results column's registration, so nothing
// ever registers that column without probing the blobs the workers wrote.
func TestSessionAlignDistributedTwice(t *testing.T) {
	ctx := context.Background()
	store, g := distFixture(t, 50, "ds")
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()
	if _, _, err := sess.AlignDistributed(ctx, "ds", g, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.AlignDistributed(ctx, "ds", g, 2); err == nil || !strings.Contains(err.Error(), "already aligned") {
		t.Fatalf("second AlignDistributed: error %v, want \"already aligned\"", err)
	}
}

// TestDistributedWorkerDeathMidShuffle kills one of two workers on its
// first shuffle task (fixed seeds, deterministic data). The run must
// complete degraded on the survivor with byte-identical output, reassigned
// leases in the report, and zero leaked temp blobs.
func TestDistributedWorkerDeathMidShuffle(t *testing.T) {
	ctx := context.Background()
	store, g := distFixture(t, 10, "ds") // 80 chunks → 10 map/shuffle tasks
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()

	build := func(out *bytes.Buffer) *Pipeline {
		return sess.Read("ds").
			Align(idx, AlignOptions{}).
			Sort(ByLocation).
			MarkDuplicates().
			ExportSAM(out)
	}
	var gold bytes.Buffer
	if _, err := build(&gold).Run(ctx); err != nil {
		t.Fatal(err)
	}

	var sam bytes.Buffer
	p := build(&sam).Distributed(2)
	p.distTune = func(cfg *cluster.Config) {
		cfg.NodeFaults = map[int]int{1: 0} // node 1 dies on its first…
		cfg.FaultPhase = 1                 // …shuffle task
		cfg.HeartbeatTimeout = 200 * 1e6   // 200ms: reassign dead leases fast
	}
	report, err := p.Run(ctx)
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	c := report.Cluster
	if c == nil {
		t.Fatal("no cluster report")
	}
	if !c.Degraded || c.FailedNodes != 1 {
		t.Errorf("Degraded=%v FailedNodes=%d, want degraded with 1 failed node", c.Degraded, c.FailedNodes)
	}
	if c.Reassigned == 0 {
		t.Error("Reassigned = 0, want the dead worker's leases re-dealt")
	}
	if !bytes.Equal(sam.Bytes(), gold.Bytes()) {
		t.Errorf("degraded output differs from single-node (%d vs %d bytes)", sam.Len(), gold.Len())
	}
	if leaked := leakedClusterBlobs(t, store); len(leaked) != 0 {
		t.Errorf("leaked %d cluster temp blobs, e.g. %s", len(leaked), leaked[0])
	}
}

// TestDistributedShapeValidation: the distributed scheduler accepts only
// the canonical fused shape.
func TestDistributedShapeValidation(t *testing.T) {
	ctx := context.Background()
	store, _ := pipelineFixture(t, "ds")
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()

	// No Sort: the shuffle is the sort, so the shape is rejected.
	var buf bytes.Buffer
	if _, err := sess.Read("ds").ExportFASTQ(&buf).Distributed(2).Run(ctx); err == nil {
		t.Error("sortless distributed pipeline did not error")
	}
	// ImportFASTQ source: distributed runs need a chunked dataset to deal.
	if _, err := sess.ImportFASTQ(strings.NewReader(""), nil, 0).Sort(ByMetadata).ExportFASTQ(&buf).Distributed(2).Run(ctx); err == nil {
		t.Error("ImportFASTQ-source distributed pipeline did not error")
	}
	// Sort(ByLocation) without alignment results is rejected by planning.
	if _, err := sess.Read("ds").Sort(ByLocation).ExportFASTQ(&buf).Distributed(2).Run(ctx); err == nil {
		t.Error("location sort of unaligned dataset did not error")
	}
}

// TestDistributedMetadataSort covers the ByMetadata key (full-bytes
// tiebreaks cross the wire inside samples) without alignment: Read → Sort →
// ExportFASTQ, distributed vs single-node.
func TestDistributedMetadataSort(t *testing.T) {
	ctx := context.Background()
	store, _ := distFixture(t, 50, "ds")
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()

	var gold, dist bytes.Buffer
	if _, err := sess.Read("ds").Sort(ByMetadata).ExportFASTQ(&gold).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Read("ds").Sort(ByMetadata).ExportFASTQ(&dist).Distributed(3).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gold.Bytes(), dist.Bytes()) {
		t.Errorf("metadata-sorted FASTQ differs (%d vs %d bytes)", dist.Len(), gold.Len())
	}
}

// chunkCompression is the compression a chunk blob's header records.
func chunkCompression(t *testing.T, name string, blob []byte) agd.Compression {
	t.Helper()
	if len(blob) < 7 || string(blob[:4]) != "AGD1" {
		t.Fatalf("%s is not a chunk blob", name)
	}
	return agd.Compression(blob[6])
}

// TestDistributedExportFailureSweepsStaging: an export sink that fails after
// the reduce has written the staging dataset still leaves nothing under the
// run's namespace — no staging chunk, no stitched manifest, no shuffle temp.
func TestDistributedExportFailureSweepsStaging(t *testing.T) {
	store, g := distFixture(t, 50, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()
	putsBefore := len(store.putNames())

	_, err = sess.Read("ds").Align(idx, AlignOptions{}).Sort(ByLocation).MarkDuplicates().
		ExportBAM(&failingWriter{limit: 2048}).Distributed(2).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("run with failing sink returned %v, want the sink's error", err)
	}
	staged := 0
	for _, name := range store.putNames()[putsBefore:] {
		if strings.Contains(name, "/out/") {
			staged++
		}
	}
	if staged == 0 {
		t.Fatal("the run failed before writing its staging dataset")
	}
	if leaked := leakedClusterBlobs(t, store); len(leaked) != 0 {
		t.Errorf("leaked %d of %d staged blobs, e.g. %s", len(leaked), staged, leaked[0])
	}
}

// TestDistributedStagingStoredRaw: an export's staging dataset is stored raw
// — every chunk the reduce puts under the run's out/ namespace says
// CompressNone — and the BAM still equals the single-node BAM. A Write sink's
// dataset stays gzip and, chunk for chunk once decoded, holds what it held
// before staging was stored raw.
func TestDistributedStagingStoredRaw(t *testing.T) {
	ctx := context.Background()
	store, g := distFixture(t, 50, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()
	graph := func() *Pipeline {
		return sess.Read("ds").Align(idx, AlignOptions{}).Sort(ByLocation).MarkDuplicates()
	}

	var gold, bam bytes.Buffer
	if _, err := graph().ExportBAM(&gold).Run(ctx); err != nil {
		t.Fatal(err)
	}
	store.record()
	if _, err := graph().ExportBAM(&bam).Distributed(2).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bam.Bytes(), gold.Bytes()) {
		t.Errorf("distributed BAM differs from single-node (%d vs %d bytes)", bam.Len(), gold.Len())
	}
	staged := 0
	for name, blob := range store.recorded("cluster/") {
		if !strings.Contains(name, "/out/part") {
			continue
		}
		staged++
		if comp := chunkCompression(t, name, blob); comp != agd.CompressNone {
			t.Errorf("staging chunk %s stored with compression %d, want none", name, comp)
		}
	}
	if staged == 0 {
		t.Fatal("no staging chunk was stored")
	}

	if _, err := graph().Write("dist.out").Distributed(2).Run(ctx); err != nil {
		t.Fatal(err)
	}
	blobs := testutil.Blobs(t, store, "dist.out/")
	names := make([]string, 0, len(blobs))
	for name := range blobs {
		names = append(names, name)
	}
	sort.Strings(names)
	sum, content := sha256.New(), sha256.New()
	for _, name := range names {
		blob := blobs[name]
		if strings.Contains(name, "/chunk-") {
			if comp := chunkCompression(t, name, blob); comp != agd.CompressGzip {
				t.Errorf("Write sink chunk %s stored with compression %d, want gzip", name, comp)
			}
			c, err := agd.DecodeChunk(blob)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(content, "%s %d %d %v\n", name, c.Type, c.FirstOrdinal, c.Lengths())
			content.Write(c.Data)
		} else {
			fmt.Fprintf(content, "%s\n", name)
			content.Write(blob)
		}
		fmt.Fprintf(sum, "%s %d\n", name, len(blob))
		sum.Write(blob)
	}
	// The SHA-256 over every blob of the dataset (names, sizes, bytes),
	// which moves whenever the deflate encoder writes other bytes for the
	// same chunk, and the SHA-256 over what the blobs hold (each chunk
	// decoded: type, first ordinal, record lengths, data), which must not:
	// it was the same before the encoder's match table shrank to fit L1.
	const (
		want        = "de37f4f6b7b6b012f5a35e6b052722f7658fd221ecf7e886b09be195b28baa64"
		wantContent = "8474b9888d31c6a55a13b14b1312686c86d9112d35ef607f633933021659056f"
	)
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Errorf("Write sink dataset: SHA-256 %s over %d blobs, want %s", got, len(names), want)
	}
	if got := hex.EncodeToString(content.Sum(nil)); got != wantContent {
		t.Errorf("Write sink dataset: content SHA-256 %s over %d blobs, want %s", got, len(names), wantContent)
	}
}
