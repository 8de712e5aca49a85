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

	// Any stage may run on either side of the Sort but MarkDuplicates: a
	// filter in the map tasks, an align in the reduce.
	shapes := []struct {
		name  string
		build func(out *bytes.Buffer) *Pipeline
	}{
		{"filter-before-sort", func(out *bytes.Buffer) *Pipeline {
			return sess.Read("ds").Align(idx, AlignOptions{}).Filter(FilterMinMapQ(30)).Sort(ByLocation).MarkDuplicates().ExportSAM(out)
		}},
		{"align-after-sort", func(out *bytes.Buffer) *Pipeline {
			return sess.Read("ds").Sort(ByMetadata).Align(idx, AlignOptions{}).Filter(FilterMinMapQ(30)).ExportSAM(out)
		}},
	}
	for _, sh := range shapes {
		var gold bytes.Buffer
		want, err := sh.build(&gold).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want.Filtered.Kept == want.Filtered.In {
			t.Fatalf("%s: the filter keeps every row", sh.name)
		}
		for _, nodes := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/nodes=%d", sh.name, nodes), func(t *testing.T) {
				var out bytes.Buffer
				got, err := sh.build(&out).Distributed(nodes).Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), gold.Bytes()) {
					t.Errorf("distributed SAM differs from single-node (%d vs %d bytes)", out.Len(), gold.Len())
				}
				if got.Records != want.Records || got.Dups != want.Dups || got.Filtered != want.Filtered {
					t.Errorf("records %d, dups %+v, filtered %+v; single-node %d, %+v, %+v",
						got.Records, got.Dups, got.Filtered, want.Records, want.Dups, want.Filtered)
				}
				if leaked := leakedClusterBlobs(t, store); len(leaked) != 0 {
					t.Errorf("leaked %d cluster temp blobs, e.g. %s", len(leaked), leaked[0])
				}
			})
		}
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

// TestDistributedShapeValidation pins the message of every shape the
// distributed scheduler refuses.
func TestDistributedShapeValidation(t *testing.T) {
	ctx := context.Background()
	store, g := pipelineFixture(t, "ds", "aligned")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Align(ctx, store, "aligned", idx, AlignOptions{}); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()

	var buf bytes.Buffer
	pred := FilterMappedOnly()
	cases := []struct {
		name string
		p    *Pipeline
		want string
	}{
		// The shuffle is the sort.
		{"no sort", sess.Read("ds").ExportFASTQ(&buf), "needs a Sort stage"},
		// Distributed runs deal the chunks of a dataset.
		{"import source", sess.ImportFASTQ(strings.NewReader(""), nil, 0).Sort(ByMetadata).ExportFASTQ(&buf), "need a Read source"},
		{"two sorts", sess.Read("aligned").Sort(ByLocation).Sort(ByMetadata).ExportFASTQ(&buf), "two Sort stages"},
		// MarkDuplicates declares a halo: its marker in each partition is
		// seeded from the rows just below the partition's location cut.
		{"markdup before sort", sess.Read("aligned").MarkDuplicates().Sort(ByLocation).ExportSAM(&buf), "markdup must directly follow Sort"},
		{"markdup after filter", sess.Read("aligned").Sort(ByLocation).Filter(pred).MarkDuplicates().ExportSAM(&buf), "markdup must directly follow Sort"},
		{"markdup after metadata sort", sess.Read("aligned").Sort(ByMetadata).MarkDuplicates().ExportSAM(&buf), "markdup needs a location sort"},
		// The distributed run validates the graph as the single-node run does.
		{"location sort unaligned", sess.Read("ds").Sort(ByLocation).ExportFASTQ(&buf), "sort-location needs alignment results"},
		{"align aligned", sess.Read("aligned").Align(idx, AlignOptions{}).Sort(ByLocation).ExportSAM(&buf), "already aligned"},
	}
	for _, tc := range cases {
		if _, err := tc.p.Distributed(2).Run(ctx); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if leaked := leakedClusterBlobs(t, store); len(leaked) != 0 {
		t.Errorf("refused runs left %d cluster blobs, e.g. %s", len(leaked), leaked[0])
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
// dataset stays gzip but for the bases column, which every dataset stores
// packed and uncompressed, and is pinned blob for blob and, once decoded,
// chunk for chunk.
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
			want := agd.CompressGzip
			if strings.HasSuffix(name, "."+agd.ColBases) {
				want = agd.CompressNone // packed bases are stored as they are
			}
			if comp := chunkCompression(t, name, blob); comp != want {
				t.Errorf("Write sink chunk %s stored with compression %d, want %d", name, comp, want)
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
		want        = "f930e7f22684dade903e3cd543d074c0692e0a2a4035a82cc67091f4f86ae7fe"
		wantContent = "09fe6486770e6d1045dec76551f89dc5354c11684c2aa67e157261f1bd0d9183"
	)
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Errorf("Write sink dataset: SHA-256 %s over %d blobs, want %s", got, len(names), want)
	}
	if got := hex.EncodeToString(content.Sum(nil)); got != wantContent {
		t.Errorf("Write sink dataset: content SHA-256 %s over %d blobs, want %s", got, len(names), wantContent)
	}
}
