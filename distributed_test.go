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
	"io"
	"maps"
	"sort"
	"strings"
	"sync/atomic"
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
// blob it parked under cluster/. So must other shapes, sortless ones
// included.
func TestDistributedMatchesSingleNode(t *testing.T) {
	ctx := context.Background()
	store, g := distFixture(t, 50, "ds", "aligned")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Align(ctx, store, "aligned", idx, AlignOptions{}); err != nil {
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

	// Without a Sort the plan is the map phase alone: one task per chunk
	// runs every stage and writes that chunk's output, stitched in chunk
	// order, and nothing crosses a shuffle. A Write's dataset is compared
	// by its SAM export.
	mapOnly := []struct {
		name  string
		graph func(out io.Writer, dataset string) *Pipeline
	}{
		{"align-write", func(_ io.Writer, dataset string) *Pipeline {
			return sess.Read("ds").Align(idx, AlignOptions{}).Write(dataset)
		}},
		{"align-filter-sam", func(out io.Writer, _ string) *Pipeline {
			return sess.Read("ds").Align(idx, AlignOptions{}).Filter(FilterMinMapQ(30)).ExportSAM(out)
		}},
		{"aligned-filter-fastq", func(out io.Writer, _ string) *Pipeline {
			return sess.Read("aligned").Filter(FilterMinMapQ(30)).ExportFASTQ(out)
		}},
	}
	// run runs a shape on nodes nodes (0: single-node) and returns its
	// report and output.
	run := func(t *testing.T, graph func(io.Writer, string) *Pipeline, nodes int) (*PipelineReport, []byte) {
		var out bytes.Buffer
		dataset := fmt.Sprintf("map-only%d.out", nodes)
		report, err := graph(&out, dataset).Distributed(nodes).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if report.Manifest != nil {
			if _, err := ExportSAM(ctx, store, dataset, &out); err != nil {
				t.Fatal(err)
			}
		}
		return report, out.Bytes()
	}
	for _, sh := range mapOnly {
		want, gold := run(t, sh.graph, 0)
		if len(gold) == 0 || want.Filtered.In != 0 && want.Filtered.Kept == want.Filtered.In {
			t.Fatalf("%s: the single-node run wrote %d bytes, its filter kept %+v", sh.name, len(gold), want.Filtered)
		}
		for _, nodes := range []int{1, 3} {
			t.Run(fmt.Sprintf("map-only/%s/nodes=%d", sh.name, nodes), func(t *testing.T) {
				got, out := run(t, sh.graph, nodes)
				if !bytes.Equal(out, gold) {
					t.Errorf("distributed output differs from single-node (%d vs %d bytes)", len(out), len(gold))
				}
				if got.Records != want.Records || got.Filtered != want.Filtered {
					t.Errorf("records %d, filtered %+v; single-node %d, %+v", got.Records, got.Filtered, want.Records, want.Filtered)
				}
				if c := got.Cluster; c == nil || c.ShuffleBytes != 0 || len(c.Nodes) != nodes {
					t.Errorf("cluster report %+v, want %d nodes and no shuffle", c, nodes)
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
// distributed scheduler refuses, and runs the sortless shape it once
// refused.
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

	// Without a Sort the run is the map phase alone.
	var gold, dist bytes.Buffer
	if _, err := sess.Read("ds").ExportFASTQ(&gold).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Read("ds").ExportFASTQ(&dist).Distributed(2).Run(ctx); err != nil {
		t.Fatalf("no sort: %v", err)
	}
	if gold.Len() == 0 || !bytes.Equal(dist.Bytes(), gold.Bytes()) {
		t.Errorf("no sort: distributed FASTQ differs from single-node (%d vs %d bytes)", dist.Len(), gold.Len())
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

// TestDistributedFetchesOnlyColumnsRead: a distributed run's map tasks open
// the columns the single-node Read opens and no other. Sorting an aligned
// dataset by metadata into FASTQ on two nodes gets no results blob and puts
// none, and its FASTQ equals the single-node run's.
func TestDistributedFetchesOnlyColumnsRead(t *testing.T) {
	ctx := context.Background()
	base, g := distFixture(t, 50, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Align(ctx, base, "ds", idx, AlignOptions{}); err != nil {
		t.Fatal(err)
	}
	store := &columnGets{Store: base, gets: map[string]int{}}
	sess := NewSession(store, SessionOptions{CacheBytes: -1})
	defer sess.Close()
	graph := func(w io.Writer) *Pipeline { return sess.Read("ds").Sort(ByMetadata).ExportFASTQ(w) }

	var gold, dist bytes.Buffer
	if _, err := graph(&gold).Run(ctx); err != nil {
		t.Fatal(err)
	}
	store.fetched()
	putsBefore := len(base.putNames())
	if _, err := graph(&dist).Distributed(2).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if n := store.fetched()[agd.ColResults]; n != 0 {
		t.Errorf("distributed run fetched %d results blobs", n)
	}
	for _, name := range base.putNames()[putsBefore:] {
		if strings.HasSuffix(name, "."+agd.ColResults) {
			t.Errorf("distributed run stored %s", name)
		}
	}
	if !bytes.Equal(dist.Bytes(), gold.Bytes()) {
		t.Errorf("distributed FASTQ differs from single-node (%d vs %d bytes)", dist.Len(), gold.Len())
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

// TestDistributedShuffleBlobIdentity pins the bytes the shuffle stores: the
// SHA-256 of every run, piece and halo blob of Read → Align →
// Sort(location) → MarkDuplicates → Write on two and on three nodes, over a
// fixed fixture of two map batches (eight chunks and six). A change to how a
// run is staged, framed or encoded, or to how it is cut, must leave each of
// these blobs as it is.
func TestDistributedShuffleBlobIdentity(t *testing.T) {
	ctx := context.Background()
	store := &countingStore{inner: NewMemStore()}
	fx, err := testutil.BuildE(store, "ds", testutil.Config{GenomeSize: 120_000, NumReads: 700, ReadLen: 90, ChunkSize: 50, DupFrac: 0.15, Seed: 17, SkipAlign: true})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()
	// A run holds the rows of its map batch whatever the node count, so
	// both runs store the same two run blobs.
	runs := map[string]string{
		"run-000000": "1cc4f4c97695f305690b8e95371eda522a49fbff36d53d84ff8609be14fb51e0",
		"run-000001": "0c61f56ba46ce723b632c898e455908c4e9487043d3fd8dbc46c209824fd37c2",
	}
	want := map[int]map[string]string{
		2: {
			"part0/piece-000000": "07d49507d65960b3a1c832f8106276f8be61a000e16f5d739985bc95a1da98a4",
			"part0/piece-000001": "ac41cf2bdafbf430666ceea8bbd4d7069d9bcbdb29411c65dbbb5a1c6676637c",
			"part1/halo-000000":  "b5a5315dee5ab2a61ee216b70ab5d923bf802ecd825b178e39e9ad6da83c6594",
			"part1/halo-000001":  "4408ffdf9bc37cd1eef3036761ee0342688621455a1810f6023de4fd941f27fc",
			"part1/piece-000000": "c0c89068aa1f256fbcdaeb9b1d2cc0e15c7a9367d73e1582d51ef894c2aee667",
			"part1/piece-000001": "834441046678d78c81c78f1b345f54d2d9ee6957002e1070f82a520f7364c89a",
		},
		3: {
			"part0/piece-000000": "26a87c6538bbe1950d22d690fb03e496b061c577ddc015d9bce424e18fc81186",
			"part0/piece-000001": "effedd415d60510b70b2d234bb756306fa8512dd023ee2ca163efa3df3a61863",
			"part1/halo-000000":  "66914fce394c34feacd19c998fe146fc02bb53de38cc892e108fcd57933a2798",
			"part1/halo-000001":  "ad2538c47a97b5ece94f2cc34fe337e5d0c11adfeed93db416105098a4bb9381",
			"part1/piece-000000": "1c06c2ca4171511e2a55fd6e85bcb428bedd4413d6a8635617eb20d0b2ca58e4",
			"part1/piece-000001": "5bef8f969317e31c52c06b2eae02e56db580bc091ba6126f3971d824cb94d695",
			"part2/halo-000000":  "4408ffdf9bc37cd1eef3036761ee0342688621455a1810f6023de4fd941f27fc",
			"part2/halo-000001":  "6e5a82ef0aea2bb8a60a8d52ae856ce2e6345e618b4ece09dad7728adb155c40",
			"part2/piece-000000": "3f65d8037bd39463c0457e52f325adb26763feea02c89bf0a258cfc3aedfbe5a",
			"part2/piece-000001": "ffed42bd4d81030ef46aa7349b9810d435cd8fe9012ca4c6fb700309d521f311",
		},
	}
	for _, nodes := range []int{2, 3} {
		store.record()
		out := fmt.Sprintf("out%d", nodes)
		if _, err := sess.Read("ds").Align(fx.Index, AlignOptions{}).Sort(ByLocation).MarkDuplicates().Write(out).Distributed(nodes).Run(ctx); err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for name, blob := range store.recorded("cluster/") {
			_, short, ok := strings.Cut(name, "/tmp/")
			if !ok {
				t.Fatalf("blob %s is outside the shuffle namespace", name)
			}
			sum := sha256.Sum256(blob)
			got[short] = hex.EncodeToString(sum[:])
		}
		maps.Copy(want[nodes], runs)
		if len(got) != len(want[nodes]) {
			t.Errorf("nodes=%d: %d shuffle blobs stored, want %d", nodes, len(got), len(want[nodes]))
		}
		for name, sum := range want[nodes] {
			if got[name] != sum {
				t.Errorf("nodes=%d: %s has SHA-256 %s, want %s", nodes, name, got[name], sum)
			}
		}
	}
}

// manifestGets counts the Gets of one blob. It embeds the MemStore, so
// chunk reads keep the store's own batched path (agd.AsyncOf) and start no
// read goroutine that could still be exiting when the test returns.
type manifestGets struct {
	*agd.MemStore
	name string
	gets atomic.Int64
}

func (s *manifestGets) Get(name string) ([]byte, error) {
	if name == s.name {
		s.gets.Add(1)
	}
	return s.MemStore.Get(name)
}

// TestDistributedReadsManifestOnce: a run reads its source dataset's
// manifest once, on one node or on two, sorted or map-only. The distributed
// plan carries the manifest Validate read rather than opening the dataset
// again.
func TestDistributedReadsManifestOnce(t *testing.T) {
	base, _ := distFixture(t, 50, "ds")
	store := &manifestGets{MemStore: base.inner.(*agd.MemStore), name: "ds/manifest.json"}
	graphs := map[string]func(sess *Session, w io.Writer) *Pipeline{
		"sorted":   func(sess *Session, w io.Writer) *Pipeline { return sess.Read("ds").Sort(ByMetadata).ExportFASTQ(w) },
		"map-only": func(sess *Session, w io.Writer) *Pipeline { return sess.Read("ds").ExportFASTQ(w) },
	}
	for name, graph := range graphs {
		for _, nodes := range []int{0, 2} {
			sess := NewSession(store, SessionOptions{})
			store.gets.Store(0)
			_, err := graph(sess, io.Discard).Distributed(nodes).Run(context.Background())
			sess.Close()
			if err != nil {
				t.Fatal(err)
			}
			if n := store.gets.Load(); n != 1 {
				t.Errorf("%s, Distributed(%d): %d Gets of ds/manifest.json, want 1", name, nodes, n)
			}
		}
	}
}
