package filter

import (
	"context"
	"fmt"
	"testing"

	"persona/internal/agd"
	"persona/internal/markdup"
	"persona/internal/testutil"
)

func buildAligned(t *testing.T, store agd.BlobStore, dupFrac float64) *testutil.Fixture {
	t.Helper()
	return testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 150_000, NumReads: 1200, ReadLen: 80, ChunkSize: 200, DupFrac: dupFrac, Seed: 101,
	})
}

// filterDataset filters ds into dataset out through RunStream between a
// dataset source and a dataset sink — the one-stage pipeline persona.Filter
// runs.
func filterDataset(ctx context.Context, ds *agd.Dataset, pred Predicate, out string) (*agd.Manifest, Stats, error) {
	in, err := ds.Groups(agd.StreamOptions{})
	if err != nil {
		return nil, Stats{}, err
	}
	kept, stats, err := RunStream(in, pred, 0)
	if err != nil {
		in.Close()
		return nil, Stats{}, err
	}
	defer kept.Close()
	m, err := agd.WriteGroups(ctx, kept, ds.Store(), out, agd.WriterOptions{})
	return m, *stats, err
}

// markDataset marks duplicates in ds's results column in place: MarkStream
// between a results source and the results column sink.
func markDataset(ds *agd.Dataset) (markdup.Stats, error) {
	in, err := ds.Groups(agd.StreamOptions{Columns: []string{agd.ColResults}})
	if err != nil {
		return markdup.Stats{}, err
	}
	out, stats, err := markdup.MarkStream(in, 0)
	if err != nil {
		in.Close()
		return markdup.Stats{}, err
	}
	err = agd.WriteColumn(context.Background(), out, ds.Store(), ds.Manifest, agd.ColResults, agd.Codec{})
	return *stats, err
}

func TestFilterMinMapQ(t *testing.T) {
	store := agd.NewMemStore()
	f := buildAligned(t, store, 0)
	m, stats, err := filterDataset(context.Background(), f.Dataset, MinMapQ(30), "ds.filtered")
	if err != nil {
		t.Fatal(err)
	}
	if stats.In != 1200 {
		t.Fatalf("In = %d", stats.In)
	}
	if stats.Kept == 0 || stats.Kept > stats.In {
		t.Fatalf("Kept = %d", stats.Kept)
	}
	if m.NumRecords() != uint64(stats.Kept) {
		t.Fatalf("output has %d records, stats say %d", m.NumRecords(), stats.Kept)
	}

	out, err := agd.Open(store, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	results, err := out.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.IsUnmapped() || r.MapQ < 30 {
			t.Fatalf("record %d violates predicate: %+v", i, r)
		}
	}
	// Row integrity: bases/metadata still pair with results.
	bases, err := out.ReadAllBases()
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) != len(results) {
		t.Fatalf("columns disagree: %d bases, %d results", len(bases), len(results))
	}
	for _, b := range bases {
		if len(b) != 80 {
			t.Fatalf("filtered base record has length %d", len(b))
		}
	}
}

func TestFilterDropDuplicates(t *testing.T) {
	store := agd.NewMemStore()
	f := buildAligned(t, store, 0.25)
	dstats, err := markDataset(f.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	// Re-open: markdup rewrote the results blobs.
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	m, stats, err := filterDataset(context.Background(), ds, DropDuplicates(), "dedup")
	if err != nil {
		t.Fatal(err)
	}
	if stats.In-stats.Kept != dstats.Duplicates {
		t.Fatalf("dropped %d, markdup flagged %d", stats.In-stats.Kept, dstats.Duplicates)
	}
	out, err := agd.Open(store, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	results, err := out.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.IsDuplicate() {
			t.Fatal("duplicate survived the filter")
		}
	}
}

func TestFilterRegion(t *testing.T) {
	store := agd.NewMemStore()
	f := buildAligned(t, store, 0)
	const lo, hi = 10_000, 60_000
	_, stats, err := filterDataset(context.Background(), f.Dataset, Region(lo, hi), "window")
	if err != nil {
		t.Fatal(err)
	}
	out, err := agd.Open(store, "window")
	if err != nil {
		t.Fatal(err)
	}
	results, err := out.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(results)) != stats.Kept {
		t.Fatalf("kept %d, read back %d", stats.Kept, len(results))
	}
	for _, r := range results {
		if r.Location < lo || r.Location >= hi {
			t.Fatalf("record at %d escaped the region", r.Location)
		}
	}
}

func TestFilterAnd(t *testing.T) {
	p := And(MappedOnly(), MinMapQ(50))
	if p(&agd.ResultView{Location: 5, MapQ: 60}) != true {
		t.Fatal("both-true rejected")
	}
	if p(&agd.ResultView{Location: 5, MapQ: 10}) {
		t.Fatal("low mapq accepted")
	}
	if p(&agd.ResultView{Location: agd.UnmappedLocation, Flags: agd.FlagUnmapped, MapQ: 60}) {
		t.Fatal("unmapped accepted")
	}
}

func TestFilterErrors(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "nores", testutil.Config{
		GenomeSize: 60_000, NumReads: 100, ReadLen: 60, ChunkSize: 50, Seed: 102, SkipAlign: true,
	})
	if _, _, err := filterDataset(context.Background(), f.Dataset, MappedOnly(), "ds.filtered"); err == nil {
		t.Fatal("filter without results column succeeded")
	}
	f2 := buildAligned(t, store, 0)
	// A predicate nothing matches must error rather than write an empty
	// dataset.
	if _, _, err := filterDataset(context.Background(), f2.Dataset, Region(1<<40, 1<<40+1), "ds.filtered"); err == nil {
		t.Fatal("empty filter result accepted")
	}
}

// TestFilterAllocationsPerGroup pins that the filter's cost in allocations is
// per group, not per record: the predicate is an indirect call, so the result
// view it is handed is heap memory, and one view must serve every record.
func TestFilterAllocationsPerGroup(t *testing.T) {
	const records = 1000
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 150_000, NumReads: records, ReadLen: 80, ChunkSize: records, Seed: 103,
	})
	ctx := context.Background()
	pred := MappedOnly()

	// RunStream, fed the one decoded group over and over.
	src, err := f.Dataset.Groups(agd.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := src.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	src.Close()
	if g.NumRecords() != records {
		t.Fatalf("group of %d records, want %d", g.NumRecords(), records)
	}
	in := agd.NewGroupStream(src.Meta, func(context.Context) (*agd.RowGroup, error) {
		return agd.NewRowGroup(0, 0, g.Chunks, nil), nil
	}, nil)
	out, stats, err := RunStream(in, pred, 1)
	if err != nil {
		t.Fatal(err)
	}
	perGroup := testing.AllocsPerRun(5, func() {
		g, err := out.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	})
	if stats.Kept == 0 || perGroup > records/20 {
		t.Errorf("RunStream: %v allocations per group of %d records (%d kept so far), want a handful", perGroup, records, stats.Kept)
	}

	// A dataset pass: stream, writer and manifest included, still far below
	// one per record.
	n := 0
	perRun := testing.AllocsPerRun(3, func() {
		n++
		if _, _, err := filterDataset(ctx, f.Dataset, pred, fmt.Sprint("out", n)); err != nil {
			t.Fatal(err)
		}
	})
	if perRun > records/2 {
		t.Errorf("dataset pass: %v allocations for %d records, want far fewer than one a record", perRun, records)
	}
}
