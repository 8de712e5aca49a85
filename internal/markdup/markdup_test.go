package markdup

import (
	"context"
	"testing"

	"persona/internal/agd"
	"persona/internal/testutil"
)

// markDataset marks duplicates in ds's results column in place: MarkStream
// between a dataset source and the results column sink — the one-stage
// pipeline persona.MarkDuplicates runs.
func markDataset(ds *agd.Dataset) (Stats, error) {
	in, err := ds.Groups(agd.StreamOptions{})
	if err != nil {
		return Stats{}, err
	}
	out, stats, err := MarkStream(in, 0)
	if err != nil {
		in.Close()
		return Stats{}, err
	}
	err = agd.WriteColumn(context.Background(), out, ds.Store(), ds.Manifest, agd.ColResults, agd.Codec{})
	return *stats, err
}

func TestMarkFindsSimulatedDuplicates(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 150_000, NumReads: 2000, ReadLen: 80, ChunkSize: 256, DupFrac: 0.2, Seed: 61,
	})
	stats, err := markDataset(f.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reads != 2000 {
		t.Fatalf("Reads = %d", stats.Reads)
	}
	frac := float64(stats.Duplicates) / float64(stats.Reads)
	// The simulator drew ~20% duplicates; random collisions add a few.
	if frac < 0.12 || frac > 0.35 {
		t.Fatalf("duplicate fraction %.3f, want ≈0.2", frac)
	}

	// Flags must be persisted in the rewritten results column.
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	results, err := ds.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	marked := uint64(0)
	for _, r := range results {
		if r.IsDuplicate() {
			marked++
		}
	}
	if marked != stats.Duplicates {
		t.Fatalf("persisted %d duplicate flags, stats say %d", marked, stats.Duplicates)
	}
}

func TestMarkKeepsFirstOccurrence(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 100_000, NumReads: 1000, ReadLen: 70, ChunkSize: 128, DupFrac: 0.3, Seed: 62,
	})
	if _, err := markDataset(f.Dataset); err != nil {
		t.Fatal(err)
	}
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	results, err := ds.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	// For every duplicate class, exactly one member must be unmarked.
	type key struct {
		pos int64
		rev bool
	}
	unmarked := make(map[key]int)
	total := make(map[key]int)
	for _, r := range results {
		if r.IsUnmapped() {
			continue
		}
		pos, err := UnclippedPos(&r)
		if err != nil {
			t.Fatal(err)
		}
		k := key{pos: pos, rev: r.IsReverse()}
		total[k]++
		if !r.IsDuplicate() {
			unmarked[k]++
		}
	}
	for k, n := range total {
		if unmarked[k] != 1 {
			t.Fatalf("class %+v has %d members, %d unmarked (want exactly 1)", k, n, unmarked[k])
		}
	}
}

func TestMarkIdempotent(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 80_000, NumReads: 500, ReadLen: 60, ChunkSize: 100, DupFrac: 0.1, Seed: 63,
	})
	s1, err := markDataset(f.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := markDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Duplicates != s2.Duplicates {
		t.Fatalf("second pass found %d duplicates, first found %d", s2.Duplicates, s1.Duplicates)
	}
}

func TestMarkSkipsUnmapped(t *testing.T) {
	store := agd.NewMemStore()
	// Hand-build a dataset of two identical unmapped results: they must not
	// be marked as duplicates of each other.
	un := agd.EncodeResult(nil, &agd.Result{Location: agd.UnmappedLocation, MateLocation: agd.UnmappedLocation, Flags: agd.FlagUnmapped})
	m, err := testutil.WriteRows(store, "u", agd.StreamMeta{Columns: []string{agd.ColResults}, ChunkSize: 10}, [][][]byte{{un}, {un}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := markDataset(agd.OpenManifest(store, m))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duplicates != 0 {
		t.Fatalf("unmapped reads marked as duplicates: %+v", stats)
	}
}

func TestUnclippedPos(t *testing.T) {
	fwd := agd.Result{Location: 100, Cigar: "5S45M"}
	pos, err := UnclippedPos(&fwd)
	if err != nil || pos != 95 {
		t.Fatalf("forward clipped = %d, %v; want 95", pos, err)
	}
	rev := agd.Result{Location: 100, Cigar: "45M5S", Flags: agd.FlagReverse}
	pos, err = UnclippedPos(&rev)
	if err != nil || pos != 100+45+5-1 {
		t.Fatalf("reverse clipped = %d, %v; want %d", pos, err, 100+45+5-1)
	}
	plain := agd.Result{Location: 10, Cigar: "50M"}
	pos, err = UnclippedPos(&plain)
	if err != nil || pos != 10 {
		t.Fatalf("plain = %d, %v", pos, err)
	}
}

func TestMarkErrors(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "nores", testutil.Config{
		GenomeSize: 50_000, NumReads: 50, ReadLen: 50, ChunkSize: 25, Seed: 64, SkipAlign: true,
	})
	if _, err := markDataset(f.Dataset); err == nil {
		t.Fatal("marking without results column succeeded")
	}
}
