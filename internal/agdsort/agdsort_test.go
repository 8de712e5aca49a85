package agdsort

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"persona/internal/agd"
	"persona/internal/testutil"
)

func TestSortByLocation(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 150_000, NumReads: 600, ReadLen: 80, ChunkSize: 100, Seed: 51,
	})

	m, err := SortDataset(context.Background(), f.Dataset, Options{By: ByLocation, ChunksPerSuperchunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.SortedBy != "location" {
		t.Fatalf("SortedBy = %q", m.SortedBy)
	}
	if m.NumRecords() != f.Dataset.NumRecords() {
		t.Fatalf("sorted has %d records, want %d", m.NumRecords(), f.Dataset.NumRecords())
	}

	sorted, err := agd.Open(store, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sorted.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	sawUnmapped := false
	var prev int64 = -1
	for i, r := range results {
		if r.IsUnmapped() {
			sawUnmapped = true
			continue
		}
		if sawUnmapped {
			t.Fatalf("mapped record %d after unmapped block", i)
		}
		if r.Location < prev {
			t.Fatalf("location order violated at %d: %d < %d", i, r.Location, prev)
		}
		prev = r.Location
	}

	// Row integrity: every (bases, meta) pair of the input must still exist.
	inMeta, err := f.Dataset.ReadAllColumn(agd.ColMetadata)
	if err != nil {
		t.Fatal(err)
	}
	outMeta, err := sorted.ReadAllColumn(agd.ColMetadata)
	if err != nil {
		t.Fatal(err)
	}
	if len(inMeta) != len(outMeta) {
		t.Fatalf("metadata count %d vs %d", len(outMeta), len(inMeta))
	}
	canon := func(ms [][]byte) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = string(m)
		}
		sort.Strings(out)
		return out
	}
	ci, co := canon(inMeta), canon(outMeta)
	for i := range ci {
		if ci[i] != co[i] {
			t.Fatalf("metadata multiset differs at %d: %q vs %q", i, ci[i], co[i])
		}
	}
}

func TestSortRowsStayAligned(t *testing.T) {
	// After sorting, each row's bases must still match its result: realign
	// a sample by checking the metadata ↔ results pairing via the original
	// dataset.
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 100_000, NumReads: 300, ReadLen: 70, ChunkSize: 64, Seed: 52,
	})
	origMeta, err := f.Dataset.ReadAllColumn(agd.ColMetadata)
	if err != nil {
		t.Fatal(err)
	}
	origResults, err := f.Dataset.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	byMeta := make(map[string]agd.Result, len(origMeta))
	for i := range origMeta {
		byMeta[string(origMeta[i])] = origResults[i]
	}

	m, err := SortDataset(context.Background(), f.Dataset, Options{By: ByLocation})
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := agd.Open(store, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	sMeta, err := sorted.ReadAllColumn(agd.ColMetadata)
	if err != nil {
		t.Fatal(err)
	}
	sResults, err := sorted.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sMeta {
		want, ok := byMeta[string(sMeta[i])]
		if !ok {
			t.Fatalf("unknown read %q in sorted output", sMeta[i])
		}
		if sResults[i] != want {
			t.Fatalf("row %d (%s): result no longer matches its read", i, sMeta[i])
		}
	}
}

func TestSortByMetadata(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 80_000, NumReads: 250, ReadLen: 60, ChunkSize: 50, Seed: 53,
	})
	m, err := SortDataset(context.Background(), f.Dataset, Options{By: ByMetadata, OutputName: "byid"})
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := agd.Open(store, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := sorted.ReadAllColumn(agd.ColMetadata)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(metas); i++ {
		if bytes.Compare(metas[i-1], metas[i]) > 0 {
			t.Fatalf("metadata order violated at %d: %q > %q", i, metas[i-1], metas[i])
		}
	}
}

func TestSortPreservesBases(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 60_000, NumReads: 120, ReadLen: 50, ChunkSize: 32, Seed: 54,
	})
	inBases, err := f.Dataset.ReadAllBases()
	if err != nil {
		t.Fatal(err)
	}
	inMeta, err := f.Dataset.ReadAllColumn(agd.ColMetadata)
	if err != nil {
		t.Fatal(err)
	}
	byMeta := make(map[string]string)
	for i := range inMeta {
		byMeta[string(inMeta[i])] = string(inBases[i])
	}
	m, err := SortDataset(context.Background(), f.Dataset, Options{By: ByLocation})
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := agd.Open(store, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	outBases, err := sorted.ReadAllBases()
	if err != nil {
		t.Fatal(err)
	}
	outMeta, err := sorted.ReadAllColumn(agd.ColMetadata)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outMeta {
		if byMeta[string(outMeta[i])] != string(outBases[i]) {
			t.Fatalf("bases no longer match read %q after sort", outMeta[i])
		}
	}
}

// TestSortByMetadataSharedPrefix exercises the packed-key fallback: the
// sort compares 8-byte big-endian prefixes first, so keys that agree on the
// first 8 bytes (and keys shorter than 8 bytes that are prefixes of longer
// ones) must fall back to full lexicographic comparison.
func TestSortByMetadataSharedPrefix(t *testing.T) {
	store := agd.NewMemStore()
	metas := []string{
		"sharedprefix-zz",
		"sharedprefix-aa",
		"sharedpre",       // 9 bytes, shares the full 8-byte prefix
		"sharedpr",        // exactly 8 bytes
		"shared",          // shorter than the prefix width
		"sharedprefix-aa", // duplicate key
		"sharedprefix-mm",
		"aaa",
		"zzz",
	}
	w, err := agd.NewWriter(store, "ds", []agd.ColumnSpec{{Name: agd.ColMetadata, Type: agd.TypeRaw}},
		agd.WriterOptions{ChunkSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metas {
		if err := w.Append([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	// ChunksPerSuperchunk 2 forces a multi-superchunk merge, so both the
	// in-memory sort and the heap merge hit the prefix-tie path.
	m, err := SortDataset(context.Background(), ds, Options{By: ByMetadata, ChunksPerSuperchunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := agd.Open(store, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sorted.ReadAllColumn(agd.ColMetadata)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{}, metas...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("sorted %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("order wrong at %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRadixMatchesComparisonSort cross-checks the phase-1 LSD radix path
// against the comparison sort on random keys, including 8-byte prefix
// collisions that need the full-byte tie fallback.
func TestRadixMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	prefixes := []string{"sharedpr", "sharedpx", "aa", ""}
	for trial := 0; trial < 40; trial++ {
		n := radixMinLen + rng.Intn(600)
		arena := agd.NewRecordArena(0, n)
		keys := make([]sortEntry, 0, n)
		for r := 0; r < n; r++ {
			var rec []byte
			switch trial % 2 {
			case 0: // location-style packed keys over a small range + unmapped
				if rng.Intn(10) == 0 {
					keys = append(keys, sortEntry{key: unmappedKey, row: uint32(r)})
					arena.Append(nil)
					continue
				}
				rec = []byte(fmt.Sprintf("loc%06d", rng.Intn(5000)))
				keys = append(keys, sortEntry{key: uint64(rng.Intn(5000)), row: uint32(r)})
				arena.Append(rec)
				continue
			default: // metadata with colliding prefixes
				rec = []byte(prefixes[rng.Intn(len(prefixes))] + fmt.Sprintf("%d", rng.Intn(50)))
			}
			keys = append(keys, sortEntry{key: prefixKey(rec), row: uint32(r)})
			arena.Append(rec)
		}
		by := ByLocation
		if trial%2 == 1 {
			by = ByMetadata
		}
		want := append([]sortEntry{}, keys...)
		comparisonSortKeys(arena, want, by)
		got := append([]sortEntry{}, keys...)
		sortKeys(arena, got, by) // n >= radixMinLen: the radix path
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (by=%s): entry %d = %+v, comparison sort says %+v",
					trial, by, i, got[i], want[i])
			}
		}
	}
}

func TestSortCleansTemporaries(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 50_000, NumReads: 100, ReadLen: 50, ChunkSize: 25, Seed: 55,
	})
	if _, err := SortDataset(context.Background(), f.Dataset, Options{By: ByLocation, OutputName: "out"}); err != nil {
		t.Fatal(err)
	}
	tmp, err := store.List("out/tmp/")
	if err != nil {
		t.Fatal(err)
	}
	if len(tmp) != 0 {
		t.Fatalf("temporaries remain: %v", tmp)
	}
}

func TestSortErrors(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "noresults", testutil.Config{
		GenomeSize: 50_000, NumReads: 60, ReadLen: 50, ChunkSize: 30, Seed: 56, SkipAlign: true,
	})
	if _, err := SortDataset(context.Background(), f.Dataset, Options{By: ByLocation}); err == nil {
		t.Fatal("sort by location without results column succeeded")
	}
	if _, err := Sort(context.Background(), store, "missing", Options{}); err == nil {
		t.Fatal("sorting a missing dataset succeeded")
	}
}
