package agdsort

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"persona/internal/agd"
	"persona/internal/testutil"
)

// sortDataset sorts ds into dataset out through SortStream between a
// dataset source and a dataset sink — the one-stage pipeline persona.Sort
// runs, with opts free to vary what persona.Sort fixes.
func sortDataset(ds *agd.Dataset, opts Options, out string) (*agd.Manifest, error) {
	in, err := ds.Groups(agd.StreamOptions{})
	if err != nil {
		return nil, err
	}
	sorted, err := SortStream(context.Background(), ds.Store(), in, opts)
	if err != nil {
		in.Close()
		return nil, err
	}
	defer sorted.Close()
	return agd.WriteGroups(context.Background(), sorted, ds.Store(), out, agd.WriterOptions{})
}

func TestSortByLocation(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 150_000, NumReads: 600, ReadLen: 80, ChunkSize: 100, Seed: 51,
	})

	m, err := sortDataset(f.Dataset, Options{By: ByLocation, ChunksPerSuperchunk: 2}, "ds.sorted")
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

	m, err := sortDataset(f.Dataset, Options{By: ByLocation}, "ds.sorted")
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
	m, err := sortDataset(f.Dataset, Options{By: ByMetadata}, "byid")
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
	m, err := sortDataset(f.Dataset, Options{By: ByLocation}, "ds.sorted")
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
	rows := make([][][]byte, len(metas))
	for i, m := range metas {
		rows[i] = [][]byte{[]byte(m)}
	}
	if _, err := testutil.WriteRows(store, "ds", agd.StreamMeta{Columns: []string{agd.ColMetadata}, ChunkSize: 3}, rows); err != nil {
		t.Fatal(err)
	}
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	// ChunksPerSuperchunk 2 forces a multi-superchunk merge, so both the
	// in-memory sort and the heap merge hit the prefix-tie path.
	m, err := sortDataset(ds, Options{By: ByMetadata, ChunksPerSuperchunk: 2}, "ds.sorted")
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

// TestSortCleansTemporaries: a dataset sort leaves nothing under the output's
// temporary prefix.
func TestSortCleansTemporaries(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 50_000, NumReads: 100, ReadLen: 50, ChunkSize: 25, Seed: 55,
	})
	if _, err := sortDataset(f.Dataset, Options{By: ByLocation}, "out"); err != nil {
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
	if _, err := sortDataset(f.Dataset, Options{By: ByLocation}, "ds.sorted"); err == nil {
		t.Fatal("sort by location without results column succeeded")
	}
}

// putProbe records every Put and Delete that reaches the store.
type putProbe struct {
	agd.BlobStore
	mu      sync.Mutex
	puts    []string
	deletes []string
}

func (s *putProbe) Put(name string, data []byte) error {
	s.mu.Lock()
	s.puts = append(s.puts, name)
	s.mu.Unlock()
	return s.BlobStore.Put(name, data)
}

func (s *putProbe) Delete(name string) error {
	s.mu.Lock()
	s.deletes = append(s.deletes, name)
	s.mu.Unlock()
	return s.BlobStore.Delete(name)
}

// TestSortPutsOnlyOutput: a dataset sort of several runs stores its output
// dataset and nothing else — no run is put, fetched back or deleted.
func TestSortPutsOnlyOutput(t *testing.T) {
	mem := agd.NewMemStore()
	testutil.Build(t, mem, "ds", testutil.Config{
		GenomeSize: 100_000, NumReads: 400, ReadLen: 60, ChunkSize: 50, Seed: 57,
	})
	before, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	store := &putProbe{BlobStore: mem}
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	m, err := sortDataset(ds, Options{By: ByLocation, ChunksPerSuperchunk: 2}, "out")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(m.Chunks)*len(m.Columns) + 1; len(store.puts) != want {
		t.Fatalf("the sort put %d blobs %v, want %d (column chunks, manifest)", len(store.puts), store.puts, want)
	}
	for _, name := range store.puts {
		if !strings.HasPrefix(name, "out/") || strings.HasPrefix(name, "out/tmp/") {
			t.Fatalf("the sort put %q, which is not an output blob", name)
		}
	}
	if len(store.deletes) != 0 {
		t.Fatalf("the sort deleted %v", store.deletes)
	}
	after, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+len(store.puts) {
		t.Fatalf("store holds %d blobs after the sort, want %d", len(after), len(before)+len(store.puts))
	}
}

// referenceSort is the order SortStream must produce: one stable sort of
// every row of ds, by location (unmapped last) or by the full read ID.
func referenceSort(t *testing.T, ds *agd.Dataset, by Key) []string {
	t.Helper()
	in, err := ds.Groups(agd.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keyCol := keyColumn(in.Meta.Columns, by)
	type row struct {
		joined string
		key    []byte
		loc    int64
		mapped bool
	}
	var rows []row
	fields := make([][]byte, len(in.Meta.Columns))
	for {
		g, err := in.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < g.NumRecords(); r++ {
			for c, chunk := range g.Chunks {
				if fields[c], err = chunk.Record(r); err != nil {
					t.Fatal(err)
				}
			}
			rw := row{joined: string(bytes.Join(fields, []byte{0})), key: append([]byte(nil), fields[keyCol]...)}
			if by == ByLocation {
				v, err := agd.DecodeResultView(fields[keyCol])
				if err != nil {
					t.Fatal(err)
				}
				rw.loc, rw.mapped = v.Location, !v.IsUnmapped()
			}
			rows = append(rows, rw)
		}
		g.Release()
	}
	in.Close()
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if by == ByMetadata {
			return bytes.Compare(a.key, b.key) < 0
		}
		if a.mapped != b.mapped {
			return a.mapped
		}
		return a.mapped && a.loc < b.loc
	})
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.joined
	}
	return out
}

// TestSortRunBoundariesKeepOrder: where the runs are cut does not change the
// output. For every run size — one group per run, a few, and one run for
// the whole input — SortStream emits exactly the rows of one stable sort of
// the input, duplicate keys and 8-byte prefix ties in input order.
func TestSortRunBoundariesKeepOrder(t *testing.T) {
	reads := testutil.Build(t, agd.NewMemStore(), "ds", testutil.Config{
		GenomeSize: 120_000, NumReads: 700, ReadLen: 70, ChunkSize: 64, Seed: 59, DupFrac: 0.2,
	}).Dataset

	// Read IDs sharing 8-byte prefixes, each several times; the results
	// column numbers the rows, so a duplicate key out of input order shows.
	ids := []string{"sharedprefix-b", "sharedprefix-a", "sharedpre", "sharedpr", "shared", "sharedpr\x00", "aaa", "zzz"}
	store := agd.NewMemStore()
	rng := rand.New(rand.NewSource(60))
	rows := make([][][]byte, 300)
	for i := range rows {
		res := agd.Result{Location: int64(i)}
		rows[i] = [][]byte{[]byte(ids[rng.Intn(len(ids))]), agd.EncodeResult(nil, &res)}
	}
	m, err := testutil.WriteRows(store, "ids", agd.StreamMeta{Columns: []string{agd.ColMetadata, agd.ColResults}, ChunkSize: 20}, rows)
	if err != nil {
		t.Fatal(err)
	}
	metas := agd.OpenManifest(store, m)

	for _, tc := range []struct {
		by Key
		ds *agd.Dataset
	}{{ByLocation, reads}, {ByMetadata, metas}} {
		want := referenceSort(t, tc.ds, tc.by)
		groups := len(tc.ds.Manifest.Chunks)
		for _, per := range []int{1, 2, 3, 8, groups + 1} {
			in, err := tc.ds.Groups(agd.StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			out, err := SortStream(context.Background(), tc.ds.Store(), in, Options{By: tc.by, ChunksPerSuperchunk: per})
			if err != nil {
				t.Fatal(err)
			}
			got, err := drainStream(out)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("by %s, %d groups a run: %d rows, want %d", tc.by, per, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("by %s, %d groups a run: row %d differs from the stable sort", tc.by, per, i)
				}
			}
		}
	}
}
