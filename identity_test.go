package persona

// Blob-level identity of the dataset-to-dataset operations: however a sort or
// a filter is run — free function, fused pipeline on either driver, any run
// fan-in — the output dataset is the one a few lines of obviously correct
// code write: same blob names, same bytes, manifest included.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/testutil"
)

// keyFixtures names the datasets writeKeyFixture builds: the key
// distributions a sort, a merge or a filter has to get right.
//
//	uniform        distinct read IDs, locations spread over a megabase
//	shared-prefix  read IDs that agree on their first 8 bytes (or are shorter
//	               than 8, or prefixes of one another, or equal); locations
//	               that differ in their low byte only, a few unmapped
//	skewed         three distinct read IDs and three distinct locations
//	               (one of them "unmapped") over every row
//	ragged         uniform keys, a short last chunk
var keyFixtures = []string{"uniform", "shared-prefix", "skewed", "ragged"}

// keyFixtureChunk is the fixtures' records per chunk.
const keyFixtureChunk = 20

// writeKeyFixture writes one of keyFixtures into store under name, with all
// four standard columns, mapping qualities and duplicate flags varied so the
// filter predicates each keep some rows and drop others.
func writeKeyFixture(t testing.TB, store agd.BlobStore, name, kind string) *agd.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(kind)) * 7919))
	rows := 12 * keyFixtureChunk
	if kind == "ragged" {
		rows -= 7
	}
	tails := []string{"", "e", "ef", "efix-aa", "efix-zz", "efix-aa", "efix-mm"}
	shorts := []string{"shared", "sh", "sharedp", ""}
	key := func(i int) (meta string, loc int64) {
		switch kind {
		case "shared-prefix":
			meta = "sharedpr" + tails[rng.Intn(len(tails))]
			if rng.Intn(6) == 0 {
				meta = shorts[rng.Intn(len(shorts))]
			}
			if loc = 0x0102030400 + int64(rng.Intn(256)); rng.Intn(12) == 0 {
				loc = agd.UnmappedLocation
			}
			return meta, loc
		case "skewed":
			return fmt.Sprintf("sharedprefix-%d", i%3), []int64{7, 7000, agd.UnmappedLocation}[rng.Intn(3)]
		}
		loc = int64(rng.Intn(1_000_000))
		if rng.Intn(10) == 0 {
			loc = agd.UnmappedLocation
		}
		return fmt.Sprintf("read.%06d", rng.Intn(1_000_000)), loc
	}
	specs := append(agd.StandardReadColumns(), agd.ColumnSpec{Name: agd.ColResults, Type: agd.TypeResults})
	w, err := agd.NewWriter(store, name, specs, agd.WriterOptions{
		ChunkSize: keyFixtureChunk,
		RefSeqs:   []agd.RefSeq{{Name: "chr1", Length: 1 << 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		meta, loc := key(i)
		res := agd.Result{Location: loc, MateLocation: agd.UnmappedLocation, MapQ: uint8(rng.Intn(61)), Cigar: "30M"}
		if loc == agd.UnmappedLocation {
			res.Flags |= agd.FlagUnmapped
			res.Cigar = ""
		}
		if rng.Intn(5) == 0 {
			res.Flags |= agd.FlagDuplicate
		}
		bases := make([]byte, 30)
		quals := make([]byte, 30)
		for b := range bases {
			bases[b] = "ACGT"[rng.Intn(4)]
			quals[b] = byte('!' + rng.Intn(40))
		}
		if err := w.Append(bases, quals, []byte(meta), agd.EncodeResult(nil, &res)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return agd.OpenManifest(store, m)
}

// oracleWrite writes rows order[0], order[1], ... of ds as dataset "out" on a
// fresh store through a plain row-at-a-time Writer, chunked like ds, and
// returns the blobs.
func oracleWrite(t *testing.T, ds *agd.Dataset, order []int, sortedBy string) map[string][]byte {
	t.Helper()
	m := ds.Manifest
	cols := make([][][]byte, len(m.Columns))
	for c, name := range m.Columns {
		var err error
		if cols[c], err = ds.ReadAllColumn(name); err != nil { // stored representation
			t.Fatal(err)
		}
	}
	store := agd.NewMemStore()
	w, err := agd.NewWriter(store, "out", agd.SpecsForColumns(m.Columns), agd.WriterOptions{
		ChunkSize: int(m.Chunks[0].Records), RefSeqs: m.RefSeqs, SortedBy: sortedBy,
	})
	if err != nil {
		t.Fatal(err)
	}
	fields := make([][]byte, len(cols))
	for _, r := range order {
		for c := range cols {
			fields[c] = cols[c][r]
		}
		if err := w.AppendStored(fields...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return testutil.Blobs(t, store, "")
}

// sortOracle orders ds's rows by packed key, then full key bytes, then input
// position — a stable comparison sort over decoded rows.
func sortOracle(t *testing.T, ds *agd.Dataset, by SortKey) []int {
	t.Helper()
	keyCol, err := ds.ReadAllColumn(ds.Manifest.Columns[agdsort.KeyColumn(ds.Manifest.Columns, by)])
	if err != nil {
		t.Fatal(err)
	}
	packed := make([]uint64, len(keyCol))
	order := make([]int, len(keyCol))
	for r, rec := range keyCol {
		if packed[r], err = agdsort.PackRecordKey(rec, by); err != nil {
			t.Fatal(err)
		}
		order[r] = r
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if packed[a] != packed[b] {
			if packed[a] < packed[b] {
				return -1
			}
			return 1
		}
		if by == ByMetadata {
			return bytes.Compare(keyCol[a], keyCol[b])
		}
		return 0
	})
	return order
}

// outBlobs returns dataset "out" of store after checking that the operation
// that wrote it left nothing else behind (no spill, no temp) next to base.
func outBlobs(t *testing.T, how string, store, base agd.BlobStore) map[string][]byte {
	t.Helper()
	out := testutil.Blobs(t, store, "out/")
	if all, was := testutil.Blobs(t, store, ""), testutil.Blobs(t, base, ""); len(all) != len(was)+len(out) {
		t.Fatalf("%s: %d blobs in the store, want the input's %d and the output's %d", how, len(all), len(was), len(out))
	}
	return out
}

// eachPipeline runs build's pipeline to Write("out") on both drivers, each
// over a fresh copy of base, and hands back the output blobs.
func eachPipeline(t *testing.T, base agd.BlobStore, build func(*Pipeline) *Pipeline, check func(how string, out map[string][]byte)) {
	t.Helper()
	for _, serial := range []bool{true, false} {
		store := testutil.CopyStore(t, base)
		sess := NewSession(store, SessionOptions{})
		p := build(sess.Read("ds")).Write("out")
		how := "pumped pipeline"
		if serial {
			p, how = p.Serial(), "serial pipeline"
		}
		_, err := p.Run(context.Background())
		sess.Close()
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		check(how, outBlobs(t, how, store, base))
	}
}

func TestSortBlobIdentity(t *testing.T) {
	ctx := context.Background()
	for _, kind := range keyFixtures {
		for _, by := range []SortKey{ByLocation, ByMetadata} {
			t.Run(kind+"/"+by.String(), func(t *testing.T) {
				base := agd.NewMemStore()
				ds := writeKeyFixture(t, base, "ds", kind)
				want := oracleWrite(t, ds, sortOracle(t, ds, by), by.String())
				if len(want) != len(ds.Manifest.Chunks)*len(ds.Manifest.Columns)+1 {
					t.Fatalf("oracle wrote %d blobs", len(want))
				}
				for _, perRun := range []int{0, 2, 3} {
					store := testutil.CopyStore(t, base)
					if _, err := agdsort.Sort(ctx, store, "ds", agdsort.Options{By: by, ChunksPerSuperchunk: perRun, OutputName: "out"}); err != nil {
						t.Fatal(err)
					}
					how := fmt.Sprintf("Sort, %d chunks a run", perRun)
					testutil.SameBlobs(t, how, outBlobs(t, how, store, base), want)
				}
				store := testutil.CopyStore(t, base)
				if _, err := Sort(ctx, store, "ds", by, "out"); err != nil {
					t.Fatal(err)
				}
				testutil.SameBlobs(t, "persona.Sort", outBlobs(t, "persona.Sort", store, base), want)
				eachPipeline(t, base, func(p *Pipeline) *Pipeline { return p.Sort(by) }, func(how string, out map[string][]byte) {
					testutil.SameBlobs(t, how, out, want)
				})
			})
		}
	}
}

func TestFilterBlobIdentity(t *testing.T) {
	ctx := context.Background()
	// A region that holds some, not all, of each fixture's locations.
	regions := map[string]FilterPredicate{
		"uniform":       FilterRegion(250_000, 750_000),
		"ragged":        FilterRegion(250_000, 750_000),
		"shared-prefix": FilterRegion(0x0102030400+64, 0x0102030400+192),
		"skewed":        FilterRegion(0, 1000),
	}
	for _, kind := range keyFixtures {
		base := agd.NewMemStore()
		ds := writeKeyFixture(t, base, "ds", kind)
		results, err := ds.ReadAllColumn(agd.ColResults)
		if err != nil {
			t.Fatal(err)
		}
		preds := map[string]FilterPredicate{
			"mapped": FilterMappedOnly(),
			"mapq":   FilterMinMapQ(30),
			"nodups": FilterDropDuplicates(),
			"region": regions[kind],
		}
		for name, pred := range preds {
			// The row loop: decode, ask, keep.
			var keep []int
			for r, rec := range results {
				v, err := agd.DecodeResultView(rec)
				if err != nil {
					t.Fatal(err)
				}
				if pred(&v) {
					keep = append(keep, r)
				}
			}
			if len(keep) == 0 || len(keep) == len(results) {
				t.Fatalf("%s/%s keeps %d of %d rows: the fixture should split", kind, name, len(keep), len(results))
			}
			t.Run(kind+"/"+name, func(t *testing.T) {
				want := oracleWrite(t, ds, keep, "")
				store := testutil.CopyStore(t, base)
				_, stats, err := Filter(ctx, store, "ds", pred, "out")
				if err != nil {
					t.Fatal(err)
				}
				if stats.In != ds.NumRecords() || stats.Kept != uint64(len(keep)) {
					t.Fatalf("stats %+v, the row loop kept %d of %d", stats, len(keep), ds.NumRecords())
				}
				testutil.SameBlobs(t, "persona.Filter", outBlobs(t, "persona.Filter", store, base), want)
				eachPipeline(t, base, func(p *Pipeline) *Pipeline { return p.Filter(pred) }, func(how string, out map[string][]byte) {
					testutil.SameBlobs(t, how, out, want)
				})
			})
		}
	}
}
