package persona

// Blob-level identity of the dataset-to-dataset operations: however a sort or
// a filter is run — free function, fused pipeline on either driver, any run
// fan-in — the output dataset is the one a few lines of obviously correct
// code write: same blob names, same bytes, manifest included.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/genome"
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
	fields := make([][][]byte, rows)
	for i := range fields {
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
		fields[i] = [][]byte{bases, quals, []byte(meta), agd.EncodeResult(nil, &res)}
	}
	m, err := testutil.WriteRows(store, name, agd.StreamMeta{
		Columns:   []string{agd.ColBases, agd.ColQual, agd.ColMetadata, agd.ColResults},
		RefSeqs:   []agd.RefSeq{{Name: "chr1", Length: 1 << 40}},
		ChunkSize: keyFixtureChunk,
	}, fields)
	if err != nil {
		t.Fatal(err)
	}
	return agd.OpenManifest(store, m)
}

// oracleWrite writes rows order[0], order[1], ... of ds as dataset "out" on a
// fresh store through the record-at-a-time source, chunked like ds, and
// returns the blobs.
func oracleWrite(t *testing.T, ds *agd.Dataset, order []int, sortedBy string) map[string][]byte {
	t.Helper()
	m := ds.Manifest
	cols := make([][][]byte, len(m.Columns))
	for c, name := range m.Columns {
		var err error
		if name == agd.ColBases {
			cols[c], err = ds.ReadAllBases() // letters, as the source takes them
		} else {
			cols[c], err = ds.ReadAllColumn(name)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	rows := make([][][]byte, len(order))
	for i, r := range order {
		rows[i] = make([][]byte, len(cols))
		for c := range cols {
			rows[i][c] = cols[c][r]
		}
	}
	store := agd.NewMemStore()
	meta := agd.StreamMeta{Columns: m.Columns, RefSeqs: m.RefSeqs, SortedBy: sortedBy, ChunkSize: int(m.Chunks[0].Records)}
	if _, err := testutil.WriteRows(store, "out", meta, rows); err != nil {
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
// that wrote it left nothing else behind (no temp) next to base.
func outBlobs(t *testing.T, how string, store, base agd.BlobStore) map[string][]byte {
	t.Helper()
	out := testutil.Blobs(t, store, "out/")
	if all, was := testutil.Blobs(t, store, ""), testutil.Blobs(t, base, ""); len(all) != len(was)+len(out) {
		t.Fatalf("%s: %d blobs in the store, want the input's %d and the output's %d", how, len(all), len(was), len(out))
	}
	return out
}

// sortInto sorts dataset "ds" of store into "out" through the sort stage
// alone — a dataset source, agdsort.SortStream, a dataset sink — so that
// opts can vary what the one-shot Sort fixes, the chunks a run.
func sortInto(t *testing.T, store agd.BlobStore, opts agdsort.Options) {
	t.Helper()
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	in, err := ds.Groups(agd.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := agdsort.SortStream(context.Background(), store, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if _, err := agd.WriteGroups(context.Background(), out, store, "out", agd.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
}

// eachPipeline runs build's pipeline to Write("out") under both schedules,
// each over a fresh copy of base, and hands back the output blobs.
func eachPipeline(t *testing.T, base agd.BlobStore, build func(*Pipeline) *Pipeline, check func(how string, out map[string][]byte)) {
	t.Helper()
	for _, sch := range schedules {
		store := testutil.CopyStore(t, base)
		sess := NewSession(store, SessionOptions{})
		how := sch.name + " pipeline"
		_, err := sch.apply(build(sess.Read("ds")).Write("out")).Run(context.Background())
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
					sortInto(t, store, agdsort.Options{By: by, ChunksPerSuperchunk: perRun})
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

// blobsSHA256 is the SHA-256 over every blob under prefix in name order: each
// blob's name and size, then its bytes.
func blobsSHA256(t *testing.T, store agd.BlobStore, prefix string) string {
	t.Helper()
	blobs := testutil.Blobs(t, store, prefix)
	names := make([]string, 0, len(blobs))
	for name := range blobs {
		names = append(names, name)
	}
	slices.Sort(names)
	sum := sha256.New()
	for _, name := range names {
		fmt.Fprintf(sum, "%s %d\n", name, len(blobs[name]))
		sum.Write(blobs[name])
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// TestImportSAMBlobIdentity pins every blob ImportSAM writes for the SAM
// export of an aligned fixture: at chunks of 50 records, which no codec
// splits, and of 1000, whose columns a codec of four workers writes as
// version-2 chunks of several gzip members and a codec of one as single
// members.
func TestImportSAMBlobIdentity(t *testing.T) {
	ctx := context.Background()
	src := agd.NewMemStore()
	testutil.Build(t, src, "ds", testutil.Config{GenomeSize: 100_000, NumReads: 2000, ReadLen: 101, ChunkSize: 100, Seed: 31})
	var text bytes.Buffer
	if _, err := ExportSAM(ctx, src, "ds", &text); err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]string{
		{1, 50}:   "9260d094550d47708a5e6a6a81d1fd84e2a990a91b2af7f07da13fec0ba78629",
		{4, 50}:   "9260d094550d47708a5e6a6a81d1fd84e2a990a91b2af7f07da13fec0ba78629",
		{1, 1000}: "918e64b834ab806403710abdfd80a5f920ecb7a09db4f6f61a4d92f637bba705",
		{4, 1000}: "4f0fb13b706b159bb8d85eb0fc6a0875f002e3109e965883370badf914eae3fc",
	}
	for _, procs := range []int{1, 4} {
		for _, chunk := range []int{50, 1000} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				store := agd.NewMemStore()
				_, n, err := ImportSAM(ctx, store, "sam", bytes.NewReader(text.Bytes()), chunk)
				if err != nil {
					t.Fatal(err)
				}
				if n != 2000 {
					t.Fatalf("GOMAXPROCS %d, chunks of %d: imported %d records, want 2000", procs, chunk, n)
				}
				if got := blobsSHA256(t, store, ""); got != want[[2]int{procs, chunk}] {
					t.Errorf("GOMAXPROCS %d, chunks of %d: SHA-256 %s, want %s", procs, chunk, got, want[[2]int{procs, chunk}])
				}
			}()
		}
	}
}

// TestCallVariantsVCFIdentity pins the VCF CallVariants and WriteVCF render
// for an aligned fixture whose duplicates are marked, called against its
// reference with thirty bases changed: the reads disagree with the reference
// there, and agree with it nearly everywhere else.
func TestCallVariantsVCFIdentity(t *testing.T) {
	ctx := context.Background()
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{GenomeSize: 60_000, NumReads: 4000, ReadLen: 101, ChunkSize: 250, DupFrac: 0.05, Seed: 37})
	if _, err := MarkDuplicates(ctx, store, "ds"); err != nil {
		t.Fatal(err)
	}
	seq := append([]byte(nil), f.Genome.Seq()...)
	rng := rand.New(rand.NewSource(38))
	for changed := 0; changed < 30; {
		pos := 200 + rng.Intn(len(seq)-400)
		if alt := "ACGT"[rng.Intn(4)]; seq[pos] != 'N' && alt != seq[pos] {
			seq[pos] = alt
			changed++
		}
	}
	var contigs []genome.Contig
	for _, c := range f.Genome.Contigs() {
		contigs = append(contigs, genome.Contig{Name: c.Name, Seq: seq[c.Offset : c.Offset+int64(len(c.Seq))]})
	}
	ref, err := genome.New(contigs)
	if err != nil {
		t.Fatal(err)
	}
	variants, err := CallVariants(ctx, store, "ds", ref)
	if err != nil {
		t.Fatal(err)
	}
	var vcf bytes.Buffer
	if err := WriteVCF(&vcf, ref, variants); err != nil {
		t.Fatal(err)
	}
	const want = "95899806da831d2d6990d52856a693bb5728febe5615b726c8e6a00d62e4b9f4"
	sum := sha256.Sum256(vcf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("VCF of %d variants, %d bytes: SHA-256 %s, want %s", len(variants), vcf.Len(), got, want)
	}
}

// TestThreeBitDatasetReadsBack reads testdata/three-bit, a dataset as earlier
// releases stored it, its bases column 3 bits a base: 240 reads of 60-140
// bases in chunks of 100, among them N runs at either end, lower-case reads,
// IUPAC codes and reads of N alone. Its FASTQ export and its letters are
// what the release that wrote it read from it, and a pipeline copying it
// stores packed, uncompressed bases that read back the same.
func TestThreeBitDatasetReadsBack(t *testing.T) {
	const (
		wantFASTQ   = "826344f8bccf0ad9a7dc28fec36245a8c47cdac85cb89d84b37d0090690f4f19"
		wantLetters = "a00c9367f1f31e8f18ac525b5c584c8fa2ef9e8544bd1fa68f9f97541287c956"
	)
	ctx := context.Background()
	store := agd.NewMemStore()
	files, err := filepath.Glob("testdata/three-bit/*")
	if err != nil || len(files) != 10 {
		t.Fatalf("testdata/three-bit: %d files, %v", len(files), err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put("three-bit/"+filepath.Base(f), data); err != nil {
			t.Fatal(err)
		}
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()
	if _, err := sess.Read("three-bit").Write("packed").Run(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"three-bit", "packed"} {
		var fq bytes.Buffer
		if _, err := ExportFASTQ(ctx, store, name, &fq); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(fq.Bytes())
		if got := hex.EncodeToString(sum[:]); got != wantFASTQ {
			t.Errorf("%s: FASTQ export SHA-256 %s, want %s", name, got, wantFASTQ)
		}
		ds, err := agd.Open(store, name)
		if err != nil {
			t.Fatal(err)
		}
		bases, err := ds.ReadAllBases()
		if err != nil {
			t.Fatal(err)
		}
		letters := sha256.New()
		for _, b := range bases {
			letters.Write(b)
			letters.Write([]byte{'\n'})
		}
		if got := hex.EncodeToString(letters.Sum(nil)); got != wantLetters {
			t.Errorf("%s: letters SHA-256 %s, want %s", name, got, wantLetters)
		}
	}
	for i := 0; i < 3; i++ {
		blob, err := store.Get(fmt.Sprintf("packed/chunk-%06d.bases", i))
		if err != nil {
			t.Fatal(err)
		}
		if blob[5] != byte(agd.TypePackedBases) || blob[6] != byte(agd.CompressNone) {
			t.Errorf("copied bases chunk %d: record type %d, compression %d", i, blob[5], blob[6])
		}
	}
}
