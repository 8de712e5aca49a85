package agd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"testing"
)

// writeTestDataset builds a small 3-column dataset with n records and chunk
// size cs.
func writeTestDataset(t testing.TB, store BlobStore, name string, n, cs int) *Manifest {
	t.Helper()
	rows := make([][][]byte, n)
	for i := range rows {
		bases := []byte("ACGTACGTAC")
		qual := bytes.Repeat([]byte("I"), len(bases))
		meta := []byte(fmt.Sprintf("read.%d", i))
		rows[i] = [][]byte{PackBases(nil, bases), qual, meta}
	}
	return writeRows(t, store, name, StreamMeta{
		Columns:   []string{ColBases, ColQual, ColMetadata},
		RefSeqs:   []RefSeq{{Name: "chr1", Length: 1000}},
		ChunkSize: cs,
	}, rows)
}

func TestDatasetWriteRead(t *testing.T) {
	store := NewMemStore()
	m := writeTestDataset(t, store, "ds", 25, 10)
	if len(m.Chunks) != 3 { // 10+10+5
		t.Fatalf("chunks = %d, want 3", len(m.Chunks))
	}
	if m.NumRecords() != 25 {
		t.Fatalf("NumRecords = %d, want 25", m.NumRecords())
	}

	ds, err := Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	bases, err := ds.ReadAllBases()
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) != 25 {
		t.Fatalf("bases = %d records", len(bases))
	}
	for _, b := range bases {
		if string(b) != "ACGTACGTAC" {
			t.Fatalf("bases = %q", b)
		}
	}
	metas, err := ds.ReadAllColumn(ColMetadata)
	if err != nil {
		t.Fatal(err)
	}
	for i, meta := range metas {
		if string(meta) != fmt.Sprintf("read.%d", i) {
			t.Fatalf("meta[%d] = %q", i, meta)
		}
	}
	if ds.Manifest.RefSeqs[0].Name != "chr1" {
		t.Fatal("ref seqs not preserved")
	}
}

func TestDatasetSelectiveColumnAccess(t *testing.T) {
	// Reading one column must not touch the other columns' blobs: count Get
	// calls through a spying store.
	spy := &spyStore{BlobStore: NewMemStore()}
	writeTestDataset(t, spy, "ds", 10, 10)
	spy.gets = nil
	ds, err := Open(spy, "ds")
	if err != nil {
		t.Fatal(err)
	}
	gs, err := ds.Groups(StreamOptions{Columns: []string{ColQual}, End: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	if _, err := gs.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, name := range spy.gets {
		if bytes.Contains([]byte(name), []byte(".bases")) || bytes.Contains([]byte(name), []byte(".metadata")) {
			t.Fatalf("reading qual touched %q", name)
		}
	}
}

type spyStore struct {
	BlobStore
	gets []string
}

func (s *spyStore) Get(name string) ([]byte, error) {
	s.gets = append(s.gets, name)
	return s.BlobStore.Get(name)
}

func TestDatasetErrors(t *testing.T) {
	store := NewMemStore()
	writeTestDataset(t, store, "ds", 5, 10)
	ds, err := Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Groups(StreamOptions{Columns: []string{"nope"}}); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("unknown column: err = %v", err)
	}
	past, err := ds.Groups(StreamOptions{Start: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer past.Close()
	if g, err := past.Next(context.Background()); err != io.EOF {
		t.Fatalf("chunks past the end: group %v, err = %v", g, err)
	}
	if _, err := Open(store, "missing"); err == nil {
		t.Fatal("missing dataset opened")
	}
}

// TestWriterValidation holds the dataset sinks to what they refuse: no name,
// no columns, duplicate columns, a row short of fields and a dataset with no
// records.
func TestWriterValidation(t *testing.T) {
	ctx := context.Background()
	store := NewMemStore()
	meta := StreamMeta{Columns: []string{ColBases, ColQual, ColMetadata}, ChunkSize: 4}
	row := [][]byte{PackBases(nil, []byte("AC")), []byte("II"), []byte("r")}
	short := groupsOf(StreamMeta{Columns: meta.Columns[:1]}, [][][]byte{row}, []int{1})
	short.Meta = meta // groups of one column in a stream of three
	for what, tc := range map[string]struct {
		name string
		in   *GroupStream
	}{
		"empty name":        {"", groupsOf(meta, [][][]byte{row}, []int{1})},
		"no columns":        {"x", groupsOf(StreamMeta{}, nil, nil)},
		"duplicate columns": {"x", groupsOf(StreamMeta{Columns: []string{"a", "a"}}, [][][]byte{{nil, nil}}, []int{1})},
		"wrong field count": {"x", short},
		"no records":        {"x", groupsOf(meta, nil, []int{0})},
	} {
		if _, err := WriteGroups(ctx, tc.in, store, tc.name, WriterOptions{}); err == nil {
			t.Errorf("%s accepted", what)
		}
		if left, _ := store.List(""); len(left) != 0 {
			t.Fatalf("%s: %d blobs written", what, len(left))
		}
	}
}

// TestAppendColumnRowGrouped adds a results column to a dataset through the
// one column ending (AddColumn running WriteColumn), row-grouped with the
// existing chunks; a misaligned column is refused and leaves no blob, and
// writing the column again rewrites it in place.
func TestAppendColumnRowGrouped(t *testing.T) {
	ctx := context.Background()
	store := NewMemStore()
	m := writeTestDataset(t, store, "ds", 25, 10)

	column := func(loc func(i int) int64) [][][]byte {
		rows := make([][][]byte, 25)
		for i := range rows {
			rows[i] = [][]byte{EncodeResult(nil, &Result{Location: loc(i), MapQ: 60, Cigar: "10M"})}
		}
		return rows
	}
	results := StreamMeta{Columns: []string{ColResults}}
	add := func(m *Manifest, rows [][][]byte, sizes []int) (*Manifest, error) {
		return AddColumn(store, m, ColResults, func() error {
			return WriteColumn(ctx, groupsOf(results, rows, sizes), store, m, ColResults, Codec{})
		})
	}
	check := func(m *Manifest, loc func(i int) int64) {
		t.Helper()
		got, err := OpenManifest(store, m).ReadAllResults()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 25 {
			t.Fatalf("results = %d", len(got))
		}
		for i, r := range got {
			if r.Location != loc(i) {
				t.Fatalf("result %d location = %d", i, r.Location)
			}
		}
	}

	// A misaligned column fails and leaves no blob of it.
	if _, err := add(m, column(func(i int) int64 { return 0 }), []int{10, 9, 6}); !errors.Is(err, ErrRowGroup) {
		t.Fatalf("misaligned column: err = %v", err)
	}
	if left, _ := store.List(""); len(left) != 1+3*3 {
		t.Fatalf("a failed column left %d blobs, want the dataset's 10", len(left))
	}

	loc := func(i int) int64 { return int64(i * 100) }
	m2, err := add(m, column(loc), []int{10, 10, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !m2.HasColumn(ColResults) {
		t.Fatal("results column missing after append")
	}
	if m2, err := Open(store, "ds"); err != nil || !m2.Manifest.HasColumn(ColResults) {
		t.Fatalf("stored manifest lacks the column (%v)", err)
	}
	check(m2, loc)

	// The same column again is a rewrite: new blobs, the same manifest.
	again := func(i int) int64 { return int64(i) }
	m3, err := add(m2, column(again), []int{10, 10, 5})
	if err != nil {
		t.Fatal(err)
	}
	if m3 != m2 {
		t.Fatal("rewriting a column changed the manifest")
	}
	check(m3, again)
}

func TestReconstructManifest(t *testing.T) {
	store := NewMemStore()
	orig := writeTestDataset(t, store, "ds", 25, 10)
	// Lose the manifest; reconstruct from chunk blobs.
	if err := store.Delete("ds/manifest.json"); err != nil {
		t.Fatal(err)
	}
	rec, err := ReconstructManifest(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	if rec.NumRecords() != orig.NumRecords() {
		t.Fatalf("reconstructed records = %d, want %d", rec.NumRecords(), orig.NumRecords())
	}
	if len(rec.Chunks) != len(orig.Chunks) {
		t.Fatalf("reconstructed chunks = %d, want %d", len(rec.Chunks), len(orig.Chunks))
	}
	if len(rec.Columns) != len(orig.Columns) {
		t.Fatalf("reconstructed columns = %v, want %v", rec.Columns, orig.Columns)
	}
}

func TestManifestValidate(t *testing.T) {
	bad := &Manifest{Name: "x", Columns: []string{"a"}, Chunks: []ChunkEntry{
		{Path: "x/chunk-0", First: 0, Records: 10},
		{Path: "x/chunk-1", First: 99, Records: 10}, // gap
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("gap in ordinals accepted")
	}
}

// TestReadManifestRejectsOtherName: a manifest stored as dataset "ds" that
// names itself "other" does not open as "ds", which a write-back would store
// as other/manifest.json.
func TestReadManifestRejectsOtherName(t *testing.T) {
	store := NewMemStore()
	m := writeTestDataset(t, store, "ds", 5, 10)
	other := *m
	other.Name = "other"
	data, err := json.Marshal(&other)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("ds/manifest.json", data); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadManifest(store, "ds"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadManifest(ds) of a manifest naming %q: %+v, %v; want ErrCorrupt", other.Name, got, err)
	}
	if _, err := Open(store, "ds"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(ds): %v, want ErrCorrupt", err)
	}
}

func TestDeleteDataset(t *testing.T) {
	store := NewMemStore()
	writeTestDataset(t, store, "ds", 5, 10)
	if err := DeletePrefix(store, "ds/"); err != nil {
		t.Fatal(err)
	}
	names, err := store.List("ds/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("blobs remain after delete: %v", names)
	}
}

func TestDirStore(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTestDataset(t, store, "ds", 12, 5)
	ds, err := Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	bases, err := ds.ReadAllBases()
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) != 12 {
		t.Fatalf("bases = %d", len(bases))
	}
	if _, err := store.Get("nope"); err == nil {
		t.Fatal("missing blob fetched")
	}
	if err := store.Delete("nope"); err != nil {
		t.Fatalf("Delete of missing blob: %v", err)
	}
}

func TestMemStoreIsolation(t *testing.T) {
	store := NewMemStore()
	data := []byte("abc")
	if err := store.Put("k", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // caller mutation must not affect stored blob
	got, err := store.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("stored blob mutated: %q", got)
	}
	if store.Size() != 3 {
		t.Fatalf("Size = %d", store.Size())
	}
}
