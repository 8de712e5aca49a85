package agd_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"persona/internal/agd"
	"persona/internal/dataflow"
	"persona/internal/testutil"
)

// sinkChunk is the output chunk size of the dataset-sink tests.
const sinkChunk = 8

var sinkColumns = []string{agd.ColBases, agd.ColQual, agd.ColMetadata}

// sinkRows returns n rows of the three read columns in stored representation.
func sinkRows(n int) [][][]byte {
	rng := rand.New(rand.NewSource(int64(n)))
	rows := make([][][]byte, n)
	for r := range rows {
		bases := make([]byte, 5+rng.Intn(40))
		quals := make([]byte, len(bases))
		for i := range bases {
			bases[i] = "ACGTN"[rng.Intn(5)]
			quals[i] = byte('!' + rng.Intn(40))
		}
		rows[r] = [][]byte{agd.PackBases(nil, bases), quals, []byte(fmt.Sprintf("read.%d/%d", r, rng.Intn(1000)))}
	}
	return rows
}

// sinkSource delivers rows as a GroupStream in groups of the given sizes and
// counts every group's releases. An owned source builds each group in a set
// of a small BuilderPool, returned on Release, as every stage does; an
// unowned one rebuilds one set on every pull, so a sink that kept a group
// past the next pull would write the wrong bytes.
type sinkSource struct {
	pool      *agd.BuilderPool
	delivered int
	releases  []atomic.Int32
}

func (s *sinkSource) stream(rows [][][]byte, sizes []int, owned, wrongOrdinal bool) *agd.GroupStream {
	specs := agd.SpecsForColumns(sinkColumns)
	s.releases = make([]atomic.Int32, len(sizes))
	fixed := &agd.BuilderSet{}
	for _, sp := range specs {
		fixed.Builders = append(fixed.Builders, agd.NewChunkBuilder(sp.Type, 0))
	}
	if owned {
		s.pool = agd.NewBuilderPool(3, specs)
	}
	meta := agd.StreamMeta{Columns: sinkColumns, ChunkSize: sinkChunk}
	next, idx := 0, 0
	return agd.NewGroupStream(meta, func(ctx context.Context) (*agd.RowGroup, error) {
		if idx == len(sizes) {
			return nil, io.EOF
		}
		ord := uint64(next)
		if wrongOrdinal {
			ord = 1_000_000 - 3*ord // what a filtered or re-chunked group carries
		}
		set := fixed
		if owned {
			var err error
			if set, err = s.pool.Get(ctx); err != nil {
				return nil, err
			}
		}
		for c, sp := range specs {
			set.Builders[c].Reset(sp.Type, ord)
			for _, row := range rows[next : next+sizes[idx]] {
				set.Builders[c].Append(row[c])
			}
		}
		i := idx
		g := agd.NewRowGroup(i, 0, set.Chunks(), func() {
			s.releases[i].Add(1)
			if owned {
				set.Release()
			}
		})
		next += sizes[idx]
		idx++
		s.delivered = idx
		return g, nil
	}, nil)
}

// check demands that every group delivered was released exactly once and
// that an owned source has all its builder sets back.
func (s *sinkSource) check(t *testing.T) {
	t.Helper()
	for i := 0; i < s.delivered; i++ {
		if n := s.releases[i].Load(); n != 1 {
			t.Fatalf("group %d released %d times", i, n)
		}
	}
	if s.pool != nil && s.pool.Free() != s.pool.Size() {
		t.Fatalf("%d of %d builder sets back in the pool", s.pool.Free(), s.pool.Size())
	}
}

// rowAtATime writes rows through the row-at-a-time oracle, one Append a row:
// the reference every WriteGroups route must reproduce byte for byte.
func rowAtATime(t *testing.T, rows [][][]byte) map[string][]byte {
	t.Helper()
	store := agd.NewMemStore()
	w := agd.NewRowWriter(store, "out", agd.StreamMeta{Columns: sinkColumns, ChunkSize: sinkChunk})
	for _, row := range rows {
		if err := w.Append(row...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return testutil.Blobs(t, store, "")
}

var sinkPatterns = map[string][]int{
	"all aligned":             {8, 8, 8, 8},
	"aligned, ragged tail":    {8, 8, 8, 5},
	"one short group":         {3},
	"one-row groups":          {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
	"straddling":              {7, 9, 8, 8, 3, 13, 8, 2},
	"aligned while half full": {4, 8, 8, 4, 8, 8, 6},
	"larger than a chunk":     {20, 4, 8, 17},
	"empty groups":            {8, 0, 8, 0, 5},
}

// TestWriteGroupsMatchesRowAtATime holds the whole-group store to the
// row-at-a-time oracle: whatever sizes the groups come in, owned or not,
// whatever ordinals the groups carry, encoded on the caller or on an executor
// (flush is the width of the executor the sink's codec runs on; 0: none) —
// the same blobs and manifest, and every group released exactly once.
func TestWriteGroupsMatchesRowAtATime(t *testing.T) {
	for name, sizes := range sinkPatterns {
		n := 0
		for _, s := range sizes {
			n += s
		}
		rows := sinkRows(n)
		want := rowAtATime(t, rows)
		for v := 0; v < 8; v++ {
			owned, wrongOrdinal, flushers := v&1 != 0, v&2 != 0, 3*(v>>2)
			t.Run(fmt.Sprintf("%s/owned=%v,wrongOrdinal=%v,flush=%d", name, owned, wrongOrdinal, flushers), func(t *testing.T) {
				var opts agd.WriterOptions
				if flushers > 0 {
					exec := dataflow.NewExecutor(flushers, 2*flushers)
					defer exec.Close()
					opts.Codec.Exec = exec
				}
				var src sinkSource
				store := agd.NewMemStore()
				m, err := agd.WriteGroups(context.Background(), src.stream(rows, sizes, owned, wrongOrdinal), store, "out", opts)
				if err != nil {
					t.Fatal(err)
				}
				if m.NumRecords() != uint64(n) {
					t.Fatalf("manifest counts %d records, wrote %d", m.NumRecords(), n)
				}
				testutil.SameBlobs(t, "WriteGroups", testutil.Blobs(t, store, ""), want)
				if src.delivered != len(sizes) {
					t.Fatalf("the sink drew %d of %d groups", src.delivered, len(sizes))
				}
				src.check(t)
			})
		}
	}
}

// TestWriteChunks holds the manifest-less sink to the dataset sink: the same
// chunk entries and the same blobs as WriteGroups of the same stream, less the
// manifest; and for a stream without records no entry and no blob, where
// WriteGroups fails; and after a failing Put nothing another attempt stored is
// gone.
func TestWriteChunks(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"all aligned", "aligned, ragged tail", "one short group", "straddling"} {
		sizes := sinkPatterns[name]
		n := 0
		for _, s := range sizes {
			n += s
		}
		rows := sinkRows(n)
		for _, owned := range []bool{false, true} {
			var ref, src sinkSource
			refStore, store := agd.NewMemStore(), agd.NewMemStore()
			m, err := agd.WriteGroups(ctx, ref.stream(rows, sizes, owned, false), refStore, "out", agd.WriterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			entries, err := agd.WriteChunks(ctx, src.stream(rows, sizes, owned, false), store, "out", agd.WriterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(entries, m.Chunks) {
				t.Fatalf("%s: entries %v, WriteGroups' manifest has %v", name, entries, m.Chunks)
			}
			want := testutil.Blobs(t, refStore, "")
			delete(want, "out/manifest.json")
			testutil.SameBlobs(t, name, testutil.Blobs(t, store, ""), want)
			src.check(t)
		}
	}

	for name, sizes := range map[string][]int{"no groups": {}, "empty groups": {0, 0}} {
		var src sinkSource
		store := agd.NewMemStore()
		entries, err := agd.WriteChunks(ctx, src.stream(nil, sizes, true, false), store, "out", agd.WriterOptions{})
		if err != nil || len(entries) != 0 {
			t.Fatalf("%s: entries %v, error %v", name, entries, err)
		}
		if left := testutil.Blobs(t, store, ""); len(left) != 0 {
			t.Fatalf("%s: %d blobs written", name, len(left))
		}
		src.check(t)
	}

	// A failed write deletes nothing: its chunk names are shared with every
	// other attempt at the same partition. Over a store another attempt
	// already filled, failing any one Put leaves that attempt's blobs whole;
	// over an empty store it leaves only blobs a clean write stores too, and
	// the retry completes them. Either way every group is released.
	sizes := []int{8, 8, 4, 8, 8, 8, 3}
	rows := sinkRows(47)
	write := func(store agd.BlobStore) (*sinkSource, error) {
		src := &sinkSource{}
		_, err := agd.WriteChunks(ctx, src.stream(rows, sizes, true, false), store, "out", agd.WriterOptions{})
		return src, err
	}
	survivor := agd.NewMemStore()
	if _, err := write(survivor); err != nil {
		t.Fatal(err)
	}
	want := testutil.Blobs(t, survivor, "")
	if len(want) != 6*len(sinkColumns) {
		t.Fatalf("a clean write put %d blobs, want %d", len(want), 6*len(sinkColumns))
	}
	for k := range len(want) {
		for _, filled := range []bool{true, false} {
			base := agd.NewMemStore()
			if filled {
				base = testutil.CopyStore(t, survivor)
			}
			src, err := write(&failPut{BlobStore: base, k: int32(k)})
			if err == nil {
				t.Fatalf("put %d failed, the write did not", k)
			}
			src.check(t)
			left := testutil.Blobs(t, base, "")
			if filled {
				testutil.SameBlobs(t, fmt.Sprintf("survivor's blobs after failing put %d", k), left, want)
			}
			for name, blob := range left {
				if string(blob) != string(want[name]) {
					t.Fatalf("failing put %d left blob %q that a clean write does not store", k, name)
				}
			}
			if src, err = write(base); err != nil {
				t.Fatalf("retry after failing put %d: %v", k, err)
			}
			src.check(t)
			testutil.SameBlobs(t, fmt.Sprintf("retry after failing put %d", k), testutil.Blobs(t, base, ""), want)
		}
	}
}

// failPut fails the k-th Put (from 0) and counts them all.
type failPut struct {
	agd.BlobStore
	k    int32
	puts atomic.Int32
}

func (f *failPut) Put(name string, data []byte) error {
	if f.puts.Add(1)-1 == f.k {
		return fmt.Errorf("put %d (%s): injected", f.k, name)
	}
	return f.BlobStore.Put(name, data)
}

// TestWriteGroupsFailureLeavesNothing fails every Put of a dataset write in
// turn, groups stored whole and row by row alike: the write must fail with no
// column blob left for a dataset that got no manifest, every group released
// and every builder set back in its pool. A malformed group fails the same
// way, a column of records of another type than its name takes included.
func TestWriteGroupsFailureLeavesNothing(t *testing.T) {
	sizes := []int{8, 8, 4, 8, 8, 8, 3}
	rows := sinkRows(47)
	for _, owned := range []bool{true, false} {
		for k := int32(0); ; k++ {
			src := &sinkSource{}
			store := &failPut{BlobStore: agd.NewMemStore(), k: k}
			_, err := agd.WriteGroups(context.Background(), src.stream(rows, sizes, owned, false), store, "out", agd.WriterOptions{})
			if k >= store.puts.Load() {
				if want := int32(6*len(sinkColumns) + 1); err != nil || k != want {
					t.Fatalf("owned=%v: a clean write put %d blobs (error %v), want %d", owned, k, err, want)
				}
				break
			}
			if err == nil {
				t.Fatalf("owned=%v: put %d failed, the write did not", owned, k)
			}
			if left := testutil.Blobs(t, store, ""); len(left) != 0 {
				t.Fatalf("owned=%v: failing put %d left %d blobs behind", owned, k, len(left))
			}
			src.check(t)
		}
	}

	for what, spoil := range map[string]func(g *agd.RowGroup){
		"a column short of rows": func(g *agd.RowGroup) { g.Chunks[1] = agd.NewChunkBuilder(agd.TypeRaw, 0).Chunk() },
		"a column missing":       func(g *agd.RowGroup) { g.Chunks = g.Chunks[:2] },
		"3-bit bases": func(g *agd.RowGroup) {
			b := agd.NewChunkBuilder(agd.TypeCompactBases, g.Chunks[0].FirstOrdinal)
			for range g.Chunks[0].NumRecords() {
				b.Append(agd.CompactBases(nil, []byte("ACGT")))
			}
			g.Chunks[0] = b.Chunk()
		},
	} {
		src := &sinkSource{}
		good := src.stream(rows, sizes, true, false)
		pulls := 0
		bad := agd.NewGroupStream(good.Meta, func(ctx context.Context) (*agd.RowGroup, error) {
			g, err := good.Next(ctx)
			if pulls++; err == nil && pulls == 4 {
				spoil(g)
			}
			return g, err
		}, nil)
		store := agd.NewMemStore()
		_, err := agd.WriteGroups(context.Background(), bad, store, "out", agd.WriterOptions{})
		if err == nil {
			t.Fatalf("%s: write succeeded", what)
		}
		if what == "a column short of rows" && !errors.Is(err, agd.ErrRowGroup) {
			t.Fatalf("%s: error %v, want ErrRowGroup", what, err)
		}
		if left := testutil.Blobs(t, store, ""); len(left) != 0 {
			t.Fatalf("%s: %d blobs left behind", what, len(left))
		}
		src.check(t)
	}
}

// putBuffers records the backing array of every blob Put.
type putBuffers struct {
	agd.BlobStore
	mu   sync.Mutex
	bufs map[string]*byte
}

func (s *putBuffers) Put(name string, data []byte) error {
	s.mu.Lock()
	s.bufs[name] = unsafe.SliceData(data)
	s.mu.Unlock()
	return s.BlobStore.Put(name, data)
}

// TestSinkReusesBlobBuffers: the sink encodes a chunk's blobs into the
// buffers of the chunk two before it, which the store keeps no reference to
// (BlobStore.Put). Of three like chunks, the third is stored from the
// first's buffers, column by column, and the second from buffers of its own.
func TestSinkReusesBlobBuffers(t *testing.T) {
	store := &putBuffers{BlobStore: agd.NewMemStore(), bufs: map[string]*byte{}}
	rows := make([][][]byte, 3*sinkChunk)
	for i := range rows {
		rows[i] = [][]byte{[]byte("ACGTACGTAC"), []byte("IIIIIIIIII"), fmt.Appendf(nil, "read-%04d", i)}
	}
	meta := agd.StreamMeta{Columns: []string{agd.ColBases, agd.ColQual, agd.ColMetadata}, ChunkSize: sinkChunk}
	if _, err := testutil.WriteRows(store, "ds", meta, rows); err != nil {
		t.Fatal(err)
	}
	for _, col := range meta.Columns {
		buf := func(i int) *byte { return store.bufs[agd.ChunkEntryPath("ds", i)+"."+col] }
		if buf(0) == nil || buf(2) != buf(0) {
			t.Errorf("column %s: chunk 2 stored from %p, chunk 0 from %p: the buffer was not reused", col, buf(2), buf(0))
		}
		if buf(1) == buf(0) {
			t.Errorf("column %s: chunks 0 and 1 stored from one buffer", col)
		}
	}
}
