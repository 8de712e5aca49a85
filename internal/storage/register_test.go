package storage

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"persona/internal/agd"
	"persona/internal/testutil"
)

// getOnly hides every method of the wrapped store but the BlobStore ones, so
// agd.AsyncOf and agd.RangeOf see a store with nothing but Get.
type getOnly struct{ agd.BlobStore }

// TestRegisterColumnChecksEveryStore registers a column whose chunk 1 is
// bad on every kind of store a dataset can sit on: native, wrapped, and
// reachable only through Get. Each must reject the column, name the chunk,
// and leave the stored manifest as it was.
func TestRegisterColumnChecksEveryStore(t *testing.T) {
	stores := map[string]func(t *testing.T) Store{
		"mem": func(*testing.T) Store { return agd.NewMemStore() },
		"dir": func(t *testing.T) Store {
			s, err := agd.NewDirStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"retry(mem)": func(*testing.T) Store { return NewRetryStore(agd.NewMemStore(), RetryPolicy{}) },
		"fault(mem)": func(t *testing.T) Store {
			fs := NewFaultStore(agd.NewMemStore(), FaultPolicy{})
			t.Cleanup(fs.Close)
			return fs
		},
		"get-only(mem)": func(*testing.T) Store { return getOnly{agd.NewMemStore()} },
	}
	// tagChunk encodes a well-formed column chunk of n records.
	tagChunk := func(t *testing.T, first uint64, n uint32) []byte {
		b := agd.NewChunkBuilder(agd.TypeRaw, first)
		for i := uint32(0); i < n; i++ {
			b.Append([]byte(fmt.Sprintf("tag-%d", first+uint64(i))))
		}
		blob, err := agd.EncodeChunk(b.Chunk(), agd.CompressNone)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	// Each case says what blob chunk 1 of the column holds.
	cases := map[string]func(t *testing.T, e agd.ChunkEntry) []byte{
		"one record short": func(t *testing.T, e agd.ChunkEntry) []byte {
			return tagChunk(t, e.First, e.Records-1)
		},
		"not a chunk": func(*testing.T, agd.ChunkEntry) []byte {
			return []byte(`{"this blob": "is longer than a chunk header but is not a chunk"}`)
		},
	}
	for sname, open := range stores {
		for cname, bad := range cases {
			t.Run(sname+"/"+cname, func(t *testing.T) {
				store := open(t)
				m, err := testutil.WriteRows(store, "ds", readMeta(4), reads(12))
				if err != nil {
					t.Fatal(err)
				}
				if len(m.Chunks) != 3 {
					t.Fatalf("fixture has %d chunks, want 3", len(m.Chunks))
				}
				for i, e := range m.Chunks {
					blob := tagChunk(t, e.First, e.Records)
					if i == 1 {
						blob = bad(t, e)
					}
					if err := store.Put(m.ChunkBlobPath(i, "tag"), blob); err != nil {
						t.Fatal(err)
					}
				}
				before, err := store.Get("ds/manifest.json")
				if err != nil {
					t.Fatal(err)
				}

				updated, err := agd.RegisterColumn(store, m, "tag")
				if err == nil {
					t.Fatalf("registered a column whose chunk 1 is bad (columns %v)", updated.Columns)
				}
				if !strings.Contains(err.Error(), "chunk 1") {
					t.Errorf("error does not name chunk 1: %v", err)
				}
				after, err := store.Get("ds/manifest.json")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(after, before) {
					t.Errorf("failed registration rewrote the manifest:\n%s", after)
				}

				// The same column with chunk 1 mended registers.
				e := m.Chunks[1]
				if err := store.Put(m.ChunkBlobPath(1, "tag"), tagChunk(t, e.First, e.Records)); err != nil {
					t.Fatal(err)
				}
				if _, err := agd.RegisterColumn(store, m, "tag"); err != nil {
					t.Fatalf("well-formed column: %v", err)
				}
			})
		}
	}
}

// readMeta is the stream metadata of the three read columns, chunk rows a
// chunk.
func readMeta(chunk int) agd.StreamMeta {
	return agd.StreamMeta{Columns: []string{agd.ColBases, agd.ColQual, agd.ColMetadata}, ChunkSize: chunk}
}

// reads returns n rows of eight bases, named r0, r1, ...
func reads(n int) [][][]byte {
	rows := make([][][]byte, n)
	for i := range rows {
		rows[i] = [][]byte{[]byte("ACGTACGT"), []byte("IIIIIIII"), []byte(fmt.Sprintf("r%d", i))}
	}
	return rows
}
