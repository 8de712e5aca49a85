package agd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// rangeStores builds the three RangeBlobStore flavors over the same payload:
// RangeOf over a MemStore, the native DirStore (vectored read path), and the
// full-Get emulation over a store that hides every method but the BlobStore
// ones.
func rangeStores(t *testing.T, name string, payload []byte) map[string]RangeBlobStore {
	t.Helper()
	mem := NewMemStore()
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []BlobStore{mem, dir} {
		if err := s.Put(name, payload); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]RangeBlobStore{
		"mem":     RangeOf(mem),
		"dir":     dir,
		"adapter": RangeOf(opaqueStore{mem}),
	}
}

// opaqueStore hides the inner store's RangeBlobStore methods so RangeOf
// falls back to the full-Get adapter.
type opaqueStore struct{ inner BlobStore }

func (o opaqueStore) Get(name string) ([]byte, error) { return o.inner.Get(name) }
func (o opaqueStore) Put(name string, b []byte) error { return o.inner.Put(name, b) }
func (o opaqueStore) Delete(name string) error        { return o.inner.Delete(name) }
func (o opaqueStore) List(p string) ([]string, error) { return o.inner.List(p) }

func TestGetRangeContract(t *testing.T) {
	payload := []byte("0123456789abcdefghijklmnopqrstuvwxyz")
	for flavor, rs := range rangeStores(t, "blob", payload) {
		t.Run(flavor, func(t *testing.T) {
			got, err := rs.GetRange("blob", 10, 6)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "abcdef" {
				t.Fatalf("GetRange = %q", got)
			}
			// Zero-length and boundary reads.
			if got, err := rs.GetRange("blob", int64(len(payload)), 0); err != nil || len(got) != 0 {
				t.Fatalf("empty tail range: %q, %v", got, err)
			}
			// Short blob: exactly-n-or-error.
			if _, err := rs.GetRange("blob", 30, 10); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("past-end range error = %v, want ErrUnexpectedEOF", err)
			}
			if _, err := rs.GetRange("missing", 0, 1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing blob error = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestGetRangesCoalescing(t *testing.T) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	cases := []struct {
		name   string
		ranges []ByteRange
	}{
		// Exactly adjacent: one vectored read scattered across 3 buffers.
		{"adjacent", []ByteRange{{0, 100}, {100, 300}, {400, 50}}},
		// Disjoint: one read each.
		{"disjoint", []ByteRange{{0, 10}, {1000, 10}, {4000, 96}}},
		// Mixed runs, including empty ranges inside a run.
		{"mixed", []ByteRange{{0, 40}, {40, 0}, {40, 60}, {2000, 8}}},
		{"single", []ByteRange{{123, 321}}},
		{"whole", []ByteRange{{0, 4096}}},
	}
	for flavor, rs := range rangeStores(t, "blob", payload) {
		for _, tc := range cases {
			t.Run(flavor+"/"+tc.name, func(t *testing.T) {
				bufs, err := rs.GetRanges("blob", tc.ranges)
				if err != nil {
					t.Fatal(err)
				}
				if len(bufs) != len(tc.ranges) {
					t.Fatalf("got %d buffers, want %d", len(bufs), len(tc.ranges))
				}
				for i, r := range tc.ranges {
					want := payload[r.Off : r.Off+int64(r.Len)]
					if !bytes.Equal(bufs[i], want) {
						t.Fatalf("range %d [%d:+%d] mismatch", i, r.Off, r.Len)
					}
				}
			})
		}
		t.Run(flavor+"/past-end", func(t *testing.T) {
			_, err := rs.GetRanges("blob", []ByteRange{{0, 10}, {4090, 100}})
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("error = %v, want ErrUnexpectedEOF", err)
			}
		})
	}
}

func TestReadChunkMetaAndIndex(t *testing.T) {
	mem := NewMemStore()
	m := writeTestDataset(t, mem, "ds", 25, 10)
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	names, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		blob, _ := mem.Get(n)
		if err := dir.Put(n, blob); err != nil {
			t.Fatal(err)
		}
	}
	for flavor, store := range map[string]BlobStore{"mem": mem, "dir": dir} {
		t.Run(flavor, func(t *testing.T) {
			for i, entry := range m.Chunks {
				name := chunkPath(entry, ColMetadata)
				meta, err := ReadChunkMeta(store, name)
				if err != nil {
					t.Fatal(err)
				}
				if meta.Records != uint32(entry.Records) {
					t.Fatalf("chunk %d: header records %d, manifest %d", i, meta.Records, entry.Records)
				}
				if meta.FirstOrdinal != entry.First {
					t.Fatalf("chunk %d: first ordinal %d, want %d", i, meta.FirstOrdinal, entry.First)
				}
				// The header+index pair (the two-iovec vectored read) must
				// agree with a full decode.
				bufs, err := RangeOf(store).GetRanges(name, []ByteRange{
					{Off: 0, Len: chunkHeaderSize},
					{Off: chunkHeaderSize, Len: int(meta.IndexSize)},
				})
				if err != nil {
					t.Fatal(err)
				}
				if again, err := parseChunkMeta(bufs[0]); err != nil || again != meta {
					t.Fatalf("chunk %d: vectored header %+v (%v), want %+v", i, again, err, meta)
				}
				var lengths []uint32
				for idx := bufs[1]; len(idx) > 0; {
					l, n := binary.Uvarint(idx)
					if n <= 0 {
						t.Fatalf("chunk %d: bad index varint", i)
					}
					lengths = append(lengths, uint32(l))
					idx = idx[n:]
				}
				blob, _ := store.Get(name)
				full, err := DecodeChunk(blob)
				if err != nil {
					t.Fatal(err)
				}
				if len(lengths) != full.NumRecords() {
					t.Fatalf("index has %d lengths, chunk %d records", len(lengths), full.NumRecords())
				}
				for r, l := range lengths {
					rec, err := full.Record(r)
					if err != nil {
						t.Fatal(err)
					}
					if int(l) != len(rec) {
						t.Fatalf("record %d: index length %d, actual %d", r, l, len(rec))
					}
				}
			}
			if _, err := ReadChunkMeta(store, "ds/manifest.json"); err == nil {
				t.Fatal("non-chunk blob parsed as chunk header")
			}
			if _, err := ReadChunkMeta(store, "nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing chunk error = %v, want ErrNotFound", err)
			}
		})
	}
}

// TestGetRangeShortFile covers the vectored path's short-read handling: a
// range run extending past EOF must surface as ErrUnexpectedEOF, not a
// silent prefix.
func TestGetRangeShortFile(t *testing.T) {
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Put("b", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	// Adjacent run whose tail extends past EOF: the vectored read must
	// report ErrUnexpectedEOF even though the first buffer was satisfied.
	if _, err := dir.GetRanges("b", []ByteRange{{0, 8}, {8, 8}}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error = %v, want ErrUnexpectedEOF", err)
	}
	if _, err := dir.GetRange("b", -1, 4); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// encodeFuzzRanges packs ranges as the varint pairs FuzzGetRanges decodes.
func encodeFuzzRanges(ranges ...ByteRange) []byte {
	var b []byte
	for _, r := range ranges {
		b = binary.AppendVarint(b, r.Off)
		b = binary.AppendVarint(b, int64(r.Len))
	}
	return b
}

// FuzzGetRanges holds DirStore's vectored, coalescing GetRanges to the naive
// per-range reads RangeOf gives a store with nothing but Get: for an
// arbitrary payload and an arbitrary list of ranges (varint offset and
// length pairs, negative and overflowing ones included), both return the
// same buffers, or both fail with an error wrapping io.ErrUnexpectedEOF.
func FuzzGetRanges(f *testing.F) {
	payload := []byte("0123456789abcdefghijklmnopqrstuvwxyz")
	f.Add(payload, encodeFuzzRanges(ByteRange{0, 10}, ByteRange{10, 6}, ByteRange{30, 6}))
	f.Add(payload, encodeFuzzRanges(ByteRange{0, 8}, ByteRange{8, 0}, ByteRange{8, 8}, ByteRange{4, 4}))
	f.Add(payload, encodeFuzzRanges(ByteRange{36, 0}, ByteRange{40, 0}))
	f.Add(payload, encodeFuzzRanges(ByteRange{30, 10}))
	f.Add(payload, encodeFuzzRanges(ByteRange{-1, 4}, ByteRange{0, -1}))
	f.Add(payload, encodeFuzzRanges(ByteRange{math.MaxInt64 - 1, 4}))
	f.Add([]byte{}, encodeFuzzRanges(ByteRange{0, 0}, ByteRange{0, 1}))
	dir, err := NewDirStoreNoSync(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	mem := NewMemStore()
	naive := RangeOf(opaqueStore{mem})
	f.Fuzz(func(t *testing.T, payload, encoded []byte) {
		var ranges []ByteRange
		for len(encoded) > 0 && len(ranges) < 64 {
			off, n := binary.Varint(encoded)
			if n <= 0 {
				break
			}
			length, m := binary.Varint(encoded[n:])
			if m <= 0 {
				break
			}
			encoded = encoded[n+m:]
			ranges = append(ranges, ByteRange{Off: off, Len: int(length)})
		}
		for _, s := range []BlobStore{dir, mem} {
			if err := s.Put("blob", payload); err != nil {
				t.Fatal(err)
			}
		}
		got, gotErr := dir.GetRanges("blob", ranges)
		want, wantErr := naive.GetRanges("blob", ranges)
		if gotErr != nil || wantErr != nil {
			if !errors.Is(gotErr, io.ErrUnexpectedEOF) || !errors.Is(wantErr, io.ErrUnexpectedEOF) {
				t.Fatalf("ranges %v over %d bytes: DirStore error %v, naive error %v", ranges, len(payload), gotErr, wantErr)
			}
			return
		}
		if len(got) != len(ranges) || len(want) != len(ranges) {
			t.Fatalf("ranges %v: %d and %d buffers", ranges, len(got), len(want))
		}
		for i := range ranges {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("range %d %v over %d bytes: DirStore read %q, naive %q", i, ranges[i], len(payload), got[i], want[i])
			}
		}
	})
}
