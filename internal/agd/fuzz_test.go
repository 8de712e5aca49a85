package agd

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
)

// fuzzSeedChunk encodes a chunk of the given records for the seed corpus.
func fuzzSeedChunk(f *testing.F, typ RecordType, comp Compression, members int, records ...[]byte) []byte {
	f.Helper()
	b := NewChunkBuilder(typ, 7)
	for _, r := range records {
		b.Append(r)
	}
	blob, err := Codec{members: members}.Encode(b.Chunk(), comp)
	if err != nil {
		f.Fatal(err)
	}
	return blob
}

// FuzzDecodeChunk drives the AGD chunk decoder with arbitrary blobs. The
// decoder must never panic and never allocate beyond the deflate expansion
// bound, and anything it accepts must be internally consistent: records
// tile the data block exactly, and a re-encode/decode round trip preserves
// them (both layout versions).
func FuzzDecodeChunk(f *testing.F) {
	// Valid seeds across the format matrix: v1 raw, v1 gzip, forced v2
	// multi-member, empty chunk, single empty record.
	v1raw := fuzzSeedChunk(f, TypeRaw, CompressNone, 0, []byte("hello"), []byte(""), []byte("world"))
	v1gz := fuzzSeedChunk(f, TypeRaw, CompressGzip, 0, bytes.Repeat([]byte("acgt"), 600))
	v2 := fuzzSeedChunk(f, TypeCompactBases, CompressGzip, 3, bytes.Repeat([]byte("acgtacgt"), 4<<10))
	f.Add(v1raw)
	f.Add(v1gz)
	f.Add(v2)
	f.Add(fuzzSeedChunk(f, TypeResults, CompressGzip, 0))
	f.Add(fuzzSeedChunk(f, TypeRaw, CompressNone, 0, []byte{}))

	// Broken seeds: truncations, header bit-flips, a corrupted member
	// table, and garbage.
	f.Add(v1gz[:len(v1gz)/2])
	f.Add(v2[:chunkHeaderSize+3])
	flipped := bytes.Clone(v2)
	flipped[chunkHeaderSize+1] ^= 0xff // member table
	f.Add(flipped)
	tornCRC := bytes.Clone(v1raw)
	tornCRC[36] ^= 0x55
	f.Add(tornCRC)
	f.Add([]byte{})
	f.Add([]byte("AGD1"))
	f.Add(bytes.Repeat([]byte{0xa5}, chunkHeaderSize+32))

	f.Fuzz(func(t *testing.T, blob []byte) {
		c, err := DecodeChunk(blob)
		if err != nil {
			// Errors must be the package's sentinel kinds, so callers can
			// classify them, and must not carry a partial chunk.
			if c != nil {
				t.Fatalf("DecodeChunk returned chunk AND error %v", err)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}

		// Allocation bound: deflate expands at most ~1032x, so an accepted
		// chunk can never hold more data than that bound allows.
		const maxDeflateRatio = 1032
		if uint64(len(c.Data)) > uint64(len(blob))*maxDeflateRatio {
			t.Fatalf("decoded %d data bytes from a %d-byte blob", len(c.Data), len(blob))
		}

		// Records must tile Data exactly; every index must be reachable.
		total := 0
		for i := 0; i < c.NumRecords(); i++ {
			rec, err := c.Record(i)
			if err != nil {
				t.Fatalf("record %d of accepted chunk: %v", i, err)
			}
			total += len(rec)
		}
		if total != len(c.Data) {
			t.Fatalf("records sum to %d bytes, data block is %d", total, len(c.Data))
		}
		if _, err := c.Record(c.NumRecords()); err == nil {
			t.Fatal("out-of-range record accessible")
		}

		// Round trip through both layout versions.
		for _, cd := range []Codec{{}, {members: 2}} {
			re, err := cd.Encode(c, CompressGzip)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			c2, err := cd.Decode(re)
			if err != nil {
				t.Fatalf("decode of re-encoded chunk: %v", err)
			}
			if c2.Type != c.Type || c2.FirstOrdinal != c.FirstOrdinal ||
				c2.NumRecords() != c.NumRecords() || !bytes.Equal(c2.Data, c.Data) {
				t.Fatal("round trip changed the chunk")
			}
		}
	})
}

// FuzzWriteGroups holds the one chunk sink to the row-at-a-time oracle it
// replaced (RowWriter): arbitrary rows of the three read columns, cut into
// groups of arbitrary sizes — empty groups, groups of exactly one chunk and
// groups larger than one included — carrying arbitrary first ordinals (a
// filtered group keeps its input's), and re-chunked to an arbitrary chunk
// size (0: the first group's), must be stored as the oracle's blobs and
// manifest, byte for byte; a stream without rows stores nothing and fails.
func FuzzWriteGroups(f *testing.F) {
	f.Add([]byte("ACGTNACGTTGCA"), []byte{8, 8, 8, 5}, uint8(8), uint64(0))
	f.Add([]byte("GATTACA!"), []byte{7, 9, 0, 8, 3, 13, 8, 2}, uint8(8), uint64(1000))
	f.Add([]byte("x"), []byte{1, 1, 1, 1}, uint8(0), uint64(0))
	f.Add(bytes.Repeat([]byte("ACGT"), 100), []byte{20, 4, 8, 17}, uint8(8), uint64(7))
	f.Add([]byte("TTT"), []byte{0, 0}, uint8(3), uint64(0))
	f.Fuzz(func(t *testing.T, data, groups []byte, chunk uint8, shift uint64) {
		sizes := make([]int, len(groups))
		n := 0
		for i, g := range groups {
			sizes[i] = int(g % 40)
			n += sizes[i]
		}
		rows := make([][][]byte, n)
		at := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}
		for r := range rows {
			bases := make([]byte, at(r)%30)
			quals := make([]byte, len(bases))
			for i := range bases {
				bases[i] = "ACGTN"[at(r+i)%5]
				quals[i] = '!' + at(r+7*i)%40
			}
			rows[r] = [][]byte{CompactBases(nil, bases), quals, data[:min(len(data), int(at(r+1)%16))]}
		}
		meta := StreamMeta{Columns: []string{ColBases, ColQual, ColMetadata}, RefSeqs: []RefSeq{{Name: "chr1", Length: 99}}, ChunkSize: int(chunk)}

		src := groupsOf(meta, rows, sizes)
		in := NewGroupStream(meta, func(ctx context.Context) (*RowGroup, error) {
			g, err := src.Next(ctx)
			if err != nil {
				return nil, err
			}
			for _, c := range g.Chunks {
				c.FirstOrdinal += shift
			}
			return g, nil
		}, nil)
		store := NewMemStore()
		m, err := WriteGroups(context.Background(), in, store, "out", WriterOptions{})
		if n == 0 {
			if left, _ := store.List(""); err == nil || len(left) != 0 {
				t.Fatalf("a stream of no rows: error %v, %d blobs", err, len(left))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if m.NumRecords() != uint64(n) {
			t.Fatalf("manifest counts %d records, wrote %d", m.NumRecords(), n)
		}

		if meta.ChunkSize == 0 {
			meta.ChunkSize = sizes[0]
		}
		if meta.ChunkSize == 0 {
			meta.ChunkSize = DefaultChunkSize
		}
		ref := NewMemStore()
		w := NewRowWriter(ref, "out", meta)
		for _, row := range rows {
			if err := w.Append(row...); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want, _ := ref.List("")
		got, _ := store.List("")
		if !slices.Equal(got, want) {
			t.Fatalf("blobs %v, oracle's %v", got, want)
		}
		for _, name := range want {
			g, _ := store.Get(name)
			w, _ := ref.Get(name)
			if !bytes.Equal(g, w) {
				t.Fatalf("blob %q differs from the oracle's (%d vs %d bytes)", name, len(g), len(w))
			}
		}
	})
}
