package agd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestChunkFooterRoundTrip: every (layout, compression) combination encodes
// with a footer by default and decodes back identically.
func TestChunkFooterRoundTrip(t *testing.T) {
	records := [][]byte{[]byte("hello"), []byte(""), bytes.Repeat([]byte("acgt"), 8<<10)}
	cases := []struct {
		name string
		cd   Codec
		comp Compression
	}{
		{"v1-raw", Codec{}, CompressNone},
		{"v1-gzip", Codec{members: 1}, CompressGzip},
		{"v2-gzip", Codec{members: 3}, CompressGzip},
	}
	for _, tc := range cases {
		c := buildRawChunk(t, records)
		blob, err := tc.cd.Encode(c, tc.comp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(blob[len(blob)-chunkFooterSize:len(blob)-4]) != chunkFooterMagic {
			t.Fatalf("%s: no footer magic at blob tail", tc.name)
		}
		dec, err := tc.cd.Decode(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if dec.NumRecords() != len(records) || !bytes.Equal(dec.Data, c.Data) {
			t.Fatalf("%s: round trip changed the chunk", tc.name)
		}
	}
}

// TestChunkFooterBackwardCompat: blobs written without a footer (earlier
// releases, Codec.noChecksum) still decode, and are exactly footer-sized
// smaller.
func TestChunkFooterBackwardCompat(t *testing.T) {
	c := buildRawChunk(t, [][]byte{[]byte("abc"), []byte("defg")})
	legacy, err := Codec{noChecksum: true}.Encode(c, CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := Codec{}.Encode(c, CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	if len(checked) != len(legacy)+chunkFooterSize {
		t.Fatalf("footer overhead = %d bytes, want %d", len(checked)-len(legacy), chunkFooterSize)
	}
	if !bytes.Equal(checked[:len(legacy)], legacy) {
		t.Fatal("footer changed the blob body")
	}
	dec, err := DecodeChunk(legacy)
	if err != nil {
		t.Fatalf("legacy unchecksummed blob rejected: %v", err)
	}
	if !bytes.Equal(dec.Data, c.Data) {
		t.Fatal("legacy decode changed the data")
	}
}

// TestChunkFooterDetectsCorruption: a bit flip anywhere in a checksummed
// blob must yield a classified permanent error (ErrChecksum / ErrCorrupt /
// ErrBadMagic) — never a successful decode of wrong bytes.
func TestChunkFooterDetectsCorruption(t *testing.T) {
	b := NewChunkBuilder(TypeRaw, 3)
	for i := 0; i < 64; i++ {
		b.Append(bytes.Repeat([]byte{byte(i)}, 33))
	}
	blob, err := EncodeChunk(b.Chunk(), CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	want := b.Chunk().Data
	for pos := 0; pos < len(blob); pos++ {
		bad := bytes.Clone(blob)
		bad[pos] ^= 0x40
		dec, err := DecodeChunk(bad)
		if err == nil {
			if !bytes.Equal(dec.Data, want) {
				t.Fatalf("flip at %d decoded WRONG data with no error", pos)
			}
			t.Fatalf("flip at %d went undetected", pos)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("flip at %d: unclassified error %v", pos, err)
		}
	}

	// A flip in the index block specifically is what the in-band data CRC
	// cannot see; the footer must catch it as a checksum error.
	bad := bytes.Clone(blob)
	bad[chunkHeaderSize] ^= 0x01
	if _, err := DecodeChunk(bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("index flip: err = %v, want ErrChecksum", err)
	}
	// ErrChecksum classifies as corruption (permanent) too.
	if !errors.Is(ErrChecksum, ErrCorrupt) {
		t.Fatal("ErrChecksum does not wrap ErrCorrupt")
	}
}

// TestChunkFooterTruncation: shaving bytes off a checksummed blob is
// rejected with a classified error, including cutting exactly the footer
// plus a partial data block.
func TestChunkFooterTruncation(t *testing.T) {
	c := buildRawChunk(t, [][]byte{bytes.Repeat([]byte("x"), 4096)})
	blob, err := EncodeChunk(c, CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, chunkFooterSize - 1, chunkFooterSize + 1, len(blob) / 2} {
		truncated := blob[:len(blob)-cut]
		if _, err := DecodeChunk(truncated); err == nil {
			t.Fatalf("blob truncated by %d accepted", cut)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("blob truncated by %d: unclassified error %v", cut, err)
		}
	}
	// Cutting exactly the footer leaves a well-formed legacy blob — that is
	// the backward-compatibility contract, and the header's in-band data CRC
	// still guards the data block itself.
	if _, err := DecodeChunk(blob[:len(blob)-chunkFooterSize]); err != nil {
		t.Fatalf("footer-less body rejected: %v", err)
	}
}

// TestChunkFooterErrorNamesBlob: the stream layer reports checksum failures
// with the blob's dataset/chunk/column coordinates.
func TestChunkFooterErrorNamesBlob(t *testing.T) {
	store := NewMemStore()
	rows := make([][][]byte, 8)
	for i := range rows {
		rows[i] = [][]byte{[]byte(fmt.Sprintf("r%02d", i))}
	}
	writeRows(t, store, "ds", StreamMeta{Columns: []string{ColMetadata}, ChunkSize: 4}, rows)

	// Corrupt the second chunk's blob in place.
	name := "ds/chunk-000001." + ColMetadata
	blob, err := store.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(blob)
	bad[chunkHeaderSize+1] ^= 0x20
	if err := store.Put(name, bad); err != nil {
		t.Fatal(err)
	}

	ds, err := Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	gs, err := ds.Groups(StreamOptions{Start: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	_, err = gs.Next(context.Background())
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte(name)) {
		t.Fatalf("error %q does not name blob %q", err, name)
	}
}
