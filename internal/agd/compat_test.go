package agd_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"testing"

	"persona/internal/agd"
	"persona/internal/dataflow"
	"persona/internal/testutil"
)

// fixtureChunks returns every chunk of every column of a fixture shaped like
// the benchmark's pre-aligned input: 2 000-read chunks, duplicates, results.
func fixtureChunks(t *testing.T) map[string][]*agd.Chunk {
	t.Helper()
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{GenomeSize: 300_000, NumReads: 6000, ChunkSize: 2000, DupFrac: 0.12, Seed: 16})
	out := map[string][]*agd.Chunk{}
	for _, col := range f.Dataset.Manifest.Columns {
		for i := 0; i < f.Dataset.NumChunks(); i++ {
			c, err := f.Dataset.ReadChunk(col, i)
			if err != nil {
				t.Fatal(err)
			}
			out[col] = append(out[col], c)
		}
	}
	return out
}

// TestCodecCompatibleBothWays pins the two halves of "same format, new
// codec" on every column of the fixture: blobs exactly as earlier releases
// wrote them (compress/gzip members, both layouts) decode to the same bytes,
// and the members this release writes are read by compress/gzip. It also
// pins what the swap may cost in space: per dataset no more than 2 % over
// what the earlier encoder stored (quality columns, two thirds of the bytes,
// shrink instead).
func TestCodecCompatibleBothWays(t *testing.T) {
	// A one-worker executor keeps members 0 on the version-1 layout, as the
	// one-processor benchmark has it.
	exec := dataflow.NewExecutor(1, 2)
	defer exec.Close()
	var refTotal, newTotal int
	for col, chunks := range fixtureChunks(t) {
		var refCol, newCol int
		for _, c := range chunks {
			for _, members := range []int{0, 1, 3} {
				ref := agd.RefEncodeChunk(c, members)
				got, err := agd.DecodeChunk(ref)
				if err != nil {
					t.Fatalf("%s: blob of an earlier release (%d members): %v", col, members, err)
				}
				if !bytes.Equal(got.Data, c.Data) || got.NumRecords() != c.NumRecords() || got.Type != c.Type || got.FirstOrdinal != c.FirstOrdinal {
					t.Fatalf("%s: blob of an earlier release (%d members) decodes differently", col, members)
				}

				blob, err := agd.Codec{Exec: exec, Members: members}.Encode(c, agd.CompressGzip)
				if err != nil {
					t.Fatal(err)
				}
				// Same header bytes but for the sizes: version, type,
				// compression and reserved byte are what they were.
				if !bytes.Equal(blob[:20], ref[:20]) {
					t.Fatalf("%s: header % x, earlier releases wrote % x", col, blob[:20], ref[:20])
				}
				if got := gunzipDataBlock(t, blob, members); !bytes.Equal(got, c.Data) {
					t.Fatalf("%s: compress/gzip reads the data block (%d members) differently", col, members)
				}
				if members == 0 {
					refCol += len(ref)
					newCol += len(blob)
				}
			}
		}
		t.Logf("%-9s stored %8d bytes, earlier encoder %8d (%.3f)", col, newCol, refCol, float64(newCol)/float64(refCol))
		refTotal += refCol
		newTotal += newCol
	}
	if newTotal > refTotal+refTotal/50 {
		t.Fatalf("dataset stores %d bytes, the earlier encoder %d: more than 2 %% over", newTotal, refTotal)
	}
}

// gunzipDataBlock inflates a blob's data block with compress/gzip alone: one
// member for the version-1 layout, a multi-member stream behind the member
// table for version 2.
func gunzipDataBlock(t *testing.T, blob []byte, members int) []byte {
	t.Helper()
	const headerSize = 40
	indexSize := binary.LittleEndian.Uint64(blob[20:28])
	dataSize := binary.LittleEndian.Uint64(blob[28:36])
	block := blob[headerSize+indexSize:][:dataSize]
	if members > 0 {
		if n := int(binary.LittleEndian.Uint32(block)); n != members {
			t.Fatalf("member table says %d members, want %d", n, members)
		}
		block = block[4+8*members:]
	}
	zr, err := gzip.NewReader(bytes.NewReader(block))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
