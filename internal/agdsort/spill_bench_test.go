package agdsort

import (
	"encoding/binary"
	"testing"

	"persona/internal/agd"
	"persona/internal/testutil"
)

// BenchmarkSpillRunCodec measures what tco.SpillPolicy's default rates stand
// for: encoding and decoding one superchunk run — 4 000 rows of
// uvarint-prefixed bases, qualities, metadata and results, as
// writeSuperchunk lays them out — through the chunk codec, on one core.
// Run with -cpu 1; "ratio" is stored bytes over run bytes.
func BenchmarkSpillRunCodec(b *testing.B) {
	store := agd.NewMemStore()
	f := testutil.Build(b, store, "ds", testutil.Config{GenomeSize: 300_000, NumReads: 4000, ChunkSize: 2000, DupFrac: 0.12, Seed: 16})
	cols := make([][][]byte, len(f.Dataset.Manifest.Columns))
	for i, col := range f.Dataset.Manifest.Columns {
		var err error
		if cols[i], err = f.Dataset.ReadAllColumn(col); err != nil {
			b.Fatal(err)
		}
	}
	run := agd.NewChunkBuilder(agd.TypeRaw, 0)
	var row []byte
	for r := range cols[0] {
		row = row[:0]
		for _, col := range cols {
			row = binary.AppendUvarint(row, uint64(len(col[r])))
			row = append(row, col[r]...)
		}
		run.Append(row)
	}
	c := run.Chunk()
	blob, err := agd.EncodeChunk(c, agd.CompressGzip)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(c.Data)))
		var out []byte
		for i := 0; i < b.N; i++ {
			if out, err = agd.EncodeChunkAppend(out[:0], c, agd.CompressGzip); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(out))/float64(len(c.Data)), "ratio")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(c.Data)))
		var back agd.Chunk
		for i := 0; i < b.N; i++ {
			if err := agd.DecodeChunkInto(&back, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
