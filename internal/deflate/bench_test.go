package deflate_test

import (
	"bytes"
	"compress/flate"
	"context"
	"io"
	"sync"
	"testing"

	"persona/internal/agd"
	"persona/internal/deflate"
	"persona/internal/formats/bam"
	"persona/internal/formats/bgzf"
	"persona/internal/testutil"
)

// buffer is one payload the repository deflates in its hot paths.
type buffer struct {
	name string
	data []byte
}

var fixture = sync.OnceValue(func() []buffer {
	store := agd.NewMemStore()
	f, err := testutil.BuildE(store, "ds", testutil.Config{GenomeSize: 300_000, NumReads: 4000, ChunkSize: 2000, DupFrac: 0.12, Seed: 16})
	if err != nil {
		panic(err)
	}
	// The first 2 000-read chunk of every column, as a chunk member holds it.
	var out []buffer
	for _, col := range f.Dataset.Manifest.Columns {
		c, err := f.Dataset.ReadChunk(col, 0)
		if err != nil {
			panic(err)
		}
		out = append(out, buffer{col, c.Data})
	}
	// And one full BGZF block from the middle of the dataset's BAM.
	var file bytes.Buffer
	if _, err := bam.Export(context.Background(), f.Dataset, &file); err != nil {
		panic(err)
	}
	payload, err := io.ReadAll(bgzf.NewReader(&file))
	if err != nil {
		panic(err)
	}
	return append(out, buffer{"bam-block", payload[2*bgzf.MaxBlockSize : 3*bgzf.MaxBlockSize]})
})

// BenchmarkDeflate times Deflate next to compress/flate at BestSpeed, the
// encoder it replaced, on each buffer; "ratio" is stored size over size.
func BenchmarkDeflate(b *testing.B) {
	for _, buf := range fixture() {
		b.Run(buf.name+"/deflate", func(b *testing.B) {
			b.SetBytes(int64(len(buf.data)))
			var out []byte
			for i := 0; i < b.N; i++ {
				out = deflate.Deflate(out[:0], buf.data)
			}
			b.ReportMetric(float64(len(out))/float64(len(buf.data)), "ratio")
		})
		b.Run(buf.name+"/stdlib", func(b *testing.B) {
			b.SetBytes(int64(len(buf.data)))
			var out bytes.Buffer
			zw, _ := flate.NewWriter(&out, flate.BestSpeed)
			for i := 0; i < b.N; i++ {
				out.Reset()
				zw.Reset(&out)
				zw.Write(buf.data)
				zw.Close()
			}
			b.ReportMetric(float64(out.Len())/float64(len(buf.data)), "ratio")
		})
	}
}

// BenchmarkInflate times Inflate next to compress/flate on the stream
// Deflate writes for each buffer — what the repository reads back.
func BenchmarkInflate(b *testing.B) {
	for _, buf := range fixture() {
		stream := deflate.Deflate(nil, buf.data)
		out := make([]byte, len(buf.data))
		b.Run(buf.name+"/inflate", func(b *testing.B) {
			b.SetBytes(int64(len(buf.data)))
			for i := 0; i < b.N; i++ {
				if _, err := deflate.Inflate(out, stream); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(buf.name+"/stdlib", func(b *testing.B) {
			b.SetBytes(int64(len(buf.data)))
			src := bytes.NewReader(stream)
			zr := flate.NewReader(src)
			for i := 0; i < b.N; i++ {
				src.Reset(stream)
				zr.(flate.Resetter).Reset(src, nil)
				if _, err := io.ReadFull(zr, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
