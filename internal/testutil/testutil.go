// Package testutil builds the synthetic fixtures shared by tests and
// benchmarks: small genomes, simulated read sets, and fully aligned AGD
// datasets.
package testutil

import (
	"context"
	"fmt"
	"testing"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/genome"
	"persona/internal/reads"
)

// Fixture bundles a synthetic genome with an aligned dataset over it.
type Fixture struct {
	Genome  *genome.Genome
	Index   *snap.Index
	Dataset *agd.Dataset
	Origins []reads.Origin
}

// Config parameterizes fixture construction.
type Config struct {
	GenomeSize int
	NumReads   int
	ReadLen    int
	ChunkSize  int
	DupFrac    float64
	Seed       int64
	// SkipAlign leaves the dataset without a results column.
	SkipAlign bool
}

// Build creates a genome, simulates reads, (unless SkipAlign) aligns them
// with the SNAP aligner in a plain per-read loop, and writes them with their
// results column as an AGD dataset into store under name.
func Build(t testing.TB, store agd.BlobStore, name string, cfg Config) *Fixture {
	t.Helper()
	f, err := BuildE(store, name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// BuildE is Build with an error return, for use outside tests (benchmark
// harness, examples).
func BuildE(store agd.BlobStore, name string, cfg Config) (*Fixture, error) {
	if cfg.GenomeSize <= 0 {
		cfg.GenomeSize = 200_000
	}
	if cfg.NumReads <= 0 {
		cfg.NumReads = 1000
	}
	if cfg.ReadLen <= 0 {
		cfg.ReadLen = 101
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 200
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}

	g, err := genome.Synthesize(genome.DefaultSyntheticConfig(cfg.GenomeSize, cfg.Seed))
	if err != nil {
		return nil, err
	}
	sim, err := reads.NewSimulator(g, reads.SimConfig{
		Seed:              cfg.Seed + 1,
		N:                 cfg.NumReads,
		ReadLen:           cfg.ReadLen,
		ErrorRate:         0.003,
		DuplicateFraction: cfg.DupFrac,
	})
	if err != nil {
		return nil, err
	}
	rs, origins := sim.All()

	idx, err := snap.BuildIndex(g, snap.IndexConfig{SeedLen: 16})
	if err != nil {
		return nil, err
	}
	fixture := &Fixture{Genome: g, Index: idx, Origins: origins}

	meta := agd.StreamMeta{
		Columns:   []string{agd.ColBases, agd.ColQual, agd.ColMetadata},
		RefSeqs:   agd.RefSeqsFromGenome(g),
		ChunkSize: cfg.ChunkSize,
	}
	var results [][]byte
	if !cfg.SkipAlign {
		meta = meta.WithColumn(agd.ColResults)
		aligner := snap.NewAligner(idx, snap.Config{MaxDist: 10})
		results = make([][]byte, len(rs))
		for i := range rs {
			res := aligner.AlignRead(rs[i].Bases)
			results[i] = agd.EncodeResult(nil, &res)
		}
	}
	m, err := WriteRows(store, name, meta, ReadRows(rs, results))
	if err != nil {
		return nil, err
	}
	fixture.Dataset = agd.OpenManifest(store, m)
	return fixture, nil
}

// WriteRows is the record-at-a-time way to write a dataset: a pipeline
// source (agd.FillStream) over rows held in memory, meta.ChunkSize rows a
// group (agd.DefaultChunkSize when 0), drained by agd.WriteGroups into
// dataset name. A row holds one field per column of meta.Columns: base
// letters for the bases column, packed as they are appended, and every other
// field as it is stored.
func WriteRows(store agd.BlobStore, name string, meta agd.StreamMeta, rows [][][]byte) (*agd.Manifest, error) {
	if meta.ChunkSize <= 0 {
		meta.ChunkSize = agd.DefaultChunkSize
	}
	specs := agd.SpecsForColumns(meta.Columns)
	next := 0
	in := agd.FillStream(meta, specs, 0, func(b []*agd.ChunkBuilder) (int, error) {
		n := min(meta.ChunkSize, len(rows)-next)
		for _, row := range rows[next : next+n] {
			if len(row) != len(specs) {
				return 0, fmt.Errorf("testutil: a row of %d fields for %d columns", len(row), len(specs))
			}
			for i, f := range row {
				if specs[i].Type == agd.TypePackedBases {
					b[i].AppendBases(f)
				} else {
					b[i].Append(f)
				}
			}
		}
		next += n
		return n, nil
	})
	defer in.Close()
	return agd.WriteGroups(context.Background(), in, store, name, agd.WriterOptions{})
}

// ReadRows returns the rows of simulated reads for WriteRows — bases,
// qualities and metadata — each followed by results[i] when results is
// non-nil.
func ReadRows(rs []reads.Read, results [][]byte) [][][]byte {
	rows := make([][][]byte, len(rs))
	for i := range rs {
		rows[i] = [][]byte{rs[i].Bases, rs[i].Quals, []byte(rs[i].Meta)}
		if results != nil {
			rows[i] = append(rows[i], results[i])
		}
	}
	return rows
}
