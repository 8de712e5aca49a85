// Package experiments implements the evaluation harness: one entry point
// per table and figure of the paper's §5/§6, each producing both the
// paper-scale modeled numbers (via internal/simulate, internal/tco,
// internal/perfmodel) and, where the experiment is measurable on a small
// machine, real measurements over synthetic workloads. The persona-bench
// command and the repository's testing.B benchmarks are thin wrappers
// around this package.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/formats/bam"
	"persona/internal/formats/fastq"
	"persona/internal/genome"
	"persona/internal/reads"
	"persona/internal/testutil"
)

// Scale sizes the measured (laptop-scale) experiments. The paper's dataset
// is 223M 101-bp reads against hg19; measured runs here default to a small
// synthetic slice of that workload and print their parameters.
type Scale struct {
	GenomeSize int
	NumReads   int
	ReadLen    int
	ChunkSize  int
	DupFrac    float64
	Seed       int64
}

// SmallScale fits a 2-core CI box (a few seconds per experiment).
func SmallScale() Scale {
	return Scale{GenomeSize: 400_000, NumReads: 4000, ReadLen: 101, ChunkSize: 500, DupFrac: 0.15, Seed: 1}
}

func (s Scale) String() string {
	return fmt.Sprintf("genome=%d bases, reads=%d x %d bp, chunk=%d, dup=%.0f%%",
		s.GenomeSize, s.NumReads, s.ReadLen, s.ChunkSize, s.DupFrac*100)
}

// fixture builds an aligned dataset for measured experiments.
func (s Scale) fixture(store agd.BlobStore, name string, aligned bool) (*testutil.Fixture, error) {
	return testutil.BuildE(store, name, testutil.Config{
		GenomeSize: s.GenomeSize,
		NumReads:   s.NumReads,
		ReadLen:    s.ReadLen,
		ChunkSize:  s.ChunkSize,
		DupFrac:    s.DupFrac,
		Seed:       s.Seed,
		SkipAlign:  !aligned,
	})
}

// simulatedReads renders the scale's read set.
func (s Scale) simulatedReads() (*genome.Genome, []reads.Read, error) {
	g, err := genome.Synthesize(genome.DefaultSyntheticConfig(s.GenomeSize, s.Seed))
	if err != nil {
		return nil, nil, err
	}
	sim, err := reads.NewSimulator(g, reads.SimConfig{
		Seed: s.Seed + 1, N: s.NumReads, ReadLen: s.ReadLen,
		ErrorRate: 0.003, DuplicateFraction: s.DupFrac,
	})
	if err != nil {
		return nil, nil, err
	}
	rs, _ := sim.All()
	return g, rs, nil
}

// fastqText renders reads as FASTQ.
func fastqText(rs []reads.Read) (string, error) {
	var buf bytes.Buffer
	w := fastq.NewWriter(&buf)
	for i := range rs {
		if err := w.Write(&rs[i]); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// buildSnapIndex is shared by measured experiments.
func buildSnapIndex(g *genome.Genome) (*snap.Index, error) {
	return snap.BuildIndex(g, snap.IndexConfig{SeedLen: 16})
}

// newSnapAligner returns an aligner with the experiments' standard tuning.
func newSnapAligner(idx *snap.Index) *snap.Aligner {
	return snap.NewAligner(idx, snap.Config{MaxDist: 10})
}

// importFASTQ wraps fastq.Import for the conversion experiment.
func importFASTQ(ctx context.Context, store agd.BlobStore, name, text string, refs []agd.RefSeq, chunkSize int) (*agd.Manifest, uint64, error) {
	return fastq.Import(ctx, store, name, strings.NewReader(text), fastq.ImportOptions{ChunkSize: chunkSize, RefSeqs: refs})
}

// exportBAM wraps bam.Export for the conversion experiment.
func exportBAM(ctx context.Context, ds *agd.Dataset, w io.Writer) (uint64, error) {
	return bam.Export(ctx, ds, w)
}

// section prints a header for an experiment section.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
