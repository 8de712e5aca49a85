package core

import (
	"context"
	"strings"
	"testing"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/genome"
	"persona/internal/reads"
	"persona/internal/testutil"
)

// pairedFixture writes a paired dataset (R1 at even, R2 at odd ordinals).
func pairedFixture(t *testing.T, store agd.BlobStore, name string, genomeSize, numReads int) (*genome.Genome, []reads.Origin) {
	t.Helper()
	g, err := genome.Synthesize(genome.DefaultSyntheticConfig(genomeSize, 113))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := reads.NewSimulator(g, reads.SimConfig{
		Seed: 114, N: numReads, ReadLen: 80, Paired: true, InsertMean: 300, InsertStd: 30, ErrorRate: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, origins := sim.All()
	w, err := agd.NewWriter(store, name, agd.StandardReadColumns(), agd.WriterOptions{
		ChunkSize: 100, RefSeqs: agd.RefSeqsFromGenome(g),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if err := w.Append(rs[i].Bases, rs[i].Quals, []byte(rs[i].Meta)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return g, origins
}

func TestAlignPipelinePairedSNAP(t *testing.T) {
	store := agd.NewMemStore()
	g, origins := pairedFixture(t, store, "ds", 200_000, 400)
	idx, err := snap.BuildIndex(g, snap.IndexConfig{SeedLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = alignDataset(context.Background(), store, "ds", AlignConfig{Index: idx, Paired: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkPairedResults(t, store, origins, 0.8)
}

func checkPairedResults(t *testing.T, store agd.BlobStore, origins []reads.Origin, minProper float64) {
	t.Helper()
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	results, err := ds.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	if len(results)%2 != 0 {
		t.Fatalf("odd result count %d", len(results))
	}
	proper, correct := 0, 0
	for i := 0; i < len(results); i += 2 {
		r1, r2 := results[i], results[i+1]
		if r1.Flags&agd.FlagPaired == 0 || r2.Flags&agd.FlagPaired == 0 {
			t.Fatalf("pair %d missing paired flags: %+v %+v", i/2, r1, r2)
		}
		if r1.Flags&agd.FlagFirstInPair == 0 || r2.Flags&agd.FlagSecondInPair == 0 {
			t.Fatalf("pair %d order flags wrong", i/2)
		}
		if r1.Flags&agd.FlagProperPair == 0 {
			continue
		}
		proper++
		d1 := r1.Location - origins[i].Pos
		if d1 < 0 {
			d1 = -d1
		}
		d2 := r2.Location - origins[i+1].Pos
		if d2 < 0 {
			d2 = -d2
		}
		if d1 <= 8 && d2 <= 8 {
			correct++
		}
	}
	if frac := float64(proper) / float64(len(results)/2); frac < minProper {
		t.Fatalf("proper fraction %.3f < %.2f", frac, minProper)
	}
	if proper > 0 {
		if frac := float64(correct) / float64(proper); frac < 0.9 {
			t.Fatalf("pair-correct fraction %.3f", frac)
		}
	}
}

func TestAlignPipelinePairedOddCount(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 60_000, NumReads: 101, ReadLen: 60, ChunkSize: 50, Seed: 115, SkipAlign: true,
	})
	if _, _, err := alignDataset(context.Background(), store, "ds", AlignConfig{Index: f.Index, Paired: true}, 2); err == nil {
		t.Fatal("odd record count accepted for paired alignment")
	}
}

// TestAlignPairedOddGroup: a pair split across two groups can never be
// aligned as a pair, so a paired run over an even number of reads in
// odd-sized chunks fails at the first group, before aligning any of it.
func TestAlignPairedOddGroup(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 60_000, NumReads: 50, ReadLen: 60, ChunkSize: 25, Seed: 116, SkipAlign: true,
	})
	_, _, err := alignDataset(context.Background(), store, "ds", AlignConfig{Index: f.Index, Paired: true}, 2)
	if err == nil || !strings.Contains(err.Error(), "group 0 has 25 records") {
		t.Fatalf("err = %v, want the odd group 0 of 25 records named", err)
	}
}
