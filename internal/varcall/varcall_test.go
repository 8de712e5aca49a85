package varcall

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/genome"
	"persona/internal/reads"
	"persona/internal/testutil"
)

// addDataset piles up a dataset, every column of it streamed, with the
// default options.
func addDataset(p *Pileup, ds *agd.Dataset) error {
	in, err := ds.Groups(agd.StreamOptions{})
	if err != nil {
		return err
	}
	defer in.Close()
	return p.AddStream(context.Background(), in, NewOptions())
}

// callDataset piles up a dataset and calls variants with the default
// options.
func callDataset(t *testing.T, ds *agd.Dataset, ref *genome.Genome) ([]Variant, error) {
	t.Helper()
	p := NewPileup(ref)
	if err := addDataset(p, ds); err != nil {
		return nil, err
	}
	return p.Call(NewOptions())
}

// donorFixture builds a reference, plants homozygous SNPs into a donor copy,
// simulates high-coverage reads from the donor, aligns them against the
// original reference, and returns everything the caller needs.
func donorFixture(t *testing.T, numSNPs int) (*genome.Genome, *agd.Dataset, map[int64]byte) {
	t.Helper()
	ref, err := genome.Synthesize(genome.DefaultSyntheticConfig(100_000, 201))
	if err != nil {
		t.Fatal(err)
	}

	// Donor: the reference with planted substitutions, away from contig
	// edges so reads can span them.
	donorSeq := append([]byte{}, ref.Seq()...)
	rng := rand.New(rand.NewSource(202))
	planted := make(map[int64]byte)
	for len(planted) < numSNPs {
		pos := int64(rng.Intn(len(donorSeq)-400) + 200)
		if _, dup := planted[pos]; dup {
			continue
		}
		old := donorSeq[pos]
		if old == 'N' {
			continue
		}
		var alt byte
		for {
			alt = "ACGT"[rng.Intn(4)]
			if alt != old {
				break
			}
		}
		donorSeq[pos] = alt
		planted[pos] = alt
	}
	var contigs []genome.Contig
	off := int64(0)
	for _, c := range ref.Contigs() {
		contigs = append(contigs, genome.Contig{Name: c.Name, Seq: donorSeq[off : off+int64(c.Len())]})
		off += int64(c.Len())
	}
	donor, err := genome.New(contigs)
	if err != nil {
		t.Fatal(err)
	}

	// ~30x coverage of 80-bp reads from the donor.
	n := int(donor.Len()) * 30 / 80
	sim, err := reads.NewSimulator(donor, reads.SimConfig{Seed: 203, N: n, ReadLen: 80, ErrorRate: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := sim.All()

	store := agd.NewMemStore()
	idx, err := snap.BuildIndex(ref, snap.IndexConfig{SeedLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	aligner := snap.NewAligner(idx, snap.Config{MaxDist: 10})
	results := make([][]byte, len(rs))
	for i := range rs {
		res := aligner.AlignRead(rs[i].Bases)
		results[i] = agd.EncodeResult(nil, &res)
	}
	meta := agd.StreamMeta{Columns: []string{agd.ColBases, agd.ColQual, agd.ColMetadata, agd.ColResults}, ChunkSize: 2000, RefSeqs: agd.RefSeqsFromGenome(ref)}
	m, err := testutil.WriteRows(store, "donor", meta, testutil.ReadRows(rs, results))
	if err != nil {
		t.Fatal(err)
	}
	return ref, agd.OpenManifest(store, m), planted
}

func TestCallRecoversPlantedSNPs(t *testing.T) {
	ref, ds, planted := donorFixture(t, 40)
	variants, err := callDataset(t, ds, ref)
	if err != nil {
		t.Fatal(err)
	}

	// Index calls by global position.
	called := make(map[int64]Variant)
	for _, v := range variants {
		g, err := ref.GlobalPos(v.Contig, v.Pos)
		if err != nil {
			t.Fatal(err)
		}
		called[g] = v
	}

	recovered := 0
	for pos, alt := range planted {
		v, ok := called[pos]
		if !ok {
			continue
		}
		if v.Alt != alt {
			t.Fatalf("at %d called %c, planted %c", pos, v.Alt, alt)
		}
		if v.Genotype != "1/1" {
			t.Fatalf("homozygous SNP at %d called %s", pos, v.Genotype)
		}
		recovered++
	}
	if frac := float64(recovered) / float64(len(planted)); frac < 0.85 {
		t.Fatalf("recovered %d/%d planted SNPs (%.2f)", recovered, len(planted), frac)
	}
	// Precision: false calls should be rare relative to true ones.
	falseCalls := len(called) - recovered
	if falseCalls > len(planted)/2 {
		t.Fatalf("%d false calls vs %d planted", falseCalls, len(planted))
	}
}

func TestCallCleanDataHasFewVariants(t *testing.T) {
	// Reads simulated from the reference itself: calls should be ~none.
	ref, ds, _ := func() (*genome.Genome, *agd.Dataset, map[int64]byte) {
		t.Helper()
		return donorFixtureClean(t)
	}()
	variants, err := callDataset(t, ds, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) > 12 {
		t.Fatalf("%d variants called on variant-free data", len(variants))
	}
}

// donorFixtureClean simulates reads straight from the reference.
func donorFixtureClean(t *testing.T) (*genome.Genome, *agd.Dataset, map[int64]byte) {
	t.Helper()
	ref, err := genome.Synthesize(genome.DefaultSyntheticConfig(80_000, 204))
	if err != nil {
		t.Fatal(err)
	}
	n := int(ref.Len()) * 20 / 80
	sim, err := reads.NewSimulator(ref, reads.SimConfig{Seed: 205, N: n, ReadLen: 80, ErrorRate: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := sim.All()
	store := agd.NewMemStore()
	idx, err := snap.BuildIndex(ref, snap.IndexConfig{SeedLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	aligner := snap.NewAligner(idx, snap.Config{MaxDist: 10})
	results := make([][]byte, len(rs))
	for i := range rs {
		res := aligner.AlignRead(rs[i].Bases)
		results[i] = agd.EncodeResult(nil, &res)
	}
	meta := agd.StreamMeta{Columns: []string{agd.ColBases, agd.ColQual, agd.ColMetadata, agd.ColResults}, ChunkSize: 2000, RefSeqs: agd.RefSeqsFromGenome(ref)}
	m, err := testutil.WriteRows(store, "clean", meta, testutil.ReadRows(rs, results))
	if err != nil {
		t.Fatal(err)
	}
	return ref, agd.OpenManifest(store, m), nil
}

func TestWriteVCF(t *testing.T) {
	refs := []agd.RefSeq{{Name: "chr1", Length: 1000}}
	variants := []Variant{
		{Contig: "chr1", Pos: 41, Ref: 'A', Alt: 'T', Depth: 30, AltDepth: 29, Qual: 580, Genotype: "1/1"},
		{Contig: "chr1", Pos: 99, Ref: 'G', Alt: 'C', Depth: 28, AltDepth: 13, Qual: 260, Genotype: "0/1"},
	}
	var buf bytes.Buffer
	if err := WriteVCF(&buf, refs, variants); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"##fileformat=VCFv4.2",
		"##contig=<ID=chr1,length=1000>",
		"#CHROM\tPOS",
		"chr1\t42\t.\tA\tT\t580.0\tPASS\tDP=30;AD=29\tGT\t1/1",
		"chr1\t100\t.\tG\tC\t260.0\tPASS\tDP=28;AD=13\tGT\t0/1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCF missing %q:\n%s", want, out)
		}
	}
}

func TestPileupDepthAccounting(t *testing.T) {
	ref, ds, _ := donorFixtureClean(t)
	p := NewPileup(ref)
	if err := addDataset(p, ds); err != nil {
		t.Fatal(err)
	}
	reads, used := p.Stats()
	if reads == 0 || used == 0 || used > reads {
		t.Fatalf("stats = %d, %d", reads, used)
	}
	// Middle of the genome should be covered around 20x.
	mid := ref.Len() / 2
	sum := 0
	for off := int64(-50); off <= 50; off++ {
		sum += p.Depth(mid + off)
	}
	avg := float64(sum) / 101
	if avg < 5 || avg > 60 {
		t.Fatalf("average depth at center = %.1f, want ≈20", avg)
	}
	if p.Depth(-1) != 0 || p.Depth(1<<40) != 0 {
		t.Fatal("out-of-range depth not zero")
	}
}

func TestCallRejectsNoResults(t *testing.T) {
	ref, err := genome.Synthesize(genome.DefaultSyntheticConfig(50_000, 206))
	if err != nil {
		t.Fatal(err)
	}
	store := agd.NewMemStore()
	m, err := testutil.WriteRows(store, "x", agd.StreamMeta{Columns: []string{agd.ColBases, agd.ColQual, agd.ColMetadata}, ChunkSize: 10},
		[][][]byte{{[]byte("ACGT"), []byte("IIII"), []byte("r")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := callDataset(t, agd.OpenManifest(store, m), ref); err == nil {
		t.Fatal("dataset without results accepted")
	}
}
