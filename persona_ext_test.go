package persona_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"persona"
	"persona/internal/agd"
	"persona/internal/formats/fastq"
	"persona/internal/reads"
)

// TestExtendedPipeline covers the extension surface: paired-end alignment,
// filtering, variant calling with VCF output, and SAM import.
func TestExtendedPipeline(t *testing.T) {
	ref, err := persona.SynthesizeGenome(200_000, 57)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := reads.NewSimulator(ref, reads.SimConfig{
		Seed: 58, N: 600, ReadLen: 80, Paired: true, InsertMean: 300, InsertStd: 30, ErrorRate: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := sim.All()
	var fqBuf bytes.Buffer
	fw := fastq.NewWriter(&fqBuf)
	for i := range rs {
		if err := fw.Write(&rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fq := fqBuf.String()

	// Paired-end SNAP alignment through the pipeline.
	store := persona.NewMemStore()
	if _, _, err := persona.ImportFASTQ(context.Background(), store, "pe", strings.NewReader(fq), persona.RefSeqs(ref), 128); err != nil {
		t.Fatal(err)
	}
	idx, err := persona.BuildIndex(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := persona.AlignPaired(context.Background(), store, "pe", idx, persona.AlignOptions{}); err != nil {
		t.Fatal(err)
	}
	ds, err := persona.OpenDataset(store, "pe")
	if err != nil {
		t.Fatal(err)
	}
	results, err := ds.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	proper := 0
	for _, r := range results {
		if r.Flags&agd.FlagProperPair != 0 {
			proper++
		}
	}
	if frac := float64(proper) / float64(len(results)); frac < 0.8 {
		t.Fatalf("proper-pair fraction %.3f", frac)
	}

	// Filter to confident reads.
	_, fstats, err := persona.Filter(context.Background(), store, "pe", persona.FilterMinMapQ(20), "pe.confident")
	if err != nil {
		t.Fatal(err)
	}
	if fstats.Kept == 0 || fstats.Kept > fstats.In {
		t.Fatalf("filter stats %+v", fstats)
	}

	// Variant calling on the filtered dataset (no planted variants: expect
	// few calls) and VCF output.
	variants, err := persona.CallVariants(context.Background(), store, "pe.confident", ref)
	if err != nil {
		t.Fatal(err)
	}
	var vcf bytes.Buffer
	if err := persona.WriteVCF(&vcf, ref, variants); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vcf.String(), "##fileformat=VCFv4.2") {
		t.Fatal("VCF header missing")
	}

	// SAM round trip: export the paired dataset, re-import, compare results.
	var samText bytes.Buffer
	if _, err := persona.ExportSAM(context.Background(), store, "pe", &samText); err != nil {
		t.Fatal(err)
	}
	store2 := persona.NewMemStore()
	m2, n2, err := persona.ImportSAM(context.Background(), store2, "reimported", strings.NewReader(samText.String()), 128)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != uint64(len(results)) {
		t.Fatalf("re-imported %d records, want %d", n2, len(results))
	}
	ds2, err := persona.OpenDataset(store2, "reimported")
	if err != nil {
		t.Fatal(err)
	}
	results2, err := ds2.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Location != results2[i].Location ||
			results[i].Flags != results2[i].Flags ||
			results[i].Cigar != results2[i].Cigar {
			t.Fatalf("record %d changed through SAM round trip:\n%+v\n%+v", i, results[i], results2[i])
		}
	}
	if m2.NumRecords() != uint64(len(results)) {
		t.Fatalf("manifest records %d", m2.NumRecords())
	}

	// Reads must also round-trip in as-sequenced orientation.
	origBases, err := ds.ReadAllBases()
	if err != nil {
		t.Fatal(err)
	}
	reBases, err := ds2.ReadAllBases()
	if err != nil {
		t.Fatal(err)
	}
	for i := range origBases {
		if !bytes.Equal(origBases[i], reBases[i]) {
			t.Fatalf("read %d bases changed through SAM round trip", i)
		}
	}
}
