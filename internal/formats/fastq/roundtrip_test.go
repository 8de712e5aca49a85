package fastq_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"persona"
	"persona/internal/agd"
	"persona/internal/formats/fastq"
	"persona/internal/genome"
	"persona/internal/reads"
)

// TestFASTQRoundTripGolden pins exact FASTQ text through FASTQ → AGD →
// FASTQ: the zero-allocation import/export rewrite must be byte-identical
// to the record-at-a-time one it replaced. '@' as a quality value (the
// classic FASTQ ambiguity) is covered.
func TestFASTQRoundTripGolden(t *testing.T) {
	const golden = "@r1 first read\nACGTACGT\n+\nIIIIIIII\n" +
		"@r2\nGGGG\n+\n@@@@\n" +
		"@r3/1 with spaces\tand tab\nTTTTTTTTTTTT\n+\n!\"#$%&'()*+,\n"

	store := agd.NewMemStore()
	_, n, err := persona.ImportFASTQ(context.Background(), store, "ds", strings.NewReader(golden), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("imported %d records", n)
	}
	var out bytes.Buffer
	if _, err := persona.ExportFASTQ(context.Background(), store, "ds", &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != golden {
		t.Fatalf("round trip is not byte-identical:\n--- want ---\n%s--- got ---\n%s", golden, out.String())
	}
}

// TestFASTQRoundTripSimulated round-trips a simulator-scale read set.
func TestFASTQRoundTripSimulated(t *testing.T) {
	g, err := genome.Synthesize(genome.DefaultSyntheticConfig(50_000, 9))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := reads.NewSimulator(g, reads.SimConfig{Seed: 21, N: 500, ReadLen: 101})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := sim.All()
	var text bytes.Buffer
	w := fastq.NewWriter(&text)
	for i := range rs {
		if err := w.Write(&rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	store := agd.NewMemStore()
	if _, _, err := persona.ImportFASTQ(context.Background(), store, "ds", bytes.NewReader(text.Bytes()), nil, 100); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := persona.ExportFASTQ(context.Background(), store, "ds", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text.Bytes(), out.Bytes()) {
		t.Fatal("FASTQ → AGD → FASTQ round trip is not byte-identical")
	}
}
