package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"persona"
	"persona/internal/formats/fastq"
	"persona/internal/reads"
)

// TestStagedMatchesRun drives the CLI over two stores. One runs the staged
// subcommands — index, import, align, sort, markdup, export — each a one-shot
// that stores its dataset; the other runs the same graph as one `run`
// pipeline on the same input. The two SAM files must be byte-equal.
func TestStagedMatchesRun(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const genomeSize, seed = "80000", "7"
	g, err := persona.SynthesizeGenome(80_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := reads.NewSimulator(g, reads.SimConfig{Seed: 3, N: 600, ReadLen: 101, ErrorRate: 0.004, DuplicateFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := sim.All()
	var fq bytes.Buffer
	w := fastq.NewWriter(&fq)
	for i := range rs {
		if err := w.Write(&rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	fqPath := filepath.Join(dir, "reads.fastq")
	if err := os.WriteFile(fqPath, fq.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(cmd func(context.Context, []string) error, args ...string) {
		t.Helper()
		if err := cmd(ctx, args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	prepare := func(store string) {
		run(cmdIndex, "-store", store, "-genome-size", genomeSize, "-seed", seed)
		run(cmdImport, "-store", store, "-name", "ds", "-fastq", fqPath, "-chunk", "100")
	}

	staged, pipelined := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	stagedSAM, pipelinedSAM := filepath.Join(dir, "a.sam"), filepath.Join(dir, "b.sam")
	prepare(staged)
	run(cmdAlign, "-store", staged, "-name", "ds")
	run(cmdSort, "-store", staged, "-name", "ds", "-by", "location", "-out", "sorted")
	run(cmdMarkdup, "-store", staged, "-name", "sorted")
	run(cmdExport, "-store", staged, "-name", "sorted", "-format", "sam", "-o", stagedSAM)

	prepare(pipelined)
	run(cmdRun, "-store", pipelined, "-name", "ds", "-align", "-sort", "location", "-markdup", "-format", "sam", "-o", pipelinedSAM)

	want, err := os.ReadFile(stagedSAM)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(pipelinedSAM)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("run wrote %d bytes of SAM, the staged subcommands %d, and they differ", len(got), len(want))
	}
}
