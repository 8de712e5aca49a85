// Quickstart: the smallest end-to-end Persona run on the Session/Pipeline
// API — open a session, import reads, then run one fused
// align → sort → export graph with no intermediate datasets.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"strings"

	"persona"
	"persona/internal/formats/fastq"
	"persona/internal/reads"
)

func main() {
	ctx := context.Background()

	// A deterministic synthetic reference stands in for hg19 (the real
	// reference cannot ship with the repository).
	ref, err := persona.SynthesizeGenome(500_000, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reference:", ref)

	// Simulate a sequencer run. In production this would be the FASTQ file
	// coming off the machine; the simulator is internal scaffolding.
	sim, err := reads.NewSimulator(ref, reads.SimConfig{Seed: 1, N: 5000, ReadLen: 101})
	if err != nil {
		log.Fatal(err)
	}
	rs, _ := sim.All()
	var fq bytes.Buffer
	w := fastq.NewWriter(&fq)
	for i := range rs {
		if err := w.Write(&rs[i]); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	// A Session owns the runtime every pipeline shares: the store, one
	// executor, the chunk cache and the index cache.
	store := persona.NewMemStore()
	sess := persona.NewSession(store, persona.SessionOptions{})
	defer sess.Close()

	// 1. Import FASTQ into the AGD column store — a two-stage pipeline:
	// parse source, dataset sink.
	imp, err := sess.ImportFASTQ(strings.NewReader(fq.String()), persona.RefSeqs(ref), 1000).
		Write("patient").
		Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported:  %d reads in %d AGD chunks (columns %v)\n",
		imp.Records, len(imp.Manifest.Chunks), imp.Manifest.Columns)

	// 2. The whole analysis as ONE graph: read the dataset, align against
	// the session-cached index, sort by coordinate, render SAM. Chunks flow
	// stage-to-stage in memory — nothing lands in the store between stages.
	idx, err := sess.Index(ref)
	if err != nil {
		log.Fatal(err)
	}
	var sam bytes.Buffer
	report, err := sess.Read("patient").
		Align(idx, persona.AlignOptions{}).
		Sort(persona.ByLocation).
		ExportSAM(&sam).
		Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline:  %d records in %s (%.2f Mbases/s aligned)\n",
		report.Records, report.Elapsed.Round(1000_000), report.Align.BasesPerSec/1e6)
	for _, st := range report.Stages {
		fmt.Printf("  %-12s %8d records  %v\n", st.Stage, st.Records, st.Elapsed.Round(1000_000))
	}
	fmt.Printf("executor:  %d tasks\n", report.Executor.Completed)

	// 3. The output is ordinary SAM for downstream tools.
	lines := strings.SplitN(sam.String(), "\n", 6)
	fmt.Println("SAM head:")
	for _, line := range lines[:5] {
		fmt.Println(" ", line)
	}
}
