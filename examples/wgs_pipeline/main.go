// WGS pipeline: the full whole-genome-sequencing preprocessing workflow the
// paper targets (§1) — import, align, sort by coordinate, mark duplicates,
// export BAM — run two ways over the same reads:
//
//   - staged: the one-shot free functions, each materializing its output in
//     the store (align writes results chunks, sort writes a ".sorted"
//     dataset, markdup rewrites it, export re-reads it), and
//   - fused: one Session/Pipeline graph, where chunks stream stage-to-stage
//     in memory and nothing intermediate is written (sort keeps its runs in
//     memory too).
//
// The BAM bytes are identical; the wall-clock delta is the store round
// trips the fused graph never pays. PERF.md records the measured numbers.
//
//	go run ./examples/wgs_pipeline
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"persona"
	"persona/internal/formats/fastq"
	"persona/internal/reads"
)

func stage(name string, fn func() error) time.Duration {
	start := time.Now()
	if err := fn(); err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	d := time.Since(start)
	fmt.Printf("  %-22s %v\n", name, d.Round(time.Millisecond))
	return d
}

func main() {
	const (
		genomeSize = 2_000_000
		numReads   = 20_000
		readLen    = 101
		dupFrac    = 0.12
	)
	ctx := context.Background()
	fmt.Printf("workload: %d-base genome, %d x %d bp reads, %.0f%% duplicates\n\n",
		genomeSize, numReads, readLen, dupFrac*100)

	ref, err := persona.SynthesizeGenome(genomeSize, 7)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := reads.NewSimulator(ref, reads.SimConfig{
		Seed: 8, N: numReads, ReadLen: readLen, DuplicateFraction: dupFrac,
	})
	if err != nil {
		log.Fatal(err)
	}
	rs, _ := sim.All()
	var fq bytes.Buffer
	fw := fastq.NewWriter(&fq)
	for i := range rs {
		if err := fw.Write(&rs[i]); err != nil {
			log.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		log.Fatal(err)
	}

	store := persona.NewMemStore()
	sess := persona.NewSession(store, persona.SessionOptions{})
	defer sess.Close()
	idx, err := sess.Index(ref)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"wgs.staged", "wgs.fused"} {
		if _, _, err := persona.ImportFASTQ(ctx, store, name, strings.NewReader(fq.String()), persona.RefSeqs(ref), 2000); err != nil {
			log.Fatal(err)
		}
	}

	// Staged path: every stage is a store round trip.
	fmt.Println("staged (free functions, intermediate datasets):")
	var stagedBAM bytes.Buffer
	stagedTotal := stage("align (SNAP)", func() error {
		_, _, err := persona.Align(ctx, store, "wgs.staged", idx, persona.AlignOptions{})
		return err
	})
	stagedTotal += stage("sort by location", func() error {
		_, err := persona.Sort(ctx, store, "wgs.staged", persona.ByLocation, "wgs.staged.sorted")
		return err
	})
	var dups persona.DupStats
	stagedTotal += stage("mark duplicates", func() error {
		var err error
		dups, err = persona.MarkDuplicates(ctx, store, "wgs.staged.sorted")
		return err
	})
	stagedTotal += stage("export BAM", func() error {
		_, err := persona.ExportBAM(ctx, store, "wgs.staged.sorted", &stagedBAM)
		return err
	})
	fmt.Printf("  %-22s %v\n", "total", stagedTotal.Round(time.Millisecond))
	fmt.Printf("  %-22s %d/%d reads (%.1f%%)\n\n", "duplicates",
		dups.Duplicates, dups.Reads, 100*float64(dups.Duplicates)/float64(dups.Reads))

	// Fused path: the same four stages as ONE streamed graph — no results
	// writeback, no .sorted dataset, no re-read before export.
	fmt.Println("fused (one Session/Pipeline graph, zero intermediates):")
	var fusedBAM bytes.Buffer
	report, err := sess.Read("wgs.fused").
		Align(idx, persona.AlignOptions{}).
		Sort(persona.ByLocation).
		MarkDuplicates().
		ExportBAM(&fusedBAM).
		Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range report.Stages {
		fmt.Printf("  %-22s %v\n", st.Stage, st.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("  %-22s %v\n", "total", report.Elapsed.Round(time.Millisecond))
	fmt.Printf("  %-22s %d/%d reads (%.1f%%)\n", "duplicates",
		report.Dups.Duplicates, report.Dups.Reads, 100*float64(report.Dups.Duplicates)/float64(report.Dups.Reads))
	fmt.Printf("  %-22s %d tasks\n\n", "executor", report.Executor.Completed)

	if bytes.Equal(stagedBAM.Bytes(), fusedBAM.Bytes()) {
		fmt.Printf("BAM outputs identical (%d bytes); fused is %.2fx the staged wall time\n",
			fusedBAM.Len(), report.Elapsed.Seconds()/stagedTotal.Seconds())
	} else {
		log.Fatalf("BAM outputs differ: staged %d bytes, fused %d bytes", stagedBAM.Len(), fusedBAM.Len())
	}
}
