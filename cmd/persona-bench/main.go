// Command persona-bench regenerates the paper's evaluation: every table and
// figure of §5/§6, printing modeled paper-scale numbers alongside real
// measurements on synthetic workloads.
//
// Usage:
//
//	persona-bench -run all
//	persona-bench -run table1,fig7
//	persona-bench -run table2 -reads 20000 -genome 2000000
//
// Experiment ids: table1, table2, table3, fig5, fig6, fig7, fig8, dupmark,
// conv, all. See PERF.md for recorded measurements and ROADMAP.md for where
// each experiment stands.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"persona/internal/experiments"
)

func main() {
	// Ctrl-C / SIGTERM cancels the in-flight experiment instead of leaving
	// a half-run measurement.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	run := flag.String("run", "all", "comma-separated experiment ids (table1,table2,table3,fig5,fig6,fig7,fig8,dupmark,conv,ablation,all)")
	genomeSize := flag.Int("genome", 0, "override measured-workload genome size in bases")
	numReads := flag.Int("reads", 0, "override measured-workload read count")
	readLen := flag.Int("readlen", 0, "override measured-workload read length")
	chunkSize := flag.Int("chunk", 0, "override measured-workload AGD chunk size")
	seed := flag.Int64("seed", 0, "override workload seed")
	flag.Parse()

	sc := experiments.SmallScale()
	if *genomeSize > 0 {
		sc.GenomeSize = *genomeSize
	}
	if *numReads > 0 {
		sc.NumReads = *numReads
	}
	if *readLen > 0 {
		sc.ReadLen = *readLen
	}
	if *chunkSize > 0 {
		sc.ChunkSize = *chunkSize
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	want := make(map[string]bool)
	for _, id := range strings.Split(*run, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	ran := 0

	out := os.Stdout
	fail := func(id string, err error) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "persona-bench: %s: interrupted\n", id)
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "persona-bench: %s: %v\n", id, err)
		os.Exit(1)
	}

	if all || want["table1"] {
		ran++
		if _, err := experiments.Table1Simulated(out); err != nil {
			fail("table1", err)
		}
		dir, err := os.MkdirTemp("", "persona-table1")
		if err != nil {
			fail("table1", err)
		}
		defer os.RemoveAll(dir)
		if _, err := experiments.RunTable1Measured(ctx, out, sc, dir); err != nil {
			fail("table1", err)
		}
	}
	if all || want["fig5"] {
		ran++
		if _, err := experiments.RunFig5(out); err != nil {
			fail("fig5", err)
		}
	}
	if all || want["fig6"] {
		ran++
		experiments.RunFig6(out)
		if _, err := experiments.RunFig6Measured(ctx, out, sc, runtime.NumCPU()); err != nil {
			fail("fig6", err)
		}
	}
	if all || want["fig7"] {
		ran++
		if _, err := experiments.RunFig7(out); err != nil {
			fail("fig7", err)
		}
		if _, err := experiments.RunFig7Measured(ctx, out, sc, []int{1, 2, 4}); err != nil {
			fail("fig7", err)
		}
	}
	if all || want["table2"] {
		ran++
		if _, err := experiments.RunTable2(ctx, out, sc); err != nil {
			fail("table2", err)
		}
	}
	if all || want["dupmark"] {
		ran++
		if _, err := experiments.RunDupmark(ctx, out, sc); err != nil {
			fail("dupmark", err)
		}
	}
	if all || want["conv"] {
		ran++
		if _, err := experiments.RunConversion(ctx, out, sc); err != nil {
			fail("conv", err)
		}
	}
	if all || want["fig8"] {
		ran++
		if _, err := experiments.RunFig8(ctx, out, sc); err != nil {
			fail("fig8", err)
		}
	}
	if all || want["table3"] {
		ran++
		if _, err := experiments.RunTable3(out); err != nil {
			fail("table3", err)
		}
	}
	if all || want["ablation"] {
		ran++
		if _, err := experiments.RunChunkSizeAblation(ctx, out, sc); err != nil {
			fail("ablation", err)
		}
		if _, err := experiments.RunCompressionAblation(ctx, out, sc); err != nil {
			fail("ablation", err)
		}
		if _, err := experiments.RunSubchunkAblation(ctx, out, sc); err != nil {
			fail("ablation", err)
		}
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "persona-bench: no experiment matched %q\n", *run)
		flag.Usage()
		os.Exit(2)
	}
}
