// Cluster scaling: distributed alignment across worker nodes coordinated by
// a TCP phase server (§5.2's manifest server), followed by the paper-scale
// discrete-event projection of Fig. 7 (linear to ~60 nodes, then
// write-limited).
//
//	go run ./examples/cluster_scaling
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
	"persona/internal/simulate"
	"persona/internal/storage"
)

func main() {
	ref, err := persona.SynthesizeGenome(1_000_000, 11)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := reads.NewSimulator(ref, reads.SimConfig{Seed: 12, N: 10_000, ReadLen: 101})
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

	idx, err := persona.BuildIndex(ref)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("real distributed runtime (in-process nodes, TCP phase server):")
	var profiled *storage.RetryStore
	for _, nodes := range []int{1, 2, 4} {
		store := persona.NewRetryStore(persona.NewMemStore(), persona.RetryPolicy{})
		if _, _, err := persona.ImportFASTQ(context.Background(), store, "ds", strings.NewReader(fq.String()), persona.RefSeqs(ref), 1000); err != nil {
			log.Fatal(err)
		}
		report, _, err := persona.AlignDistributed(context.Background(), store, "ds", idx, nodes, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d node(s): %7.2f Mbases/s  imbalance %.1f%%  (%d chunks over %d nodes)\n",
			nodes, report.BasesPerSec/1e6, report.Imbalance*100, chunksOf(report), len(report.Nodes))
		profiled = store
	}

	fmt.Println("\nreal distributed fused pipeline (read → align → sort → markdup → export):")
	for _, nodes := range []int{1, 2, 4} {
		store := persona.NewMemStore()
		if _, _, err := persona.ImportFASTQ(context.Background(), store, "ds", strings.NewReader(fq.String()), persona.RefSeqs(ref), 1000); err != nil {
			log.Fatal(err)
		}
		sess := persona.NewSession(store, persona.SessionOptions{})
		var sam bytes.Buffer
		report, err := sess.Read("ds").
			Align(idx, persona.AlignOptions{}).
			Sort(persona.ByLocation).
			MarkDuplicates().
			ExportSAM(&sam).
			Distributed(nodes).
			Run(context.Background())
		sess.Close()
		if err != nil {
			log.Fatal(err)
		}
		c := report.Cluster
		fmt.Printf("  %d node(s): %7d records in %8s  shuffle %5.1f MiB  skew %.2f\n",
			nodes, report.Records, c.Elapsed.Round(time.Millisecond),
			float64(c.ShuffleBytes)/(1<<20), c.PartitionSkew)
	}

	// Seed the paper-scale calibration's storage side from the bandwidth
	// and latency the runs above actually measured, instead of the
	// hardcoded constants.
	params := simulate.DefaultPaperParams()
	if lat, mbps, n := profiled.ReadProfile(); n > 0 {
		params = simulate.ParamsFromProfile(params, lat, mbps, n)
	}

	fmt.Println("\npaper-scale projection (Fig. 7 discrete-event model):")
	points, err := simulate.Fig7(simulate.DefaultPaperParams(), []int{1, 8, 16, 32, 60, 80, 100})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		bar := strings.Repeat("#", int(p.BasesPerSec/1e9*20))
		fmt.Printf("  %3d nodes %8.3f Gbases/s %6.1f s/genome %s\n", p.Nodes, p.BasesPerSec/1e9, p.Seconds, bar)
	}
	fmt.Println("\nthe 32-node point is the paper's headline: ~1.35 Gbases/s, a genome in ~16.7 s")

	fmt.Println("\npaper-scale distributed fused pipeline (three-phase DES, profile-seeded):")
	dp, err := simulate.DistScaling(params, []int{1, 8, 16, 32, 60})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range dp {
		fmt.Printf("  %3d nodes %8.3f Gbases/s %6.1f s/genome\n", p.Nodes, p.BasesPerSec/1e9, p.Seconds)
	}
}

func chunksOf(r *persona.ClusterReport) int {
	total := 0
	for _, n := range r.Nodes {
		total += n.Chunks
	}
	return total
}
