// Storage and TCO: stores a dataset in the Ceph-like replicated object
// store, injects OSD failures to show 3-way replication riding through
// them (§4.2, §5.1), then prints the Table 3 cost analysis (§6.1).
//
//	go run ./examples/storage_tco
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
	"persona/internal/storage"
	"persona/internal/tco"
)

func main() {
	// Build a dataset directly inside the object store.
	ref, err := persona.SynthesizeGenome(300_000, 21)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := reads.NewSimulator(ref, reads.SimConfig{Seed: 22, N: 3000, ReadLen: 101})
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

	objStore, err := storage.NewObjectStore(storage.ObjectStoreConfig{OSDs: 7, Replication: 3})
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := persona.ImportFASTQ(context.Background(), objStore, "ds", strings.NewReader(fq.String()), persona.RefSeqs(ref), 500); err != nil {
		log.Fatal(err)
	}
	stats := objStore.Stats()
	fmt.Printf("object store: %d blobs, %d logical bytes, %d physical bytes (3x replication)\n",
		stats.Puts, stats.BytesIn, stats.ReplicatedBytesIn)
	fmt.Printf("per-OSD bytes: %v\n", objStore.OSDBytes())

	// Fail two OSDs; with 3-way replication every blob survives.
	if err := objStore.FailOSD(2); err != nil {
		log.Fatal(err)
	}
	if err := objStore.FailOSD(5); err != nil {
		log.Fatal(err)
	}
	ds, err := persona.OpenDataset(objStore, "ds")
	if err != nil {
		log.Fatal(err)
	}
	bases, err := ds.ReadAllBases()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after failing OSDs 2 and 5: all %d reads still readable (%d degraded reads)\n",
		len(bases), objStore.Stats().DegradedReads)
	if err := objStore.RecoverOSD(2); err != nil {
		log.Fatal(err)
	}
	if err := objStore.RecoverOSD(5); err != nil {
		log.Fatal(err)
	}
	fmt.Println("OSDs recovered and re-replicated")

	// Table 3.
	report, err := tco.Default().Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTable 3 — cluster TCO:")
	for _, item := range report.Items {
		fmt.Printf("  %-16s $%9.0f x %2d = $%9.0f\n", item.Item, item.UnitCost, item.Units, item.Total)
	}
	fmt.Printf("  hardware total $%.0f, 5-year TCO $%.0f\n", report.HardwareTotal, report.TCO5yr)
	fmt.Printf("  cost per alignment at full load: %.2f¢ (paper: 6.07¢)\n", report.CostPerAlignment*100)
	fmt.Printf("  storage per genome: $%.2f — Glacier for 5 years: $%.2f\n",
		report.StoragePerGenome, report.GlacierPerGenome5yr)
	fmt.Println("  computation is cheap; long-term storage dominates (§6.1)")

	// Nation-scale sizing (§6.1 case 3).
	c, s := tco.Default().ScaleForGenomes(86_400)
	fmt.Printf("  sequencing 86,400 genomes/day would need ~%d compute and ~%d storage servers (60:7 rule)\n", c, s)
}
