package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"persona"
	"persona/internal/agd"
	"persona/internal/baseline"
)

// Table2Result holds the measured sort comparison (paper Table 2). The
// seconds and slowdowns are wall-clock; the IOBytes are what each tool read
// plus what it wrote, the same on every run, and carry the table's shape
// without a clock: Picard reads SAM text where samtools reads compressed BAM,
// and the conversion is a pass over both on top of the sort.
type Table2Result struct {
	Scale                Scale
	PersonaSeconds       float64
	SamtoolsSeconds      float64
	SamtoolsConvSeconds  float64 // conversion + sort
	PicardSeconds        float64
	SamtoolsSlowdown     float64
	SamtoolsConvSlowdown float64
	PicardSlowdown       float64
	PersonaIOBytes       int64
	SamtoolsIOBytes      int64
	SamtoolsConvIOBytes  int64
	PicardIOBytes        int64
}

// RunTable2 measures full-dataset sorting: Persona's AGD external merge
// sort versus the samtools-style BAM sort (with and without the SAM→BAM
// conversion) and the Picard-style single-threaded sort.
func RunTable2(ctx context.Context, w io.Writer, sc Scale) (*Table2Result, error) {
	store := &countingStore{BlobStore: agd.NewMemStore()}
	f, err := sc.fixture(store, "ds", true)
	if err != nil {
		return nil, err
	}

	// Render the row-oriented inputs the baselines need.
	var samText bytes.Buffer
	if _, err := persona.ExportSAM(ctx, store, "ds", &samText); err != nil {
		return nil, err
	}
	refs := f.Dataset.Manifest.RefSeqs
	var bamBlob bytes.Buffer
	if _, err := baseline.ConvertSAMToBAM(bytes.NewReader(samText.Bytes()), &bamBlob, refs); err != nil {
		return nil, err
	}

	res := &Table2Result{Scale: sc}

	ioBefore := store.moved()
	start := time.Now()
	if _, err := persona.Sort(ctx, store, "ds", persona.ByLocation, "sorted"); err != nil {
		return nil, err
	}
	res.PersonaSeconds = time.Since(start).Seconds()
	res.PersonaIOBytes = store.moved() - ioBefore

	start = time.Now()
	var sortedBAM bytes.Buffer
	if _, err := baseline.SamtoolsSortBAM(bytes.NewReader(bamBlob.Bytes()), &sortedBAM); err != nil {
		return nil, err
	}
	res.SamtoolsSeconds = time.Since(start).Seconds()
	res.SamtoolsIOBytes = int64(bamBlob.Len() + sortedBAM.Len())

	start = time.Now()
	var convBAM, sortedBAM2 bytes.Buffer
	if _, err := baseline.ConvertSAMToBAM(bytes.NewReader(samText.Bytes()), &convBAM, refs); err != nil {
		return nil, err
	}
	if _, err := baseline.SamtoolsSortBAM(bytes.NewReader(convBAM.Bytes()), &sortedBAM2); err != nil {
		return nil, err
	}
	res.SamtoolsConvSeconds = time.Since(start).Seconds()
	res.SamtoolsConvIOBytes = int64(samText.Len() + 2*convBAM.Len() + sortedBAM2.Len())

	start = time.Now()
	var sortedSAM bytes.Buffer
	if _, err := baseline.PicardSortSAM(bytes.NewReader(samText.Bytes()), &sortedSAM, refs); err != nil {
		return nil, err
	}
	res.PicardSeconds = time.Since(start).Seconds()
	res.PicardIOBytes = int64(samText.Len() + sortedSAM.Len())

	res.SamtoolsSlowdown = res.SamtoolsSeconds / res.PersonaSeconds
	res.SamtoolsConvSlowdown = res.SamtoolsConvSeconds / res.PersonaSeconds
	res.PicardSlowdown = res.PicardSeconds / res.PersonaSeconds

	section(w, "Table 2 (measured): dataset sort time")
	fmt.Fprintf(w, "workload: %s\n", sc)
	fmt.Fprintf(w, "%-26s %10s %10s %12s   paper\n", "Tool", "time (s)", "vs Persona", "I/O bytes")
	fmt.Fprintf(w, "%-26s %10.3f %10.2f %12d   1.0x\n", "Persona (AGD merge sort)", res.PersonaSeconds, 1.0, res.PersonaIOBytes)
	fmt.Fprintf(w, "%-26s %10.3f %10.2f %12d   1.54x\n", "Samtools-style (BAM)", res.SamtoolsSeconds, res.SamtoolsSlowdown, res.SamtoolsIOBytes)
	fmt.Fprintf(w, "%-26s %10.3f %10.2f %12d   2.32x\n", "Samtools w/ conversion", res.SamtoolsConvSeconds, res.SamtoolsConvSlowdown, res.SamtoolsConvIOBytes)
	fmt.Fprintf(w, "%-26s %10.3f %10.2f %12d   5.15x\n", "Picard-style (SAM, 1 thr)", res.PicardSeconds, res.PicardSlowdown, res.PicardIOBytes)
	return res, nil
}

// DupmarkResult holds the §5.6 duplicate-marking comparison. The IOBytes are
// what each marker read plus what it wrote, the same on every run: Persona
// touches the results column alone, the SAM marker every field of every row,
// which is the paper's account of the throughput ratio.
type DupmarkResult struct {
	Scale                 Scale
	PersonaReadsPerSec    float64
	SamblasterReadsPerSec float64
	Ratio                 float64
	PersonaIOBytes        int64
	SamblasterIOBytes     int64
}

// RunDupmark measures duplicate marking: Persona over the results column
// versus the Samblaster-style SAM streaming marker.
func RunDupmark(ctx context.Context, w io.Writer, sc Scale) (*DupmarkResult, error) {
	store := &countingStore{BlobStore: agd.NewMemStore()}
	f, err := sc.fixture(store, "ds", true)
	if err != nil {
		return nil, err
	}
	var samText bytes.Buffer
	if _, err := persona.ExportSAM(ctx, store, "ds", &samText); err != nil {
		return nil, err
	}
	refs := f.Dataset.Manifest.RefSeqs

	ioBefore := store.moved()
	start := time.Now()
	stats, err := persona.MarkDuplicates(ctx, store, "ds")
	if err != nil {
		return nil, err
	}
	personaSecs := time.Since(start).Seconds()
	personaIO := store.moved() - ioBefore

	start = time.Now()
	var out bytes.Buffer
	bstats, err := baseline.SamblasterMark(bytes.NewReader(samText.Bytes()), &out, refs)
	if err != nil {
		return nil, err
	}
	samblasterSecs := time.Since(start).Seconds()

	res := &DupmarkResult{
		Scale:                 sc,
		PersonaReadsPerSec:    float64(stats.Reads) / personaSecs,
		SamblasterReadsPerSec: float64(bstats.Reads) / samblasterSecs,
		PersonaIOBytes:        personaIO,
		SamblasterIOBytes:     int64(samText.Len() + out.Len()),
	}
	res.Ratio = res.PersonaReadsPerSec / res.SamblasterReadsPerSec

	section(w, "Duplicate marking (measured, §5.6)")
	fmt.Fprintf(w, "workload: %s\n", sc)
	fmt.Fprintf(w, "%-26s %14.0f reads/s %12d I/O bytes\n", "Persona (results column)", res.PersonaReadsPerSec, res.PersonaIOBytes)
	fmt.Fprintf(w, "%-26s %14.0f reads/s %12d I/O bytes\n", "Samblaster-style (SAM)", res.SamblasterReadsPerSec, res.SamblasterIOBytes)
	fmt.Fprintf(w, "ratio %.2fx (paper: 1.36M vs 365K reads/s = 3.7x)\n", res.Ratio)
	return res, nil
}
