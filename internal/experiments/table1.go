package experiments

import (
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"persona/internal/agd"
	"persona/internal/baseline"
	"persona/internal/core"
	"persona/internal/simulate"
)

// Table1Simulated reproduces Table 1 at paper scale with the calibrated
// fluid model.
func Table1Simulated(w io.Writer) ([]simulate.Table1Row, error) {
	p := simulate.DefaultPaperParams()
	rows, err := simulate.Table1(p)
	if err != nil {
		return nil, err
	}
	section(w, "Table 1 (paper scale, modeled)")
	fmt.Fprintf(w, "%-14s %10s %10s %8s   paper: SNAP/Persona/speedup\n", "Config", "SNAP(s)", "Persona(s)", "speedup")
	paper := map[string][3]string{
		"Disk(Single)": {"817", "501", "1.63"},
		"Disk(RAID)":   {"494", "499", "0.99"},
		"Network":      {"760", "493.5", "1.54"},
	}
	for _, r := range rows {
		pp := paper[r.Config]
		fmt.Fprintf(w, "%-14s %10.0f %10.0f %8.2f   %s / %s / %s\n",
			r.Config, r.SNAPSeconds, r.PersonaSeconds, r.Speedup, pp[0], pp[1], pp[2])
	}
	fmt.Fprintf(w, "%-14s %10.0f %10.0f %8.2f   18 GB / 15 GB / 1.2\n", "Data Read(GB)",
		p.FASTQReadBytes/1e9, p.AGDReadBytes/1e9, p.FASTQReadBytes/p.AGDReadBytes)
	fmt.Fprintf(w, "%-14s %10.0f %10.0f %8.2f   67 GB / 4 GB / 16.75\n", "Data Written",
		p.SAMWriteBytes/1e9, p.AGDWriteBytes/1e9, p.SAMWriteBytes/p.AGDWriteBytes)
	return rows, nil
}

// Table1Measured is one measured row of Table 1 at laptop scale.
type Table1Measured struct {
	Scale             Scale
	SNAPSeconds       float64
	PersonaSeconds    float64
	Speedup           float64
	SNAPReadBytes     int64
	SNAPWriteBytes    int64
	PersonaReadBytes  int64
	PersonaWriteBytes int64
}

// countingStore decorates a BlobStore with byte accounting; counters are
// atomic because pipeline reader/writer nodes run in parallel.
type countingStore struct {
	agd.BlobStore
	read, written atomic.Int64
}

func (c *countingStore) Get(name string) ([]byte, error) {
	b, err := c.BlobStore.Get(name)
	c.read.Add(int64(len(b)))
	return b, err
}

func (c *countingStore) Put(name string, data []byte) error {
	c.written.Add(int64(len(data)))
	return c.BlobStore.Put(name, data)
}

// moved returns the bytes read plus the bytes written so far.
func (c *countingStore) moved() int64 { return c.read.Load() + c.written.Load() }

// RunTable1Measured runs the real single-server comparison on local files:
// the standalone row-oriented pipeline (gz FASTQ in → SAM text out) versus
// the Persona AGD dataflow pipeline, both with the same SNAP aligner
// underneath.
func RunTable1Measured(ctx context.Context, w io.Writer, sc Scale, dir string) (*Table1Measured, error) {
	g, rs, err := sc.simulatedReads()
	if err != nil {
		return nil, err
	}
	idx, err := buildSnapIndex(g)
	if err != nil {
		return nil, err
	}
	fq, err := fastqText(rs)
	if err != nil {
		return nil, err
	}

	// Standalone input: gzipped FASTQ on disk.
	gzPath := filepath.Join(dir, "reads.fastq.gz")
	gzFile, err := os.Create(gzPath)
	if err != nil {
		return nil, err
	}
	zw := gzip.NewWriter(gzFile)
	if _, err := zw.Write([]byte(fq)); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	if err := gzFile.Close(); err != nil {
		return nil, err
	}

	// Persona input: AGD dataset on a local DirStore.
	dirStore, err := agd.NewDirStore(filepath.Join(dir, "agd"))
	if err != nil {
		return nil, err
	}
	store := &countingStore{BlobStore: dirStore}
	if _, err := sc.fixture(store, "ds", false); err != nil {
		return nil, err
	}
	store.read.Store(0) // count only the alignment phase
	store.written.Store(0)

	// Run 1: standalone.
	in, err := os.Open(gzPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	samOut, err := os.Create(filepath.Join(dir, "out.sam"))
	if err != nil {
		return nil, err
	}
	defer samOut.Close()
	cr := &baseline.CountingReader{R: in}
	cw := &baseline.CountingWriter{W: samOut}
	snapStart := time.Now()
	if _, err := baseline.RunStandaloneAligner(idx, agd.RefSeqsFromGenome(g), cr, cw, baseline.StandaloneConfig{
		Threads: 2, Gzipped: true,
	}); err != nil {
		return nil, err
	}
	snapSecs := time.Since(snapStart).Seconds()

	// Run 2: Persona AGD pipeline.
	personaStart := time.Now()
	if _, _, err := core.Align(ctx, core.AlignConfig{
		Store: store, Dataset: "ds", Index: idx, ExecutorThreads: 2,
	}); err != nil {
		return nil, err
	}
	personaSecs := time.Since(personaStart).Seconds()

	res := &Table1Measured{
		Scale:             sc,
		SNAPSeconds:       snapSecs,
		PersonaSeconds:    personaSecs,
		Speedup:           snapSecs / personaSecs,
		SNAPReadBytes:     cr.N,
		SNAPWriteBytes:    cw.N,
		PersonaReadBytes:  store.read.Load(),
		PersonaWriteBytes: store.written.Load(),
	}
	section(w, "Table 1 (measured, laptop scale)")
	fmt.Fprintf(w, "workload: %s\n", sc)
	fmt.Fprintf(w, "%-22s %12s %12s\n", "", "SNAP-style", "Persona-AGD")
	fmt.Fprintf(w, "%-22s %12.2f %12.2f   (speedup %.2fx)\n", "alignment time (s)", res.SNAPSeconds, res.PersonaSeconds, res.Speedup)
	fmt.Fprintf(w, "%-22s %12d %12d   (ratio %.2fx)\n", "bytes read", res.SNAPReadBytes, res.PersonaReadBytes,
		float64(res.SNAPReadBytes)/float64(res.PersonaReadBytes))
	fmt.Fprintf(w, "%-22s %12d %12d   (ratio %.2fx; paper: 16.75x)\n", "bytes written", res.SNAPWriteBytes, res.PersonaWriteBytes,
		float64(res.SNAPWriteBytes)/float64(res.PersonaWriteBytes))
	fmt.Fprintln(w, "note: with a tiny workload on a fast local filesystem both pipelines are compute")
	fmt.Fprintln(w, "bound (the paper's RAID row); AGD's time advantage appears when storage bandwidth")
	fmt.Fprintln(w, "is the constraint (modeled rows above) — the write-volume advantage appears at any scale")
	return res, nil
}
