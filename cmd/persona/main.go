// Command persona is the command-line front end of the framework: dataset
// import/export, alignment (single-server or distributed), sorting,
// duplicate marking and dataset inspection over AGD datasets in a local
// directory store.
//
// Usage:
//
//	persona import  -store DIR -name DS [-fastq FILE|-] [-gz] [-chunk N]
//	persona index   -store DIR -genome-size N -seed S        (synthetic reference)
//	persona align   -store DIR -name DS [-nodes N] [-threads N]
//	persona sort    -store DIR -name DS [-by location|metadata] [-out DS2]
//	persona markdup -store DIR -name DS
//	persona filter  -store DIR -name DS [-minmapq N] [-dedup] [-out DS2]
//	persona varcall -store DIR -name DS [-o FILE|-]
//	persona import-sam -store DIR -name DS [-sam FILE|-]
//	persona export  -store DIR -name DS -format sam|bam|fastq [-o FILE|-]
//	persona info    -store DIR -name DS
//	persona run     -store DIR -name DS [-align] [-sort location|metadata] [-markdup] [-minmapq N] [-dedup] [-nodes N] -format sam|bam|fastq [-o FILE|-]
//	persona submit  -server URL [-tenant T] -name DS [-align] [-sort location|metadata] [-markdup] [-minmapq N] [-dedup] -format sam|bam|fastq [-wait] [-o FILE|-]
//	persona status  -server URL [-tenant T] [-id JOB]
//	persona fetch   -server URL [-tenant T] -id JOB [-o FILE|-]
//
// The synthetic reference substitutes for hg19; `persona
// index` persists it in the store so later commands can rebuild the seed
// index deterministically.
//
// submit/status/fetch talk to a running persona-server; every command
// cancels its work cleanly on Ctrl-C (SIGINT/SIGTERM).
package main

import (
	"compress/gzip"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"persona"
	"persona/internal/agd"
	"persona/internal/jobs"
)

// gzipReader wraps a reader with gzip decompression. External .gz input is a
// stream of unknown size from any writer: compress/gzip's case, not
// internal/deflate's.
func gzipReader(r io.Reader) (*gzip.Reader, error) { return gzip.NewReader(r) }

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]

	// Ctrl-C / SIGTERM cancels the command's context: pipelines stop at the
	// next chunk boundary, decoded chunks go back, and a dataset that never
	// got its manifest is cleaned up instead of orphaned.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch cmd {
	case "import":
		err = cmdImport(ctx, args)
	case "index":
		err = cmdIndex(ctx, args)
	case "align":
		err = cmdAlign(ctx, args)
	case "sort":
		err = cmdSort(ctx, args)
	case "markdup":
		err = cmdMarkdup(ctx, args)
	case "export":
		err = cmdExport(ctx, args)
	case "info":
		err = cmdInfo(ctx, args)
	case "import-sam":
		err = cmdImportSAM(ctx, args)
	case "filter":
		err = cmdFilter(ctx, args)
	case "varcall":
		err = cmdVarcall(ctx, args)
	case "run":
		err = cmdRun(ctx, args)
	case "submit":
		err = cmdSubmit(ctx, args)
	case "status":
		err = cmdStatus(ctx, args)
	case "fetch":
		err = cmdFetch(ctx, args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "persona %s: interrupted\n", cmd)
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "persona %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: persona <import|import-sam|index|align|sort|markdup|filter|varcall|export|run|info|submit|status|fetch> [flags]")
	fmt.Fprintln(os.Stderr, "run 'persona <command> -h' for command flags")
}

func openStore(dir string) (persona.Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("missing -store")
	}
	return persona.NewLocalStore(dir)
}

func loadReference(store persona.Store) (*persona.Genome, error) {
	g, err := persona.LoadReference(store)
	if err != nil {
		return nil, fmt.Errorf("no reference in store (run 'persona index' first): %w", err)
	}
	return g, nil
}

func cmdIndex(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	size := fs.Int("genome-size", 8_000_000, "synthetic reference size in bases")
	seed := fs.Int64("seed", 42, "synthetic reference seed")
	fs.Parse(args)
	store, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	g, err := persona.StoreReference(store, *size, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("reference: %s\n", g)
	return nil
}

func cmdImport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	name := fs.String("name", "", "dataset name")
	fastqPath := fs.String("fastq", "-", "FASTQ input file ('-' for stdin)")
	gz := fs.Bool("gz", false, "input is gzip-compressed")
	chunk := fs.Int("chunk", agd.DefaultChunkSize, "records per AGD chunk")
	fs.Parse(args)
	store, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("missing -name")
	}

	var in io.Reader = os.Stdin
	if *fastqPath != "-" {
		f, err := os.Open(*fastqPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	if *gz {
		// fastq.NewGzipScanner handles decompression inside Import when
		// wrapped here.
		zr, err := gzipReader(in)
		if err != nil {
			return err
		}
		defer zr.Close()
		in = zr
	}

	var refs []agd.RefSeq
	if g, err := persona.LoadReference(store); err == nil {
		refs = persona.RefSeqs(g)
	}
	m, n, err := persona.ImportFASTQ(ctx, store, *name, in, refs, *chunk)
	if err != nil {
		return err
	}
	fmt.Printf("imported %d reads into %q (%d chunks)\n", n, m.Name, len(m.Chunks))
	return nil
}

func cmdAlign(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("align", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	name := fs.String("name", "", "dataset name")
	nodes := fs.Int("nodes", 0, "distributed worker nodes (0 = single-server pipeline)")
	threads := fs.Int("threads", 2, "executor threads (per node when distributed)")
	fs.Parse(args)
	store, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("missing -name")
	}
	g, err := loadReference(store)
	if err != nil {
		return err
	}
	idx, err := persona.BuildIndex(g)
	if err != nil {
		return err
	}
	if *nodes > 0 {
		report, _, err := persona.AlignDistributed(ctx, store, *name, idx, *nodes, *threads)
		if err != nil {
			return err
		}
		fmt.Printf("aligned %d reads (%d bases) on %d nodes in %s: %.2f Mbases/s, imbalance %.1f%%\n",
			report.TotalReads, report.TotalBases, *nodes, report.Elapsed,
			report.BasesPerSec/1e6, report.Imbalance*100)
		return nil
	}
	report, _, err := persona.Align(ctx, store, *name, idx, persona.AlignOptions{ExecutorThreads: *threads})
	if err != nil {
		return err
	}
	fmt.Printf("aligned %d reads (%d bases) in %s: %.2f Mbases/s\n",
		report.Reads, report.Bases, report.Elapsed, report.BasesPerSec/1e6)
	return nil
}

func cmdSort(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sort", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	name := fs.String("name", "", "dataset name")
	by := fs.String("by", "location", "sort key: location or metadata")
	out := fs.String("out", "", "output dataset name (default <name>.sorted)")
	fs.Parse(args)
	store, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("missing -name")
	}
	key, err := jobs.SortKey(*by)
	if err != nil {
		return err
	}
	m, err := persona.Sort(ctx, store, *name, key, *out)
	if err != nil {
		return err
	}
	fmt.Printf("sorted %d records into %q (by %s)\n", m.NumRecords(), m.Name, m.SortedBy)
	return nil
}

func cmdMarkdup(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("markdup", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	name := fs.String("name", "", "dataset name")
	fs.Parse(args)
	store, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("missing -name")
	}
	stats, err := persona.MarkDuplicates(ctx, store, *name)
	if err != nil {
		return err
	}
	fmt.Printf("marked %d duplicates among %d reads (%.2f%%)\n",
		stats.Duplicates, stats.Reads, 100*float64(stats.Duplicates)/float64(stats.Reads))
	return nil
}

func cmdExport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	var spec jobs.Spec
	fs.StringVar(&spec.Dataset, "name", "", "dataset name")
	fs.StringVar(&spec.Format, "format", "sam", "output format: sam, bam or fastq")
	outPath := fs.String("o", "-", "output file ('-' for stdout)")
	fs.Parse(args)
	report, err := runSpec(ctx, *storeDir, *outPath, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exported %d records as %s\n", report.Records, spec.Format)
	return nil
}

func cmdInfo(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	name := fs.String("name", "", "dataset name")
	fs.Parse(args)
	store, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("missing -name")
	}
	ds, err := persona.OpenDataset(store, *name)
	if err != nil {
		return err
	}
	m := ds.Manifest
	fmt.Printf("dataset:  %s\n", m.Name)
	fmt.Printf("records:  %d in %d chunks\n", m.NumRecords(), len(m.Chunks))
	fmt.Printf("columns:  %v\n", m.Columns)
	if m.SortedBy != "" {
		fmt.Printf("sorted:   by %s\n", m.SortedBy)
	}
	if len(m.RefSeqs) > 0 {
		fmt.Printf("refs:     ")
		for i, r := range m.RefSeqs {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%s(%d)", r.Name, r.Length)
		}
		fmt.Println()
	}
	return nil
}

func cmdImportSAM(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("import-sam", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	name := fs.String("name", "", "dataset name")
	samPath := fs.String("sam", "-", "SAM input file ('-' for stdin)")
	chunk := fs.Int("chunk", agd.DefaultChunkSize, "records per AGD chunk")
	fs.Parse(args)
	store, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("missing -name")
	}
	var in io.Reader = os.Stdin
	if *samPath != "-" {
		f, err := os.Open(*samPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	m, n, err := persona.ImportSAM(ctx, store, *name, in, *chunk)
	if err != nil {
		return err
	}
	fmt.Printf("imported %d aligned records into %q (%d chunks, columns %v)\n",
		n, m.Name, len(m.Chunks), m.Columns)
	return nil
}

func cmdFilter(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("filter", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	name := fs.String("name", "", "dataset name")
	out := fs.String("out", "", "output dataset name (default <name>.filtered)")
	var spec jobs.Spec
	fs.IntVar(&spec.MinMapQ, "minmapq", 0, "keep reads with at least this mapping quality")
	fs.BoolVar(&spec.MappedOnly, "mapped", false, "keep only mapped reads")
	fs.BoolVar(&spec.Dedup, "dedup", false, "drop duplicate-flagged reads (run markdup first)")
	fs.Parse(args)
	store, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("missing -name")
	}
	pred, err := spec.Predicate()
	if err != nil {
		return err
	}
	if pred == nil {
		return fmt.Errorf("no predicate: pass -minmapq, -mapped and/or -dedup")
	}
	m, stats, err := persona.Filter(ctx, store, *name, pred, *out)
	if err != nil {
		return err
	}
	fmt.Printf("kept %d/%d records into %q\n", stats.Kept, stats.In, m.Name)
	return nil
}

func cmdVarcall(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("varcall", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	name := fs.String("name", "", "dataset name")
	outPath := fs.String("o", "-", "VCF output file ('-' for stdout)")
	fs.Parse(args)
	store, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("missing -name")
	}
	ref, err := loadReference(store)
	if err != nil {
		return err
	}
	variants, err := persona.CallVariants(ctx, store, *name, ref)
	if err != nil {
		return err
	}
	var out io.Writer = os.Stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := persona.WriteVCF(out, ref, variants); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "called %d variants\n", len(variants))
	return nil
}

// specFlags registers on fs the flags `persona run` and `persona submit`
// share, each filling in a word of spec.
func specFlags(fs *flag.FlagSet, spec *jobs.Spec, alignUsage, formatUsage string) {
	fs.StringVar(&spec.Dataset, "name", "", "dataset name")
	fs.BoolVar(&spec.Align, "align", false, alignUsage)
	fs.StringVar(&spec.Sort, "sort", "", "sort stage: location or metadata")
	fs.BoolVar(&spec.MarkDup, "markdup", false, "mark duplicates")
	fs.IntVar(&spec.MinMapQ, "minmapq", 0, "filter: keep reads with at least this mapping quality")
	fs.BoolVar(&spec.Dedup, "dedup", false, "filter: drop duplicate-flagged reads")
	fs.StringVar(&spec.Format, "format", "sam", formatUsage)
}

// runSpec runs the pipeline a job of spec runs (jobs.Spec.Pipeline) on a
// session of its own over the store in storeDir, exporting into the file at
// outPath ('-' for stdout): `persona run` and `persona export`.
func runSpec(ctx context.Context, storeDir, outPath string, spec jobs.Spec) (*persona.PipelineReport, error) {
	store, err := openStore(storeDir)
	if err != nil {
		return nil, err
	}
	if spec.Dataset == "" {
		return nil, fmt.Errorf("missing -name")
	}
	sess := persona.NewSession(store, persona.SessionOptions{})
	defer sess.Close()
	var idx *persona.Index
	if spec.Align {
		ref, err := loadReference(store)
		if err != nil {
			return nil, err
		}
		if idx, err = sess.Index(ref); err != nil {
			return nil, err
		}
	}
	var out io.Writer = os.Stdout
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		out = f
	}
	p, err := spec.Pipeline(sess, idx, out, "")
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}

// cmdRun composes one fused Session/Pipeline graph over a dataset: optional
// align / sort / markdup / filter stages ending in an export — chunks
// stream stage-to-stage, with no intermediate dataset written to the store.
func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	var spec jobs.Spec
	specFlags(fs, &spec, "align the dataset (needs 'persona index' first)", "output format: sam, bam or fastq")
	outPath := fs.String("o", "-", "output file ('-' for stdout)")
	fs.IntVar(&spec.Nodes, "nodes", 0, "distributed worker nodes (0 = single-server pipeline)")
	fs.Parse(args)
	report, err := runSpec(ctx, *storeDir, *outPath, spec)
	if err != nil {
		return err
	}
	for _, st := range report.Stages {
		fmt.Fprintf(os.Stderr, "%-14s %8d records  %v\n", st.Stage, st.Records, st.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "%-14s %8d records  %v total\n", "pipeline", report.Records, report.Elapsed.Round(time.Millisecond))
	if c := report.Cluster; c != nil {
		fmt.Fprintf(os.Stderr, "cluster: %d nodes, %d partitions, shuffle %.1f MiB, skew %.2f, imbalance %.1f%%\n",
			len(c.Nodes), c.Partitions, float64(c.ShuffleBytes)/(1<<20), c.PartitionSkew, 100*c.Imbalance)
	}
	return nil
}

// serverClient builds a jobs.Client from the common -server/-tenant flags.
func serverClient(server, tenant string) (*jobs.Client, error) {
	if server == "" {
		return nil, fmt.Errorf("missing -server (e.g. http://127.0.0.1:7333)")
	}
	return &jobs.Client{Base: server, Tenant: tenant}, nil
}

// printJob renders one job line: ID, state, attempts, and either the error
// or the result size.
func printJob(st *jobs.JobStatus) {
	line := fmt.Sprintf("%-10s %-8s %-8s attempts=%d", st.ID, st.Tenant, st.State, st.Attempts)
	switch {
	case st.State == jobs.StateFailed:
		line += "  error: " + st.Error
	case st.State == jobs.StateDone && st.Result != nil:
		line += fmt.Sprintf("  %d records in %s", st.Result.Records, st.Result.Elapsed.Round(time.Millisecond))
	}
	fmt.Println(line)
}

// cmdSubmit posts a declarative pipeline job to a persona-server; with
// -wait it waits for the job to end, prints per-stage progress to stderr and
// writes the result to -o.
func cmdSubmit(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:7333", "persona-server base URL")
	tenant := fs.String("tenant", "", "tenant name (default assigned by server)")
	var spec jobs.Spec
	specFlags(fs, &spec, "align the dataset against the server's reference", "output format: sam, bam, fastq or dataset")
	wait := fs.Bool("wait", false, "wait until the job finishes and fetch the result")
	outPath := fs.String("o", "-", "result output file with -wait ('-' for stdout)")
	fs.Parse(args)
	if spec.Dataset == "" {
		return fmt.Errorf("missing -name")
	}
	c, err := serverClient(*server, *tenant)
	if err != nil {
		return err
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "submitted %s\n", st.ID)
	if !*wait {
		fmt.Println(st.ID)
		return nil
	}
	fin, err := c.Wait(ctx, st.ID, 200*time.Millisecond)
	if err != nil {
		return err
	}
	if fin.State != jobs.StateDone {
		return fmt.Errorf("job %s %s: %s", fin.ID, fin.State, fin.Error)
	}
	for _, sp := range fin.Progress {
		fmt.Fprintf(os.Stderr, "%-14s %8d records\n", sp.Stage, sp.Records)
	}
	data, _, err := c.Result(ctx, fin.ID)
	if err != nil {
		return err
	}
	out := io.Writer(os.Stdout)
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if _, err := out.Write(data); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "job %s done: %d bytes\n", fin.ID, len(data))
	return nil
}

// cmdStatus shows one job (with live per-stage progress) or, without -id,
// every job the server knows about for the tenant.
func cmdStatus(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:7333", "persona-server base URL")
	tenant := fs.String("tenant", "", "tenant name filter")
	id := fs.String("id", "", "job ID (empty: list jobs)")
	fs.Parse(args)
	c, err := serverClient(*server, *tenant)
	if err != nil {
		return err
	}
	if *id == "" {
		sts, err := c.Jobs(ctx, *tenant)
		if err != nil {
			return err
		}
		for _, st := range sts {
			printJob(st)
		}
		return nil
	}
	st, err := c.Status(ctx, *id)
	if err != nil {
		return err
	}
	printJob(st)
	for _, sp := range st.Progress {
		state := "running"
		if sp.Done {
			state = "done"
		}
		fmt.Printf("  %-14s %8d records  %s\n", sp.Stage, sp.Records, state)
	}
	return nil
}

// cmdFetch downloads a finished job's result bytes.
func cmdFetch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:7333", "persona-server base URL")
	tenant := fs.String("tenant", "", "tenant name")
	id := fs.String("id", "", "job ID")
	outPath := fs.String("o", "-", "output file ('-' for stdout)")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("missing -id")
	}
	c, err := serverClient(*server, *tenant)
	if err != nil {
		return err
	}
	data, ct, err := c.Result(ctx, *id)
	if err != nil {
		return err
	}
	out := io.Writer(os.Stdout)
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if _, err := out.Write(data); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fetched %s: %d bytes (%s)\n", *id, len(data), ct)
	return nil
}
