package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"persona"
	"persona/internal/formats/fastq"
	"persona/internal/jobs"
	"persona/internal/reads"
)

// TestStagedMatchesRun drives the CLI over pairs of stores, each prepared
// by index and import from the same input, and compares the SAM the two
// write. In the first pair one store runs the staged subcommands — align,
// sort, markdup, export — each a one-shot that stores its dataset, and the
// other runs the same graph as one `run` pipeline. In the second, `run`
// aligns and exports without a sort, on one node and on two. The two SAM
// files of a pair must be byte-equal.
func TestStagedMatchesRun(t *testing.T) {
	dir := t.TempDir()
	const genomeSize, seed = "80000", "7"
	fqPath := filepath.Join(dir, "reads.fastq")
	writeReads(t, fqPath, 80_000, 7, reads.SimConfig{Seed: 3, N: 600, ReadLen: 101, ErrorRate: 0.004, DuplicateFraction: 0.1})
	// steps runs one side of a pair on a prepared store, writing its SAM.
	type steps func(run runFunc, store, sam string)
	stores := 0
	output := func(t *testing.T, side steps) []byte {
		run := runner(t)
		stores++
		store, sam := filepath.Join(dir, fmt.Sprint(stores)), filepath.Join(dir, fmt.Sprintf("%d.sam", stores))
		run(cmdIndex, "-store", store, "-genome-size", genomeSize, "-seed", seed)
		run(cmdImport, "-store", store, "-name", "ds", "-fastq", fqPath, "-chunk", "100")
		side(run, store, sam)
		out, err := os.ReadFile(sam)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	pairs := []struct {
		name      string
		want, got steps
	}{
		{"staged", func(run runFunc, store, sam string) {
			run(cmdAlign, "-store", store, "-name", "ds")
			run(cmdSort, "-store", store, "-name", "ds", "-by", "location", "-out", "sorted")
			run(cmdMarkdup, "-store", store, "-name", "sorted")
			run(cmdExport, "-store", store, "-name", "sorted", "-format", "sam", "-o", sam)
		}, func(run runFunc, store, sam string) {
			run(cmdRun, "-store", store, "-name", "ds", "-align", "-sort", "location", "-markdup", "-format", "sam", "-o", sam)
		}},
		{"nodes-without-sort", func(run runFunc, store, sam string) {
			run(cmdRun, "-store", store, "-name", "ds", "-align", "-format", "sam", "-o", sam)
		}, func(run runFunc, store, sam string) {
			run(cmdRun, "-store", store, "-name", "ds", "-align", "-nodes", "2", "-format", "sam", "-o", sam)
		}},
	}
	for _, pair := range pairs {
		t.Run(pair.name, func(t *testing.T) {
			want, got := output(t, pair.want), output(t, pair.got)
			if len(want) == 0 || !bytes.Equal(got, want) {
				t.Fatalf("%d bytes of SAM, against %d, and they differ", len(got), len(want))
			}
		})
	}
}

// writeReads writes the reads cfg simulates from the synthetic genome of
// genomeSize bases and seed seed as a FASTQ file at path.
func writeReads(t *testing.T, path string, genomeSize int, seed int64, cfg reads.SimConfig) {
	t.Helper()
	g, err := persona.SynthesizeGenome(genomeSize, seed)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := reads.NewSimulator(g, cfg)
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
	if err := os.WriteFile(path, fq.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runFunc runs one subcommand with its arguments.
type runFunc = func(cmd func(context.Context, []string) error, args ...string)

// runner returns a runFunc that fails the test if the subcommand fails.
func runner(t *testing.T) runFunc {
	return func(cmd func(context.Context, []string) error, args ...string) {
		t.Helper()
		if err := cmd(context.Background(), args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

// alignedStore builds a directory store at dir with a synthetic reference
// and dataset "ds" of simulated reads, imported and aligned by the
// subcommands.
func alignedStore(t *testing.T, dir string) {
	t.Helper()
	fqPath := filepath.Join(t.TempDir(), "reads.fastq")
	writeReads(t, fqPath, 40_000, 11, reads.SimConfig{Seed: 12, N: 3000, ReadLen: 101, ErrorRate: 0.02})
	run := runner(t)
	run(cmdIndex, "-store", dir, "-genome-size", "40000", "-seed", "11")
	run(cmdImport, "-store", dir, "-name", "ds", "-fastq", fqPath, "-chunk", "500")
	run(cmdAlign, "-store", dir, "-name", "ds")
}

// TestImportSAMCommandRoundTrip: SAM text that `import-sam` stores comes
// back out of `export -format sam` byte for byte.
func TestImportSAMCommandRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	alignedStore(t, store)
	run := runner(t)
	samPath, backPath := filepath.Join(dir, "ds.sam"), filepath.Join(dir, "back.sam")
	run(cmdExport, "-store", store, "-name", "ds", "-format", "sam", "-o", samPath)
	run(cmdImportSAM, "-store", store, "-name", "back", "-sam", samPath, "-chunk", "700")
	run(cmdExport, "-store", store, "-name", "back", "-format", "sam", "-o", backPath)
	want, err := os.ReadFile(samPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(backPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("import-sam then export wrote %d bytes of SAM from %d, and they differ", len(got), len(want))
	}
}

// TestVarcallWritesVCF: `varcall -o` writes the VCF that WriteVCF renders
// for CallVariants on the same dataset and reference.
func TestVarcallWritesVCF(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	alignedStore(t, storeDir)
	vcfPath := filepath.Join(dir, "ds.vcf")
	runner(t)(cmdVarcall, "-store", storeDir, "-name", "ds", "-o", vcfPath)
	got, err := os.ReadFile(vcfPath)
	if err != nil {
		t.Fatal(err)
	}

	store, err := persona.NewLocalStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := persona.SynthesizeGenome(40_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	variants, err := persona.CallVariants(context.Background(), store, "ds", ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) == 0 {
		t.Fatal("the fixture calls no variant")
	}
	var want bytes.Buffer
	if err := persona.WriteVCF(&want, ref, variants); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("varcall wrote %d bytes of VCF, CallVariants and WriteVCF %d, and they differ", len(got), want.Len())
	}
}

// TestFilterCommand: `filter -mapped -minmapq 20` stores the dataset
// persona.Filter writes with the same predicate on the same store, blob for
// blob, and without a predicate flag the command refuses to run.
func TestFilterCommand(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "store")
	alignedStore(t, dir)
	runner(t)(cmdFilter, "-store", dir, "-name", "ds", "-mapped", "-minmapq", "20", "-out", "kept")

	store, err := persona.NewLocalStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	blobs := func() map[string][]byte {
		names, err := store.List("kept/")
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, name := range names {
			if out[name], err = store.Get(name); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	got := blobs()
	for name := range got {
		if err := store.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
	pred := persona.FilterAnd(persona.FilterMinMapQ(20), persona.FilterMappedOnly())
	_, stats, err := persona.Filter(ctx, store, "ds", pred, "kept")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept == 0 || stats.Kept == stats.In {
		t.Fatalf("the predicate kept %d of %d reads", stats.Kept, stats.In)
	}
	want := blobs()
	if len(got) != len(want) {
		t.Fatalf("filter stored %d blobs, persona.Filter %d", len(got), len(want))
	}
	for name, blob := range want {
		if !bytes.Equal(got[name], blob) {
			t.Fatalf("blob %q differs from persona.Filter's", name)
		}
	}

	err = cmdFilter(ctx, []string{"-store", dir, "-name", "ds", "-out", "none"})
	if err == nil || !strings.Contains(err.Error(), "no predicate") {
		t.Fatalf("filter without a predicate: err = %v", err)
	}
	// A mapping quality past 255 is refused, not wrapped into a uint8.
	err = cmdFilter(ctx, []string{"-store", dir, "-name", "ds", "-minmapq", "300", "-out", "wrapped"})
	if err == nil || !strings.Contains(err.Error(), "min_mapq 300") {
		t.Fatalf("filter -minmapq 300: err = %v", err)
	}
}

// TestSubmitStatusFetch drives the three job-server subcommands against a
// job server on a RetryStore over an aligned directory store: `submit -wait`
// runs a SAM export job to completion, `status -id` reports it done, and
// `fetch` downloads the result. Both the waited result and the fetched one
// equal the SAM that the one-shot `export` writes.
func TestSubmitStatusFetch(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	alignedStore(t, storeDir)
	run := runner(t)
	stagedPath := filepath.Join(dir, "staged.sam")
	run(cmdExport, "-store", storeDir, "-name", "ds", "-format", "sam", "-o", stagedPath)

	local, err := persona.NewLocalStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	store := persona.NewRetryStore(local, persona.RetryPolicy{})
	sess := persona.NewSession(store, persona.SessionOptions{})
	defer sess.Close()
	mgr, err := jobs.NewManager(jobs.Config{Store: store, Session: sess, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	defer mgr.Drain(context.Background())
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()

	waitedPath, fetchedPath := filepath.Join(dir, "waited.sam"), filepath.Join(dir, "fetched.sam")
	run(cmdSubmit, "-server", srv.URL, "-name", "ds", "-format", "sam", "-wait", "-o", waitedPath)
	sts, err := (&jobs.Client{Base: srv.URL}).Jobs(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 1 {
		t.Fatalf("server lists %d jobs, want the one submitted", len(sts))
	}
	id := sts[0].ID
	status := captureStdout(t, func() { run(cmdStatus, "-server", srv.URL, "-id", id) })
	if !strings.HasPrefix(status, id) || !strings.Contains(status, string(jobs.StateDone)) {
		t.Fatalf("status -id %s printed %q, want the job done", id, status)
	}
	run(cmdFetch, "-server", srv.URL, "-id", id, "-o", fetchedPath)

	want, err := os.ReadFile(stagedPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{waitedPath, fetchedPath} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes, the staged export wrote %d, and they differ", filepath.Base(path), len(got), len(want))
		}
	}
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = saved }()
	f()
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
