package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"

	"persona"
	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/genome"
	"persona/internal/testutil"
)

// dataset is the name every fixture's input dataset is stored under.
const dataset = "ds"

// sizes states a workload's input size; it is printed with the results.
type sizes struct {
	GenomeBP int     `json:"genome_bp"`
	Reads    int     `json:"reads"`
	Chunk    int     `json:"chunk"`
	DupFrac  float64 `json:"dup_frac"`
}

// fixture is a synthetic genome, its seed index and a read dataset in an
// in-memory store that timed reps clone from.
type fixture struct {
	sizes  sizes
	genome *genome.Genome
	index  *snap.Index
	store  *agd.MemStore
}

// buildFixture synthesizes everything from the seed: 101 bp reads at 0.3 %
// error (testutil.BuildE), aligned up front when the workload reads
// pre-aligned data.
func buildFixture(seed int64, sz sizes, aligned bool) (*fixture, error) {
	store := agd.NewMemStore()
	f, err := testutil.BuildE(store, dataset, testutil.Config{
		GenomeSize: sz.GenomeBP, NumReads: sz.Reads, ChunkSize: sz.Chunk,
		DupFrac: sz.DupFrac, Seed: seed, SkipAlign: !aligned,
	})
	if err != nil {
		return nil, fmt.Errorf("build fixture: %w", err)
	}
	return &fixture{sizes: sz, genome: f.Genome, index: f.Index, store: store}, nil
}

// copyBlobs copies every blob of src into dst.
func copyBlobs(dst agd.BlobStore, src *agd.MemStore) error {
	names, err := src.List("")
	if err != nil {
		return err
	}
	for _, name := range names {
		blob, err := src.Get(name)
		if err != nil {
			return err
		}
		if err := dst.Put(name, blob); err != nil {
			return err
		}
	}
	return nil
}

// cloneMem returns a fresh in-memory copy of src, so a rep never sees what
// an earlier rep wrote.
func cloneMem(src *agd.MemStore) (*agd.MemStore, error) {
	dst := agd.NewMemStore()
	if err := copyBlobs(dst, src); err != nil {
		return nil, fmt.Errorf("clone store: %w", err)
	}
	return dst, nil
}

// env is what a run owns outside the program: a private temp root, removed
// when the command exits.
type env struct {
	tmp string
}

// tempDir makes a fresh directory under the run's temp root.
func (e *env) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(e.tmp, pattern+"-*")
}

// dirClone populates a fresh directory with src's blobs (without an fsync
// per blob: the copy is not what is measured) and returns it as a durable
// DirStore.
func (e *env) dirClone(src *agd.MemStore, pattern string) (*agd.DirStore, string, error) {
	dir, err := e.tempDir(pattern)
	if err != nil {
		return nil, "", err
	}
	fill, err := agd.NewDirStoreNoSync(dir)
	if err == nil {
		err = copyBlobs(fill, src)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", fmt.Errorf("populate %s: %w", dir, err)
	}
	// Flush the copy now: dirty pages left behind would be written back
	// during the timed section, and its first fsyncs would wait for them.
	syscall.Sync()
	store, err := agd.NewDirStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return store, dir, nil
}

// workers is the session executor's width, which the executor utilisation
// metric is relative to.
func workers() int { return runtime.GOMAXPROCS(0) }

// golden is an expected output: its hash, length and record count, computed
// in set-up by a path independent of the one being timed.
type golden struct {
	sum     [sha256.Size]byte
	size    int
	records uint64
}

func goldenOf(data []byte, records uint64) golden {
	return golden{sum: sha256.Sum256(data), size: len(data), records: records}
}

// check compares an output with the golden; it runs after the timer stops.
func (g golden) check(what string, data []byte, records uint64) error {
	if records != g.records {
		return fmt.Errorf("%s: %d records, golden has %d", what, records, g.records)
	}
	if len(data) != g.size || sha256.Sum256(data) != g.sum {
		return fmt.Errorf("%s: output differs from golden (%d bytes, golden %d)", what, len(data), g.size)
	}
	return nil
}

// step runs one call of a staged sequence; the traced pass substitutes a
// version that records a span of the named layer around it.
type step func(layer, op string, call func() error) error

func plainStep(_, _ string, call func() error) error { return call() }

// stagedBAM is the one-shot free-function sequence align → sort → markdup →
// export BAM: every intermediate dataset is written to the store and read
// back. It is both the wgs_staged_dir workload and, on a plain MemStore, the
// independent path that produces the wgs goldens.
func stagedBAM(ctx context.Context, store persona.Store, idx *snap.Index, dst io.Writer, do step) (n uint64, dups persona.DupStats, err error) {
	err = do("core", "align", func() error {
		_, _, err := persona.Align(ctx, store, dataset, idx, persona.AlignOptions{})
		return err
	})
	if err == nil {
		err = do("agdsort", "sort", func() error {
			_, err := persona.Sort(ctx, store, dataset, persona.ByLocation, "ds.sorted")
			return err
		})
	}
	if err == nil {
		err = do("markdup", "mark", func() error {
			var err error
			dups, err = persona.MarkDuplicates(ctx, store, "ds.sorted")
			return err
		})
	}
	if err == nil {
		err = do("bam", "export", func() error {
			var err error
			n, err = persona.ExportBAM(ctx, store, "ds.sorted", dst)
			return err
		})
	}
	return n, dups, err
}
