// Package baseline reimplements the row-oriented tools the paper compares
// against (§5): a standalone SNAP-style aligner pipeline (gzipped FASTQ in,
// SAM text out), samtools-style BAM sorting (with and without the SAM→BAM
// conversion the paper bills separately in Table 2), a Picard-style
// single-threaded sort, and a Samblaster-style streaming duplicate marker.
//
// These exist so the evaluation harness can measure Persona against the
// same algorithmic structure the original tools have: whole-row parsing,
// monolithic row-oriented files, and (for Picard) single-threaded
// per-record object churn.
package baseline

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/formats/fastq"
	"persona/internal/formats/sam"
	"persona/internal/reads"
)

// CountingReader counts bytes read through it (I/O accounting for Table 1).
type CountingReader struct {
	R io.Reader
	N int64
}

func (c *CountingReader) Read(p []byte) (int, error) {
	n, err := c.R.Read(p)
	c.N += int64(n)
	return n, err
}

// CountingWriter counts bytes written through it.
type CountingWriter struct {
	W io.Writer
	N int64
}

func (c *CountingWriter) Write(p []byte) (int, error) {
	n, err := c.W.Write(p)
	c.N += int64(n)
	return n, err
}

// StandaloneConfig configures the standalone aligner run.
type StandaloneConfig struct {
	// Threads is the number of aligner workers (default 1).
	Threads int
	// Gzipped indicates the FASTQ input is gzip-compressed.
	Gzipped bool
	// BatchSize is reads per work item (default 1024).
	BatchSize int
	// AlignerConfig tunes the embedded SNAP algorithm.
	AlignerConfig snap.Config
}

// StandaloneStats reports a standalone run.
type StandaloneStats struct {
	Reads   int64
	Aligned int64
}

// RunStandaloneAligner is the "SNAP standalone" baseline of Table 1 and
// Fig. 5/6: a self-contained row-oriented pipeline that parses FASTQ,
// aligns, and writes SAM text, with an ad-hoc thread pool instead of
// Persona's dataflow.
func RunStandaloneAligner(idx *snap.Index, refs []agd.RefSeq, in io.Reader, out io.Writer, cfg StandaloneConfig) (StandaloneStats, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1024
	}
	var sc *fastq.Scanner
	if cfg.Gzipped {
		var err error
		sc, err = fastq.NewGzipScanner(in)
		if err != nil {
			return StandaloneStats{}, err
		}
	} else {
		sc = fastq.NewScanner(in)
	}

	refmap := sam.NewRefMap(refs)
	w, err := sam.NewWriter(out, refs, "unsorted")
	if err != nil {
		return StandaloneStats{}, err
	}

	type batch []reads.Read
	work := make(chan batch, cfg.Threads)
	var stats StandaloneStats
	var mu sync.Mutex // serializes SAM output
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once

	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := snap.NewAligner(idx, cfg.AlignerConfig)
			for b := range work {
				recs := make([]sam.Record, 0, len(b))
				var aligned int64
				for i := range b {
					res := a.AlignRead(b[i].Bases)
					if !res.IsUnmapped() {
						aligned++
					}
					rec, err := sam.FromResult(b[i].Meta, string(b[i].Bases), string(b[i].Quals), &res, refmap)
					if err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
					recs = append(recs, rec)
				}
				mu.Lock()
				for i := range recs {
					if err := w.Write(&recs[i]); err != nil {
						errOnce.Do(func() { firstErr = err })
						mu.Unlock()
						return
					}
				}
				stats.Reads += int64(len(recs))
				stats.Aligned += aligned
				mu.Unlock()
			}
		}()
	}

	cur := make(batch, 0, cfg.BatchSize)
	for sc.Scan() {
		cur = append(cur, sc.Read())
		if len(cur) == cfg.BatchSize {
			work <- cur
			cur = make(batch, 0, cfg.BatchSize)
		}
	}
	if len(cur) > 0 {
		work <- cur
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return stats, firstErr
	}
	if err := sc.Err(); err != nil {
		return stats, err
	}
	return stats, w.Flush()
}

// sortKeyed pairs a record with its coordinate key for sorting.
type sortKeyed struct {
	refIdx int
	pos    int64
	rec    sam.Record
}

func coordinateSort(recs []sortKeyed) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].refIdx != recs[j].refIdx {
			return recs[i].refIdx < recs[j].refIdx
		}
		return recs[i].pos < recs[j].pos
	})
}

func refIndex(refs []agd.RefSeq) map[string]int {
	m := make(map[string]int, len(refs))
	for i, r := range refs {
		m[r.Name] = i
	}
	return m
}

func keyOf(rec *sam.Record, refIdx map[string]int) sortKeyed {
	k := sortKeyed{refIdx: len(refIdx) + 1, pos: 1 << 62, rec: *rec} // unmapped last
	if rec.Ref != "*" && rec.Ref != "" {
		if i, ok := refIdx[rec.Ref]; ok {
			k.refIdx, k.pos = i, rec.Pos
		}
	}
	return k
}

// errRecordf keeps error formatting consistent across the baselines.
func errRecordf(tool string, err error) error {
	return fmt.Errorf("baseline/%s: %w", tool, err)
}
