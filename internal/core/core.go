// Package core is Persona's alignment engine (§4.3 of the paper): one stream
// stage, AlignStream, that appends a results column to every row group by
// splitting its reads into subchunks on the shared fine-grain executor
// (Fig. 4), each subchunk aligned by one of a pool of SNAP aligners, read by
// read or pair by pair. Align is that stage between a dataset source and a
// column sink — the §4.1 "thin library that stitches nodes into subgraphs" is
// three calls long; composed pipelines and cluster workers put the same stage
// between other sources and sinks.
package core

import (
	"context"
	"fmt"
	"time"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/dataflow"
	"persona/internal/storage"
)

// AlignConfig parameterizes alignment: the whole struct for Align, the
// aligner and tuning fields for AlignStream.
type AlignConfig struct {
	// Store holds the dataset; results are written back to it (Align only).
	Store storage.Store
	// Dataset names the AGD dataset to align (Align only).
	Dataset string
	// Index is the SNAP seed index of the reference (required).
	Index *snap.Index
	// Aligner tunes the SNAP algorithm.
	Aligner snap.Config
	// Paired aligns consecutive records as pairs (records 2i and 2i+1 of
	// each group; a group with an odd record count is an error).
	Paired bool

	// ExecutorThreads (Align only; AlignStream is handed its executor) is
	// the size of the fine-grain executor that owns all compute threads
	// (Fig. 4). Default 2.
	ExecutorThreads int
	// Subchunks is the fine-grain split of each chunk. Default 8.
	Subchunks int
	// Pipelining (AlignStream only) is how many output groups may be in
	// flight at once. ≤ 1 keeps the serial pull contract (the results chunk
	// aliases one reused builder, valid until the next group); > 1 draws
	// results builders from a bounded pool of that size, so a pumped edge
	// can queue groups that stay valid until Release.
	Pipelining int
}

func (c *AlignConfig) applyDefaults() {
	if c.ExecutorThreads <= 0 {
		c.ExecutorThreads = 2
	}
	if c.Subchunks <= 0 {
		c.Subchunks = 8
	}
}

// AlignReport summarizes an alignment run.
type AlignReport struct {
	Chunks      int
	Reads       int64
	Bases       int64
	Elapsed     time.Duration
	BasesPerSec float64
	// Stats aggregates the aligners' work counters (perfmodel input).
	Stats snap.Stats
}

// Align aligns a dataset in place and registers the results column: the
// dataset's bases and qualities stream in through a source that reads ahead
// (§5.2), AlignStream appends results on a private executor, and a column
// sink encodes and stores each results chunk while the next is being
// aligned. It is the single-server counterpart of cluster.Align.
func Align(ctx context.Context, cfg AlignConfig) (*AlignReport, *agd.Manifest, error) {
	cfg.applyDefaults()
	ds, err := agd.Open(cfg.Store, cfg.Dataset)
	if err != nil {
		return nil, nil, err
	}
	m := ds.Manifest
	if m.HasColumn(agd.ColResults) {
		return nil, nil, fmt.Errorf("core: dataset %q already has results", cfg.Dataset)
	}
	exec := dataflow.NewExecutor(cfg.ExecutorThreads, cfg.ExecutorThreads*2)
	defer exec.Close()
	// Chunk (de)compression members run on the same executor as alignment,
	// so both draw from one set of compute threads (Fig. 4).
	codec := agd.Codec{Exec: exec}
	// One results builder set per group the sink can hold, plus the one
	// being aligned; the source's pooled chunks (two columns a group) are
	// held exactly as long, so the pool is sized to match and exhaustion —
	// back-pressure on the source — never happens before the sink is full.
	cfg.Pipelining = agd.ColumnWindow + 1
	start := time.Now()
	in, err := ds.Groups(agd.StreamOptions{
		Columns:     []string{agd.ColBases, agd.ColQual},
		ShardedPool: agd.NewChunkPool(2 * cfg.Pipelining),
		Codec:       codec,
	})
	if err != nil {
		return nil, nil, err
	}
	out, report, err := AlignStream(cfg, exec, in)
	if err != nil {
		in.Close()
		return nil, nil, err
	}
	if err := agd.WriteColumn(ctx, out, cfg.Store, m, agd.ColResults, codec, nil); err != nil {
		return nil, nil, err
	}
	// The stage stopped its clock at the last group aligned; the run ends
	// when the last results blob is stored.
	report.Elapsed = time.Since(start)
	report.BasesPerSec = float64(report.Bases) / report.Elapsed.Seconds()
	updated, err := agd.RegisterColumn(cfg.Store, m, agd.ColResults)
	if err != nil {
		return nil, nil, err
	}
	return report, updated, nil
}

// uvarint decodes the leading uvarint of a compacted bases record.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
		if s >= 64 {
			return 0, -1
		}
	}
	return 0, 0
}

// unmappedResult is the record appended for reads that fail to decode.
var unmappedResult = agd.Result{
	Location:     agd.UnmappedLocation,
	MateLocation: agd.UnmappedLocation,
	Flags:        agd.FlagUnmapped,
}

// alignRange aligns records [lo, hi) of a chunk, appending each encoded
// result in record order to ra: read by read, or in paired mode pair by pair
// (records 2i and 2i+1; lo and hi are even). All decode and encode scratch is
// reused, so the steady-state loop performs no per-read allocation.
func alignRange(a *snap.Aligner, basesChunk *agd.Chunk, ra *agd.RecordArena, lo, hi int, paired bool) {
	if !paired {
		var scratch []byte
		for r := lo; r < hi; r++ {
			bases, err := basesChunk.ExpandBasesRecord(scratch[:0], r)
			if err != nil {
				ra.AppendResult(&unmappedResult)
				continue
			}
			res := a.AlignRead(bases)
			ra.AppendResult(&res)
			scratch = bases
		}
		return
	}
	var s1, s2 []byte
	for r := lo; r < hi; r += 2 {
		b1, err1 := basesChunk.ExpandBasesRecord(s1[:0], r)
		b2, err2 := basesChunk.ExpandBasesRecord(s2[:0], r+1)
		s1, s2 = b1, b2
		if err1 != nil || err2 != nil {
			ra.AppendResult(&unmappedResult)
			ra.AppendResult(&unmappedResult)
			continue
		}
		r1, r2 := a.AlignPair(b1, b2)
		ra.AppendResult(&r1)
		ra.AppendResult(&r2)
	}
}
