// Package core is Persona's alignment engine (§4.3 of the paper): one stream
// stage, AlignStream, that appends a results column to every row group by
// splitting its reads into subchunks on the shared fine-grain executor
// (Fig. 4), each subchunk aligned by one of a pool of SNAP aligners, read by
// read or pair by pair. The stage has no driver of its own: a persona
// pipeline puts it between a source and a sink (the one-shot persona.Align
// between a dataset source and a sink writing the results column back into
// the dataset), and each cluster worker between its chunk leases and that
// same column sink.
package core

import (
	"fmt"
	"time"

	"persona/internal/agd"
	"persona/internal/align/snap"
)

// AlignConfig parameterizes AlignStream.
type AlignConfig struct {
	// Index is the SNAP seed index of the reference (required).
	Index *snap.Index
	// Aligner tunes the SNAP algorithm.
	Aligner snap.Config
	// Paired aligns consecutive records as pairs (records 2i and 2i+1 of
	// each group; a group with an odd record count is an error).
	Paired bool

	// Subchunks is the fine-grain split of each chunk. Default 8.
	Subchunks int
	// Pipelining is how many output groups may be in flight at once: the
	// size of the results builders' pool (minimum 1). A group stays valid
	// until its Release.
	Pipelining int
}

func (c *AlignConfig) applyDefaults() {
	if c.Subchunks <= 0 {
		c.Subchunks = 8
	}
}

// AlignReport summarizes an alignment run: the chunks, reads and bases the
// stage aligned and the aligners' work. Elapsed runs from the stage's start
// to its last group; where the run ends in a sink storing the results (the
// one-shot persona.Align), the sink extends it to the last results blob
// stored. BasesPerSec is Bases over Elapsed.
type AlignReport struct {
	Chunks      int
	Reads       int64
	Bases       int64
	Elapsed     time.Duration
	BasesPerSec float64
	// Stats aggregates the aligners' work counters (perfmodel input).
	Stats snap.Stats
}

// alignRange aligns records [lo, hi) of a chunk of packed bases records,
// appending each encoded result in record order to ra: read by read, or in
// paired mode pair by pair (records 2i and 2i+1; lo and hi are even). It
// returns the number of bases aligned, or an error naming the first record
// that does not decode. All scratch is reused, so the steady-state loop
// performs no per-read allocation.
func alignRange(a *snap.Aligner, basesChunk *agd.Chunk, ra *agd.RecordArena, lo, hi int, paired bool) (bases int64, err error) {
	// Record fails only out of range, and a nil record does not decode.
	if !paired {
		for r := lo; r < hi; r++ {
			rec, _ := basesChunk.Record(r)
			res, err := a.AlignPacked(rec)
			if err != nil {
				return bases, fmt.Errorf("bases record %d: %w", r, err)
			}
			ra.AppendResult(&res)
			bases += baseCount(rec)
		}
		return bases, nil
	}
	for r := lo; r < hi; r += 2 {
		rec1, _ := basesChunk.Record(r)
		rec2, _ := basesChunk.Record(r + 1)
		r1, r2, err := a.AlignPackedPair(rec1, rec2)
		if err != nil {
			return bases, fmt.Errorf("bases records %d and %d: %w", r, r+1, err)
		}
		ra.AppendResult(&r1)
		ra.AppendResult(&r2)
		bases += baseCount(rec1) + baseCount(rec2)
	}
	return bases, nil
}

// baseCount returns the base count of a packed record that has decoded.
func baseCount(rec []byte) int64 {
	n, _ := agd.PackedBaseCount(rec)
	return int64(n)
}
