package agdsort

// Spill accounting for the external sort's superchunk runs, which
// writeSuperchunk always stores raw.

// SpillStats accumulates per-run spill accounting. SortStream records every
// run on its calling goroutine before it returns.
type SpillStats struct {
	runs        int
	storedBytes int64
}

// record logs one spilled run of stored bytes.
func (s *SpillStats) record(stored int64) {
	if s == nil {
		return
	}
	s.runs++
	s.storedBytes += stored
}

// Report snapshots the accumulated accounting.
func (s *SpillStats) Report() SpillReport {
	if s == nil {
		return SpillReport{}
	}
	return SpillReport{Runs: s.runs, StoredBytes: s.storedBytes}
}

// SpillReport is the per-sort spill summary surfaced in PipelineReport.
type SpillReport struct {
	// Runs is how many superchunk runs were spilled; StoredBytes what went
	// to the store (encoded blobs).
	Runs        int   `json:"runs"`
	StoredBytes int64 `json:"stored_bytes"`
}
