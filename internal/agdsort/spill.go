package agdsort

import "sync"

// Spill accounting for the external sort's superchunk runs, which
// writeSuperchunk always stores raw.

// SpillStats accumulates per-run spill accounting. Safe for concurrent use —
// phase-1 spill workers run on background goroutines.
type SpillStats struct {
	mu          sync.Mutex
	runs        int
	storedBytes int64
}

// record logs one spilled run of stored bytes.
func (s *SpillStats) record(stored int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.runs++
	s.storedBytes += stored
	s.mu.Unlock()
}

// Report snapshots the accumulated accounting.
func (s *SpillStats) Report() SpillReport {
	if s == nil {
		return SpillReport{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpillReport{Runs: s.runs, StoredBytes: s.storedBytes}
}

// SpillReport is the per-sort spill summary surfaced in PipelineReport.
type SpillReport struct {
	// Runs is how many superchunk runs were spilled; StoredBytes what went
	// to the store (encoded blobs).
	Runs        int   `json:"runs"`
	StoredBytes int64 `json:"stored_bytes"`
}
