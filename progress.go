package persona

import (
	"sync/atomic"
)

// Progress is a live, concurrently readable view of a running pipeline:
// per-stage records and row groups delivered so far, updated as chunks flow.
// A long-lived service (cmd/persona-server) attaches one to each job's
// pipeline via Pipeline.Observe so status polls can report per-stage
// progress mid-run; the final authoritative numbers remain the
// PipelineReport returned by Run.
//
// A Progress may be observed by at most one Run at a time. Snapshot is safe
// to call from any goroutine while the run is in flight.
type Progress struct {
	slots atomic.Pointer[[]*progressSlot]
}

// progressSlot is one stage's live counters. Counters are atomics: the
// stage's pump writes them while any number of status polls read.
type progressSlot struct {
	stage   string
	records atomic.Uint64
	groups  atomic.Int64
	done    atomic.Bool
}

// StageProgress is one stage's live counters at snapshot time.
type StageProgress struct {
	// Stage names the stage ("read", "align", "sort-location", ...).
	Stage string `json:"stage"`
	// Records and Groups count what the stage has delivered downstream so
	// far (for the sink: consumed).
	Records uint64 `json:"records"`
	Groups  int64  `json:"groups"`
	// Done reports that the stage's stream reached EOF.
	Done bool `json:"done"`
}

// NewProgress returns an empty progress view; attach it with
// Pipeline.Observe. Before the observed Run starts, Snapshot returns nil.
func NewProgress() *Progress { return &Progress{} }

// init installs one slot per stage name at Run entry. It, slot and finish
// do nothing on a nil Progress: a run nobody observes.
func (pr *Progress) init(names []string) {
	if pr == nil {
		return
	}
	slots := make([]*progressSlot, len(names))
	for i, n := range names {
		slots[i] = &progressSlot{stage: n}
	}
	pr.slots.Store(&slots)
}

// slot returns stage i's live counters (nil when not initialized).
func (pr *Progress) slot(i int) *progressSlot {
	if pr == nil {
		return nil
	}
	p := pr.slots.Load()
	if p == nil || i >= len(*p) {
		return nil
	}
	return (*p)[i]
}

// finish marks every stage done and pins the sink's final counts (the sink
// has no instrumented output edge of its own).
func (pr *Progress) finish(sinkRecords uint64, sinkGroups int64) {
	if pr == nil {
		return
	}
	p := pr.slots.Load()
	if p == nil {
		return
	}
	slots := *p
	for _, s := range slots {
		s.done.Store(true)
	}
	if n := len(slots); n > 0 {
		slots[n-1].records.Store(sinkRecords)
		slots[n-1].groups.Store(sinkGroups)
	}
}

// Snapshot returns the current per-stage counters in graph order, nil before
// the observed run initializes them.
func (pr *Progress) Snapshot() []StageProgress {
	p := pr.slots.Load()
	if p == nil {
		return nil
	}
	out := make([]StageProgress, len(*p))
	for i, s := range *p {
		out[i] = StageProgress{
			Stage:   s.stage,
			Records: s.records.Load(),
			Groups:  s.groups.Load(),
			Done:    s.done.Load(),
		}
	}
	return out
}
