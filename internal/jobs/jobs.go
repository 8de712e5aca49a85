// Package jobs turns a persona.Session into a crash-safe multi-tenant job
// service: declarative pipeline specs are admitted under a load-shedding
// budget, journaled durably to the session's blob store before they are
// acknowledged, dispatched fairly across tenants by weighted round-robin,
// and resumed after a crash by replaying the journal. It is the engine
// behind cmd/persona-server; the HTTP surface lives in api.go and the
// matching client in client.go.
//
// Admission refuses exactly what Run refuses: Submit validates the spec's
// pipeline (Spec.Pipeline) with Run's own checks before it journals the
// job, so what Run would refuse is a 400 with Run's message, not an attempt.
//
// Crash safety leans on two invariants established lower in the stack:
// blob Puts are atomic (a journal record is either the old state or the new
// state, never torn), and every blob a job writes — outputs, exported
// results, a distributed run's shuffle and staging blobs — lives under the
// job-unique prefix "jobs/<id>/", which is swept before every (re)run.
// Re-running an interrupted job is therefore idempotent: the sweep deletes
// any partial output, and the job's inputs are immutable datasets.
package jobs

import (
	"fmt"
	"io"
	"math"
	"time"

	"persona"
)

// State is a job's position in its lifecycle. Transitions are journaled
// before they take effect, so the journal never claims more progress than
// the store holds: PENDING → RUNNING → DONE | FAILED, with RUNNING able to
// fall back to PENDING (transient failure within the attempt budget, or a
// checkpointing drain).
type State string

const (
	// StatePending: admitted and journaled, waiting for a worker.
	StatePending State = "PENDING"
	// StateRunning: a worker has claimed the job; attempt count incremented.
	StateRunning State = "RUNNING"
	// StateDone: the pipeline completed; results are durable in the store.
	StateDone State = "DONE"
	// StateFailed: permanently failed, or transient failures exhausted the
	// attempt budget.
	StateFailed State = "FAILED"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Spec is a declarative pipeline job: which dataset to read and which
// stages to run, mirroring the Pipeline builder verbs. The zero value of
// every knob means "skip that stage". Pipeline is the one translation of a
// spec into stages; Submit refuses exactly the specs whose pipeline Run
// refuses. An "edge_depth", which older servers took, is ignored: the
// pipeline derives its edges from GOMAXPROCS.
type Spec struct {
	// Dataset names the input AGD dataset (required).
	Dataset string `json:"dataset"`
	// Align appends a results column using the server's reference index.
	Align bool `json:"align,omitempty"`
	// MaxDist is the aligner's maximum edit distance, 0 to 64 (0 = default).
	MaxDist int `json:"max_dist,omitempty"`
	// Sort reorders the stream: "", "location" or "metadata".
	Sort string `json:"sort,omitempty"`
	// MarkDup flags duplicates in the results column.
	MarkDup bool `json:"markdup,omitempty"`
	// MappedOnly keeps only aligned reads; MinMapQ keeps reads at or above a
	// mapping quality, 0 to 255; Dedup drops marked duplicates. Any filter
	// implies an aligned stream.
	MappedOnly bool `json:"mapped_only,omitempty"`
	MinMapQ    int  `json:"min_mapq,omitempty"`
	Dedup      bool `json:"dedup,omitempty"`
	// Format picks the sink: "sam", "bam" or "fastq" export into a result
	// blob, or "dataset" to materialize an output AGD dataset.
	Format string `json:"format"`
	// DeadlineMS caps the job's wall time per attempt (0 = server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Nodes >= 1 runs the pipeline distributed across that many in-process
	// worker nodes (split at the sort, or the map phase alone without one;
	// see persona.Pipeline.Distributed). 0 keeps the single-node scheduler.
	Nodes int `json:"nodes,omitempty"`
}

// maxDistLimit bounds Spec.MaxDist: the aligner's scratch holds
// (MaxDist+1)(MaxDist+5) ints, gigabytes for an unbounded request value.
const maxDistLimit = 64

// maxDeadlineMS is the largest DeadlineMS a time.Duration holds.
const maxDeadlineMS = int64(math.MaxInt64 / time.Millisecond)

// SortKey returns the sort key a word of Spec.Sort names: its String.
func SortKey(word string) (persona.SortKey, error) {
	for _, by := range []persona.SortKey{persona.ByLocation, persona.ByMetadata} {
		if by.String() == word {
			return by, nil
		}
	}
	return 0, fmt.Errorf("spec: sort %q (want location or metadata): %w", word, ErrBadSpec)
}

// Predicate returns the filter MappedOnly, MinMapQ and Dedup name, all of
// them to hold, or nil when they name none.
func (sp Spec) Predicate() (persona.FilterPredicate, error) {
	if sp.MinMapQ < 0 || sp.MinMapQ > math.MaxUint8 {
		return nil, fmt.Errorf("spec: min_mapq %d (want 0-255): %w", sp.MinMapQ, ErrBadSpec)
	}
	var preds []persona.FilterPredicate
	if sp.MappedOnly {
		preds = append(preds, persona.FilterMappedOnly())
	}
	if sp.MinMapQ > 0 {
		preds = append(preds, persona.FilterMinMapQ(uint8(sp.MinMapQ)))
	}
	if sp.Dedup {
		preds = append(preds, persona.FilterDropDuplicates())
	}
	if len(preds) == 0 {
		return nil, nil
	}
	return persona.FilterAnd(preds...), nil
}

// Pipeline builds the spec's pipeline over sess: Read, then align against
// idx, sort, markdup and filter as asked, and the Format's sink, an export
// into w or a Write of out. It refuses, wrapped in ErrBadSpec, a spec no
// pipeline is built from: no dataset, an unknown word, a number out of
// range. What the pipeline cannot run, its Validate refuses, as Run would.
func (sp Spec) Pipeline(sess *persona.Session, idx *persona.Index, w io.Writer, out string) (*persona.Pipeline, error) {
	bad := func(format string, a ...any) (*persona.Pipeline, error) {
		return nil, fmt.Errorf("spec: "+format+": %w", append(a, ErrBadSpec)...)
	}
	switch {
	case sp.Dataset == "":
		return bad("missing dataset")
	case sp.Dedup && !sp.MarkDup:
		return bad("dedup without markdup")
	case sp.MaxDist < 0 || sp.MaxDist > maxDistLimit:
		return bad("max_dist %d (want 0-%d)", sp.MaxDist, maxDistLimit)
	case sp.DeadlineMS < 0 || sp.DeadlineMS > maxDeadlineMS:
		return bad("deadline_ms %d (want 0-%d)", sp.DeadlineMS, maxDeadlineMS)
	case sp.Nodes < 0:
		return bad("negative nodes")
	}
	pred, err := sp.Predicate()
	if err != nil {
		return nil, err
	}
	p := sess.Read(sp.Dataset)
	if sp.Align {
		p.Align(idx, persona.AlignOptions{MaxDist: sp.MaxDist})
	}
	if sp.Sort != "" {
		by, err := SortKey(sp.Sort)
		if err != nil {
			return nil, err
		}
		p.Sort(by)
	}
	if sp.MarkDup {
		p.MarkDuplicates()
	}
	if pred != nil {
		p.Filter(pred)
	}
	switch sp.Format {
	case "sam":
		p.ExportSAM(w)
	case "bam":
		p.ExportBAM(w)
	case "fastq":
		p.ExportFASTQ(w)
	case "dataset":
		p.Write(out)
	default:
		return bad("format %q (want sam, bam, fastq or dataset)", sp.Format)
	}
	return p.Distributed(sp.Nodes), nil
}

// StageMeta is one stage's final counters in a completed job's result.
type StageMeta struct {
	Stage   string        `json:"stage"`
	Records uint64        `json:"records"`
	Groups  int64         `json:"groups"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// ResultMeta describes where a completed job's output landed and what the
// run looked like. It is journaled with the DONE record, so results survive
// a restart.
type ResultMeta struct {
	// Records is what the sink consumed.
	Records uint64 `json:"records"`
	// Elapsed is the successful attempt's wall time.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Stages are the per-stage final counters of the successful attempt.
	Stages []StageMeta `json:"stages,omitempty"`
	// ResultBlob/ResultBytes locate an exported (sam/bam/fastq) result in
	// the store; OutDataset names a "dataset"-format job's output dataset.
	ResultBlob  string `json:"result_blob,omitempty"`
	ResultBytes int64  `json:"result_bytes,omitempty"`
	OutDataset  string `json:"out_dataset,omitempty"`
	// Storage carries the resilient store's retry/hedge delta for the
	// attempt, when the session store is resilience-wrapped.
	Storage *persona.StorageStats `json:"storage,omitempty"`
}

// Record is a job's durable journal entry — the unit the write-ahead
// journal Puts atomically at every state transition.
type Record struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Spec   Spec   `json:"spec"`
	State  State  `json:"state"`
	// Attempts counts dispatches so far; MaxAttempts is the budget transient
	// failures may consume before the job fails permanently.
	Attempts    int `json:"attempts"`
	MaxAttempts int `json:"max_attempts"`
	// EstBytes is the admission-time size estimate counted against the
	// queued-bytes budget (kept so recovery re-admits at the same weight).
	EstBytes    int64     `json:"est_bytes"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// Error and Transient record the last failure and its classification.
	Error     string `json:"error,omitempty"`
	Transient bool   `json:"transient,omitempty"`
	// Result is set on DONE.
	Result *ResultMeta `json:"result,omitempty"`
}

// JobStatus is a Record plus the live per-stage progress of an in-flight
// attempt — what the status endpoint serves.
type JobStatus struct {
	Record
	// Progress is the observed pipeline's per-stage counters, present while
	// the job is RUNNING (and frozen at their final values afterwards, until
	// the record is reloaded from the journal).
	Progress []persona.StageProgress `json:"progress,omitempty"`
}

// jobPrefix is the sweepable namespace every blob of a job lives under.
func jobPrefix(id string) string { return "jobs/" + id }

// resultBlob is where an export-format job's rendered output is Put.
func resultBlob(id string) string { return jobPrefix(id) + "/result" }

// outDataset names a dataset-format job's output dataset.
func outDataset(id string) string { return jobPrefix(id) + "/out" }

// clusterPrefix is the namespace of a distributed job's cluster runs.
func clusterPrefix(id string) string { return jobPrefix(id) + "/cluster" }
