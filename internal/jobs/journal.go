package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"persona/internal/agd"
	"persona/internal/storage"
)

// Journal is the write-ahead job log: one JSON blob per job under
// ".jobs/journal/<id>", rewritten atomically at every state transition
// (DirStore Puts are temp-file + rename + fsync, so a crash mid-transition
// leaves the previous record intact, never a torn one). A clean-shutdown
// marker distinguishes an orderly drain from a crash at the next boot.
//
// The journal shares the session's store on purpose: the durability domain
// of the job states is exactly the durability domain of the job outputs,
// so "journal says DONE" implies the result blob survived the same crash.
type Journal struct {
	store storage.Store
}

const (
	journalPrefix = ".jobs/journal/"
	cleanMarker   = ".jobs/clean"
)

// NewJournal opens the journal namespace on a store.
func NewJournal(store storage.Store) *Journal { return &Journal{store: store} }

// Put durably records a job's current state. The store's atomic Put is the
// commit point: after it returns, a restart replays this state.
func (j *Journal) Put(rec *Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal put %q: %w", rec.ID, err)
	}
	if err := j.store.Put(journalPrefix+rec.ID, data); err != nil {
		return fmt.Errorf("journal put %q: %w", rec.ID, err)
	}
	return nil
}

// Delete removes a job's journal record (used to unwind an admission whose
// enqueue lost a race with drain or a budget refill).
func (j *Journal) Delete(id string) error {
	if err := j.store.Delete(journalPrefix + id); err != nil {
		return fmt.Errorf("journal delete %q: %w", id, err)
	}
	return nil
}

// Load replays the journal, returning every record ordered by job ID (IDs
// are zero-padded sequence numbers, so lexicographic order is submission
// order). Records that fail to load or parse are skipped with their error
// collected — one corrupt record must not wedge recovery of the rest — and so
// is a record whose claims recovery cannot route: one not stored under its
// own ID (its next Put would land in a second blob), or one in no known
// state or with negative attempts.
func (j *Journal) Load() (recs []*Record, errs []error, err error) {
	names, err := j.store.List(journalPrefix)
	if err != nil {
		return nil, nil, fmt.Errorf("journal load: %w", err)
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := j.store.Get(name)
		if err != nil {
			errs = append(errs, fmt.Errorf("journal load %q: %w", name, err))
			continue
		}
		rec := &Record{}
		if err := json.Unmarshal(data, rec); err != nil {
			errs = append(errs, fmt.Errorf("journal load %q: %w", name, err))
			continue
		}
		switch {
		case rec.ID == "" || name != journalPrefix+rec.ID:
			errs = append(errs, fmt.Errorf("journal load %q: record names itself %q", name, rec.ID))
		case !slices.Contains([]State{StatePending, StateRunning, StateDone, StateFailed}, rec.State) || rec.Attempts < 0:
			errs = append(errs, fmt.Errorf("journal load %q: state %q after %d attempts", name, rec.State, rec.Attempts))
		default:
			recs = append(recs, rec)
		}
	}
	return recs, errs, nil
}

// WriteCleanMarker records an orderly shutdown: every worker has stopped
// and all journal records are at rest.
func (j *Journal) WriteCleanMarker(at time.Time) error {
	data, _ := json.Marshal(map[string]string{"shutdown_at": at.UTC().Format(time.RFC3339Nano)})
	if err := j.store.Put(cleanMarker, data); err != nil {
		return fmt.Errorf("journal clean-marker: %w", err)
	}
	return nil
}

// TakeCleanMarker consumes the clean-shutdown marker: reports whether the
// previous process exited cleanly and removes the marker so the current
// incarnation must earn its own.
func (j *Journal) TakeCleanMarker() (clean bool, err error) {
	_, err = j.store.Get(cleanMarker)
	if errors.Is(err, agd.ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("journal clean-marker: %w", err)
	}
	if err := j.store.Delete(cleanMarker); err != nil {
		return true, fmt.Errorf("journal clean-marker: %w", err)
	}
	return true, nil
}
