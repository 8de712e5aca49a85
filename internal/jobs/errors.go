package jobs

import (
	"errors"
	"time"

	"persona"
	"persona/internal/agd"
	"persona/internal/cluster"
	"persona/internal/storage"
)

// Sentinel errors of the job layer. Wrapped errors follow the repo
// convention (`op %q: %w`), so callers classify with errors.Is and the
// IsTransient helper below, and the HTTP layer derives status
// codes from classification rather than from string matching.
var (
	// ErrOverloaded rejects a submission past the admission budget (queue
	// depth or in-flight byte estimate). Transient: retry after backing off.
	ErrOverloaded = errors.New("jobs: over admission budget")
	// ErrDraining rejects a submission while the server is shutting down.
	// Transient from the client's point of view: retry against a live server.
	ErrDraining = errors.New("jobs: server draining")
	// ErrUnknownJob is returned for job IDs the journal has never seen.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrBadSpec rejects a submission whose spec cannot ever run. Permanent.
	ErrBadSpec = errors.New("jobs: invalid job spec")
	// ErrNotDone is returned when a result is fetched before the job is DONE.
	ErrNotDone = errors.New("jobs: job has no result yet")
)

// IsTransient reports whether err is worth retrying: admission rejections
// and everything the storage layer classifies as transient. Spec and lookup
// errors, Run's refusals and a run left with no records are permanent.
// Mirrors storage.IsTransient's contract: nil is not transient.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDraining) {
		return true
	}
	if errors.Is(err, ErrBadSpec) || errors.Is(err, ErrUnknownJob) || errors.Is(err, ErrNotDone) ||
		errors.Is(err, persona.ErrRefused) || errors.Is(err, agd.ErrNoRecords) {
		return false
	}
	// A cluster abort means the run exhausted its per-chunk attempt budget
	// across workers — retrying the whole job would replay the same failures.
	if errors.Is(err, cluster.ErrAborted) {
		return false
	}
	return storage.IsTransient(err)
}

// HTTPStatus maps a job-layer error onto an HTTP status code and, for
// transient rejections, a Retry-After hint (0 means no header). The mapping
// falls out of classification: load shedding is 429, drain and other
// transient faults are 503, permanent spec/lookup errors are 4xx.
func HTTPStatus(err error) (status int, retryAfter time.Duration) {
	switch {
	case err == nil:
		return 200, 0
	case errors.Is(err, ErrOverloaded):
		return 429, time.Second
	case errors.Is(err, ErrDraining):
		return 503, 5 * time.Second
	case errors.Is(err, ErrUnknownJob):
		return 404, 0
	case errors.Is(err, ErrNotDone):
		return 409, 0
	case errors.Is(err, ErrBadSpec):
		return 400, 0
	case errors.Is(err, agd.ErrNotFound):
		return 404, 0
	case errors.Is(err, cluster.ErrAborted):
		return 500, 0
	case IsTransient(err):
		return 503, 2 * time.Second
	default:
		return 500, 0
	}
}
