package storage

// This file is the resilience half of the storage fault model: RetryStore
// wraps any Store with per-attempt timeouts, capped exponential backoff with
// jitter, a retry budget, transient-vs-permanent error classification, and
// hedged async reads after a p99-based delay. Pipelines see a Store that
// absorbs transient faults (injected by FaultStore in tests, real in
// production) and surfaces what it spent doing so through RetryStats.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"persona/internal/agd"
)

// ErrStalled reports an attempt abandoned by the per-op timeout. It is
// deliberately distinct from context.DeadlineExceeded: a stalled attempt is
// transient (retry against another replica or a recovered device), while a
// caller's expired deadline is permanent and never retried.
var ErrStalled = errors.New("storage: operation stalled past the per-op timeout")

// IsTransient classifies an error for retry purposes: true means a retry
// may succeed. Permanent (non-retryable) errors are the caller's context
// ending (context.Canceled, context.DeadlineExceeded), a missing blob
// (agd.ErrNotFound), and detected corruption (agd.ErrCorrupt, which
// agd.ErrChecksum wraps, and agd.ErrBadMagic) — re-reading a corrupt
// replica returns the same bytes, so retrying hides the failure instead of
// fixing it. Everything else — I/O errors, injected faults, stalls — is
// transient.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, agd.ErrNotFound) || errors.Is(err, agd.ErrCorrupt) || errors.Is(err, agd.ErrBadMagic) {
		return false
	}
	return true
}

// IsPermanent reports a non-nil error that IsTransient would not retry.
func IsPermanent(err error) bool { return err != nil && !IsTransient(err) }

// RetryPolicy parameterizes a RetryStore. The zero value picks the defaults
// noted per field.
type RetryPolicy struct {
	// MaxAttempts bounds tries per operation, counting the first (default 4).
	MaxAttempts int
	// BaseDelay is the first backoff delay and the jitter floor (default 2ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 100ms).
	MaxDelay time.Duration
	// Multiplier is the backoff growth factor (default 2).
	Multiplier float64
	// OpTimeout abandons a single read attempt after this long, classifying
	// it ErrStalled (transient). 0 disables per-attempt timeouts.
	OpTimeout time.Duration
	// HedgeDelay is how long GetAsync/GetBatch wait before issuing a hedged
	// second read. 0 adapts: a bit above the p99 of recently observed read
	// latencies (falling back to OpTimeout/2, then 50ms, until enough
	// samples exist).
	HedgeDelay time.Duration
	// DisableHedge turns hedged reads off.
	DisableHedge bool
	// Budget, when positive, bounds the total retries (re-attempts beyond
	// each operation's first try) the store will ever spend; once
	// exhausted, operations fail on their first error. 0 means unlimited.
	Budget int64
	// Classify overrides IsTransient.
	Classify func(error) bool
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 2 * time.Millisecond
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = 100 * time.Millisecond
		if p.MaxDelay < p.BaseDelay {
			p.MaxDelay = p.BaseDelay
		}
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Classify == nil {
		p.Classify = IsTransient
	}
	return p
}

// backoffDelay is the delay before retry number `retry` (0-based): capped
// exponential growth with full jitter over [BaseDelay, min(MaxDelay,
// BaseDelay·Multiplier^retry)] — always within [BaseDelay, MaxDelay].
func backoffDelay(pol RetryPolicy, retry int, rnd func() float64) time.Duration {
	base := float64(pol.BaseDelay)
	d := base * math.Pow(pol.Multiplier, float64(retry))
	if max := float64(pol.MaxDelay); d > max {
		d = max
	}
	if d < base {
		d = base
	}
	return time.Duration(base + rnd()*(d-base))
}

// RetryStats counts a RetryStore's resilience activity.
type RetryStats struct {
	// Retries is how many re-attempts (beyond first tries) were issued.
	Retries int64
	// OpTimeouts is how many attempts the per-op timeout abandoned.
	OpTimeouts int64
	// Hedges is how many hedged reads were issued; HedgesWon how many
	// resolved before the primary.
	Hedges, HedgesWon int64
	// BudgetExhausted is how many operations failed because the retry
	// budget was spent.
	BudgetExhausted int64
}

// Delta returns a - b, counter by counter: the activity between two
// snapshots.
func (a RetryStats) Delta(b RetryStats) RetryStats {
	return RetryStats{
		Retries:         a.Retries - b.Retries,
		OpTimeouts:      a.OpTimeouts - b.OpTimeouts,
		Hedges:          a.Hedges - b.Hedges,
		HedgesWon:       a.HedgesWon - b.HedgesWon,
		BudgetExhausted: a.BudgetExhausted - b.BudgetExhausted,
	}
}

// latencyRing keeps the most recent successful read latencies (and their
// payload sizes) for the adaptive hedge delay and the measured read profile
// that calibrates the performance model.
type latencyRing struct {
	mu      sync.Mutex
	samples [128]time.Duration
	bytes   [128]int64
	n       int // total recorded
}

func (l *latencyRing) record(d time.Duration, size int) {
	l.mu.Lock()
	i := l.n % len(l.samples)
	l.samples[i] = d
	l.bytes[i] = int64(size)
	l.n++
	l.mu.Unlock()
}

// profile returns the median read latency, the mean observed throughput in
// MB/s (total bytes over total read time across the retained window), and
// the number of samples behind them. Throughput is 0 when the window carries
// no bytes or no measurable time.
func (l *latencyRing) profile() (lat time.Duration, mbps float64, samples int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	if n > len(l.samples) {
		n = len(l.samples)
	}
	if n == 0 {
		return 0, 0, 0
	}
	cp := make([]time.Duration, n)
	copy(cp, l.samples[:n])
	sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
	lat = cp[n/2]
	var sumBytes int64
	var sumTime time.Duration
	for i := 0; i < n; i++ {
		sumBytes += l.bytes[i]
		sumTime += l.samples[i]
	}
	if sumTime > 0 && sumBytes > 0 {
		mbps = float64(sumBytes) / 1e6 / sumTime.Seconds()
	}
	return lat, mbps, n
}

// p99 returns the 99th percentile of the ring, or 0 until it has enough
// samples to mean anything.
func (l *latencyRing) p99() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	if n > len(l.samples) {
		n = len(l.samples)
	}
	if n < 32 {
		return 0
	}
	cp := make([]time.Duration, n)
	copy(cp, l.samples[:n])
	sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
	return cp[(n*99)/100]
}

// RetryStore wraps a Store with the RetryPolicy. Reads, writes, deletes and
// lists all retry transient errors with backoff; sync reads additionally get
// per-attempt timeouts (via the inner store's async path), and async reads
// (GetAsync/GetBatch) get hedging. It implements BlobStore and
// AsyncBlobStore.
type RetryStore struct {
	inner Store
	async AsyncStore
	pol   RetryPolicy

	budget   atomic.Int64 // remaining retry budget; meaningful iff budgeted
	budgeted bool

	retries         atomic.Int64
	opTimeouts      atomic.Int64
	hedges          atomic.Int64
	hedgesWon       atomic.Int64
	budgetExhausted atomic.Int64

	lat latencyRing

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewRetryStore wraps inner with pol (zero-value fields take defaults).
func NewRetryStore(inner Store, pol RetryPolicy) *RetryStore {
	r := &RetryStore{
		inner: inner,
		async: Async(inner),
		pol:   pol.withDefaults(),
		rng:   rand.New(rand.NewSource(rand.Int63())),
	}
	if r.pol.Budget > 0 {
		r.budgeted = true
		r.budget.Store(r.pol.Budget)
	}
	return r
}

// RetryStats returns a snapshot of the resilience counters. (Named
// RetryStats rather than Stats so wrapped stores' own Stats methods stay
// reachable and Session can detect the resilience layer by interface.)
func (r *RetryStore) RetryStats() RetryStats {
	return RetryStats{
		Retries:         r.retries.Load(),
		OpTimeouts:      r.opTimeouts.Load(),
		Hedges:          r.hedges.Load(),
		HedgesWon:       r.hedgesWon.Load(),
		BudgetExhausted: r.budgetExhausted.Load(),
	}
}

// ReadProfile reports the store's measured read behavior over the recent
// successful-read window: median per-read latency, mean throughput in MB/s,
// and how many samples back them. simulate.ParamsFromProfile calibrates the
// performance model from this instead of the paper's constants, so its
// predictions track the store actually attached — local disk, or a remote
// object store with real round trips.
func (r *RetryStore) ReadProfile() (lat time.Duration, mbps float64, samples int) {
	return r.lat.profile()
}

func (r *RetryStore) rand() float64 {
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return r.rng.Float64()
}

// spendRetry takes one unit of retry budget; false means exhausted.
func (r *RetryStore) spendRetry() bool {
	if r.budgeted && r.budget.Add(-1) < 0 {
		r.budgetExhausted.Add(1)
		return false
	}
	r.retries.Add(1)
	return true
}

// sleepBackoff waits out retry number `retry`'s backoff, aborting early if
// quit closes.
func (r *RetryStore) sleepBackoff(retry int, quit <-chan struct{}) {
	t := time.NewTimer(backoffDelay(r.pol, retry, r.rand))
	defer t.Stop()
	select {
	case <-t.C:
	case <-quit:
	}
}

// attemptGet is one read attempt, bounded by the per-op timeout.
func (r *RetryStore) attemptGet(name string) ([]byte, error) {
	t0 := time.Now()
	if r.pol.OpTimeout <= 0 {
		data, err := r.inner.Get(name)
		if err == nil {
			r.lat.record(time.Since(t0), len(data))
		}
		return data, err
	}
	fut := r.async.GetAsync(name)
	t := time.NewTimer(r.pol.OpTimeout)
	defer t.Stop()
	select {
	case <-fut.Done():
		data, err := fut.Wait(context.Background())
		if err == nil {
			r.lat.record(time.Since(t0), len(data))
		}
		return data, err
	case <-t.C:
		// The attempt is abandoned, not cancelled — its eventual result is
		// dropped by the future. Classified transient via ErrStalled.
		r.opTimeouts.Add(1)
		return nil, fmt.Errorf("get %q: %w (%v)", name, ErrStalled, r.pol.OpTimeout)
	}
}

// getRetry is the full attempt loop for one read. quit, when closed, stops
// further attempts between tries (used to cancel the losing side of a
// hedged pair); the loop then returns its last error.
func (r *RetryStore) getRetry(name string, quit <-chan struct{}) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < r.pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !r.spendRetry() {
				// Budget exhausted: surface the last underlying error, not a
				// budget error — the cause is what the caller can act on.
				return nil, lastErr
			}
			r.sleepBackoff(attempt-1, quit)
			select {
			case <-quit:
				return nil, lastErr
			default:
			}
		}
		data, err := r.attemptGet(name)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !r.pol.Classify(err) {
			return nil, err // permanent: never retried
		}
	}
	return nil, lastErr
}

// Get implements Store: retries with backoff, no hedging (hedges are the
// async path's tool — a sync caller is already paying full latency).
func (r *RetryStore) Get(name string) ([]byte, error) {
	return r.getRetry(name, nil)
}

// hedgeDelay picks how long to wait before hedging one read.
func (r *RetryStore) hedgeDelay() time.Duration {
	if r.pol.HedgeDelay > 0 {
		return r.pol.HedgeDelay
	}
	if p99 := r.lat.p99(); p99 > 0 {
		return p99 + p99/4
	}
	if r.pol.OpTimeout > 0 {
		return r.pol.OpTimeout / 2
	}
	return 50 * time.Millisecond
}

// hedgedGet races a primary retry loop against a hedge issued after the
// hedge delay; the first success (or first permanent error) wins, and the
// loser is told to stop retrying.
func (r *RetryStore) hedgedGet(name string) ([]byte, error) {
	if r.pol.DisableHedge {
		return r.getRetry(name, nil)
	}
	type result struct {
		data  []byte
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	quit := make(chan struct{})
	defer close(quit)
	launch := func(hedge bool) {
		go func() {
			data, err := r.getRetry(name, quit)
			ch <- result{data, err, hedge}
		}()
	}
	launch(false)
	t := time.NewTimer(r.hedgeDelay())
	defer t.Stop()
	inFlight := 1
	var firstErr error
	for {
		select {
		case out := <-ch:
			inFlight--
			if out.err == nil {
				if out.hedge {
					r.hedgesWon.Add(1)
				}
				return out.data, nil
			}
			if !r.pol.Classify(out.err) {
				return nil, out.err // permanent: the twin would hit it too
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if inFlight == 0 {
				// Both sides (or the only side) exhausted their attempts.
				return nil, firstErr
			}
		case <-t.C:
			if inFlight == 1 {
				r.hedges.Add(1)
				launch(true)
				inFlight++
			}
		}
	}
}

// GetAsync implements AsyncBlobStore with retry + hedging. The retry loop
// runs on its own goroutine; concurrency is bounded by the caller's batch
// window and the inner store's own async bounds.
func (r *RetryStore) GetAsync(name string) *Future {
	fut, resolve := agd.NewFuture()
	go func() {
		resolve(r.hedgedGet(name))
	}()
	return fut
}

// GetBatch implements AsyncBlobStore: each read is independently retried
// and hedged.
func (r *RetryStore) GetBatch(names []string) []*Future {
	futs := make([]*Future, len(names))
	for i, name := range names {
		futs[i] = r.GetAsync(name)
	}
	return futs
}

// doRetry runs a non-read operation's attempt loop.
func (r *RetryStore) doRetry(op func() error) error {
	var lastErr error
	for attempt := 0; attempt < r.pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !r.spendRetry() {
				return lastErr
			}
			r.sleepBackoff(attempt-1, nil)
		}
		err := op()
		if err == nil {
			return nil
		}
		lastErr = err
		if !r.pol.Classify(err) {
			return err
		}
	}
	return lastErr
}

// Put implements Store with retries. Puts must be idempotent (they are:
// Put replaces), since a retried put may re-send a write that in fact
// landed.
func (r *RetryStore) Put(name string, data []byte) error {
	return r.doRetry(func() error { return r.inner.Put(name, data) })
}

// Delete implements Store with retries.
func (r *RetryStore) Delete(name string) error {
	return r.doRetry(func() error { return r.inner.Delete(name) })
}

// List implements Store with retries.
func (r *RetryStore) List(prefix string) ([]string, error) {
	var names []string
	err := r.doRetry(func() error {
		var err error
		names, err = r.inner.List(prefix)
		return err
	})
	return names, err
}

var (
	_ Store      = (*RetryStore)(nil)
	_ AsyncStore = (*RetryStore)(nil)
)
