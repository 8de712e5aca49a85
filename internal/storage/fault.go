package storage

// This file is the fault-injection half of the storage fault model: a
// FaultStore wraps any Store and injects transient errors, latency spikes,
// stalls and corrupt payloads under a seeded deterministic policy, so chaos
// tests can script failure scenarios ("OSD 3 is flaky", "this chunk's blob
// is corrupt") and replay them exactly. The resilience half — retry,
// backoff, hedging — lives in retry.go and is what the injected faults are
// aimed at.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the transient error FaultStore returns for injected
// failures. Retry layers classify it transient (it does not wrap any of the
// permanent sentinels), so a retried operation eventually succeeds — the
// deterministic draw changes with each attempt.
var ErrInjected = errors.New("storage: injected transient fault")

// ErrFaultStoreClosed reports an operation that was stalled when the
// FaultStore was closed.
var ErrFaultStoreClosed = errors.New("storage: fault store closed")

// OpFaults is the per-operation fault mix. Probabilities are in [0, 1];
// zero values inject nothing.
type OpFaults struct {
	// ErrProb is the probability an operation fails with ErrInjected
	// before touching the underlying store.
	ErrProb float64
	// LatencyProb is the probability an operation is delayed by Latency
	// before proceeding (a latency spike, not a failure).
	LatencyProb float64
	// Latency is the injected spike duration (default 1ms).
	Latency time.Duration
	// StallProb is the probability an operation hangs for Stall before
	// proceeding — long enough that a per-op timeout or a hedged read
	// should beat it. Stalls are context-aware in the sense that closing
	// the FaultStore unblocks them immediately.
	StallProb float64
	// Stall is the injected stall duration (default 1s).
	Stall time.Duration
	// CorruptProb is the probability a read returns a corrupted copy of
	// the payload (one byte flipped at a deterministic position). Applies
	// to reads only; the underlying blob is never modified.
	CorruptProb float64
}

func (f OpFaults) active() bool {
	return f.ErrProb > 0 || f.LatencyProb > 0 || f.StallProb > 0 || f.CorruptProb > 0
}

// KeyFaults targets a fault mix at specific keys: any blob whose name
// contains Substr uses these faults instead of the policy's defaults — so a
// test can script "chunk-000002.bases is corrupt" or "everything under
// ds/ stalls".
type KeyFaults struct {
	Substr string
	Reads  OpFaults
	Writes OpFaults
}

// FaultPolicy is a FaultStore's seeded deterministic fault schedule.
//
// Determinism: every injection decision is a pure function of (Seed, op,
// key, per-key attempt number, fault kind) — not of wall clock or goroutine
// schedule — so a fixed seed yields the same fault sequence per key on
// every run, and a retried operation draws fresh (but reproducible)
// outcomes each attempt.
type FaultPolicy struct {
	// Seed selects the deterministic fault schedule.
	Seed int64
	// Reads is the default fault mix for Get, and so for the async and
	// range reads agd.AsyncOf and agd.RangeOf build on it.
	Reads OpFaults
	// Writes is the default fault mix for Put and Delete (CorruptProb is
	// ignored for writes).
	Writes OpFaults
	// Keys overrides the defaults for matching keys; the first matching
	// rule wins.
	Keys []KeyFaults
}

// FaultStats counts what a FaultStore injected.
type FaultStats struct {
	InjectedErrors  int64
	InjectedLatency int64
	InjectedStalls  int64
	CorruptedReads  int64
}

// FaultStore injects faults per FaultPolicy in front of any Store. Get is
// its one read: agd.AsyncOf runs it on the async adapter's bounded
// goroutines, so a stalled read occupies a slot exactly like a stuck device
// queue, and agd.RangeOf slices ranges out of it, so range reads see the
// same faults. Close unblocks in-flight stalls; the wrapped store is not
// closed.
type FaultStore struct {
	inner Store
	pol   FaultPolicy

	mu       sync.Mutex
	attempts map[string]uint64 // per op|key deterministic attempt counter

	stop     chan struct{}
	stopOnce sync.Once

	injectedErrors  atomic.Int64
	injectedLatency atomic.Int64
	injectedStalls  atomic.Int64
	corruptedReads  atomic.Int64
}

// NewFaultStore wraps inner with pol.
func NewFaultStore(inner Store, pol FaultPolicy) *FaultStore {
	return &FaultStore{
		inner:    inner,
		pol:      pol,
		attempts: make(map[string]uint64),
		stop:     make(chan struct{}),
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (s *FaultStore) Stats() FaultStats {
	return FaultStats{
		InjectedErrors:  s.injectedErrors.Load(),
		InjectedLatency: s.injectedLatency.Load(),
		InjectedStalls:  s.injectedStalls.Load(),
		CorruptedReads:  s.corruptedReads.Load(),
	}
}

// Close unblocks any in-flight injected stalls and makes future stalls
// return ErrFaultStoreClosed immediately. Operations themselves remain
// usable (a closed FaultStore keeps injecting errors and corruption).
func (s *FaultStore) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// readFaults / writeFaults resolve the fault mix for one key.
func (s *FaultStore) readFaults(key string) OpFaults {
	for _, k := range s.pol.Keys {
		if strings.Contains(key, k.Substr) {
			return k.Reads
		}
	}
	return s.pol.Reads
}

func (s *FaultStore) writeFaults(key string) OpFaults {
	for _, k := range s.pol.Keys {
		if strings.Contains(key, k.Substr) {
			return k.Writes
		}
	}
	return s.pol.Writes
}

// nextAttempt returns this call's deterministic attempt number for (op, key).
func (s *FaultStore) nextAttempt(op, key string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := op + "|" + key
	n := s.attempts[k]
	s.attempts[k] = n + 1
	return n
}

// draw is the deterministic uniform variate in [0, 1) for one injection
// decision: a hash of (seed, op, key, attempt, fault kind). FNV's final
// multiply diffuses a trailing-byte change (the attempt counter) poorly into
// the high bits, so the sum goes through a splitmix64 finalizer before the
// top 53 bits become the variate.
func (s *FaultStore) draw(op, key, kind string, attempt uint64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s|%d", s.pol.Seed, op, key, kind, attempt)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(uint64(1)<<53)
}

// delay sleeps for d unless the store is closed first; it reports whether
// the sleep ran to completion.
func (s *FaultStore) delay(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stop:
		return false
	}
}

// inject runs the pre-operation fault mix (stall, latency spike, transient
// error) for one attempt; a non-nil error aborts the operation.
func (s *FaultStore) inject(op, key string, f OpFaults, attempt uint64) error {
	if f.StallProb > 0 && s.draw(op, key, "stall", attempt) < f.StallProb {
		s.injectedStalls.Add(1)
		d := f.Stall
		if d <= 0 {
			d = time.Second
		}
		if !s.delay(d) {
			return fmt.Errorf("%s %q: %w", op, key, ErrFaultStoreClosed)
		}
	}
	if f.LatencyProb > 0 && s.draw(op, key, "latency", attempt) < f.LatencyProb {
		s.injectedLatency.Add(1)
		d := f.Latency
		if d <= 0 {
			d = time.Millisecond
		}
		if !s.delay(d) {
			return fmt.Errorf("%s %q: %w", op, key, ErrFaultStoreClosed)
		}
	}
	if f.ErrProb > 0 && s.draw(op, key, "err", attempt) < f.ErrProb {
		s.injectedErrors.Add(1)
		return fmt.Errorf("%s %q: %w", op, key, ErrInjected)
	}
	return nil
}

// Get implements Store with read faults.
func (s *FaultStore) Get(name string) ([]byte, error) {
	f := s.readFaults(name)
	if !f.active() {
		return s.inner.Get(name)
	}
	attempt := s.nextAttempt("get", name)
	if err := s.inject("get", name, f, attempt); err != nil {
		return nil, err
	}
	data, err := s.inner.Get(name)
	if err != nil {
		return nil, err
	}
	if f.CorruptProb > 0 && s.draw("get", name, "corrupt", attempt) < f.CorruptProb {
		s.corruptedReads.Add(1)
		cp := make([]byte, len(data))
		copy(cp, data)
		if len(cp) > 0 {
			pos := int(s.draw("get", name, "corrupt-pos", attempt) * float64(len(cp)))
			if pos >= len(cp) {
				pos = len(cp) - 1
			}
			cp[pos] ^= 0x40
		}
		return cp, nil
	}
	return data, nil
}

// Put implements Store with write faults.
func (s *FaultStore) Put(name string, data []byte) error {
	f := s.writeFaults(name)
	if !f.active() {
		return s.inner.Put(name, data)
	}
	if err := s.inject("put", name, f, s.nextAttempt("put", name)); err != nil {
		return err
	}
	return s.inner.Put(name, data)
}

// Delete implements Store with write faults.
func (s *FaultStore) Delete(name string) error {
	f := s.writeFaults(name)
	if !f.active() {
		return s.inner.Delete(name)
	}
	if err := s.inject("delete", name, f, s.nextAttempt("delete", name)); err != nil {
		return err
	}
	return s.inner.Delete(name)
}

// List implements Store. Listing is the manifest/control path and is left
// fault-free: the fault model targets the data plane.
func (s *FaultStore) List(prefix string) ([]string, error) {
	return s.inner.List(prefix)
}

var _ Store = (*FaultStore)(nil)
