package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"persona/internal/agd"
)

// TestFaultStoreDeterministic: two FaultStores with the same seed and policy
// inject the identical fault sequence per key, regardless of call order.
func TestFaultStoreDeterministic(t *testing.T) {
	build := func() *FaultStore {
		inner := agd.NewMemStore()
		for i := 0; i < 8; i++ {
			if err := inner.Put(fmt.Sprintf("blob-%d", i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return NewFaultStore(inner, FaultPolicy{
			Seed:  42,
			Reads: OpFaults{ErrProb: 0.5, CorruptProb: 0.2},
		})
	}
	type outcome struct {
		errored bool
		data    string
	}
	run := func(fs *FaultStore) []outcome {
		var out []outcome
		for attempt := 0; attempt < 6; attempt++ {
			for i := 0; i < 8; i++ {
				data, err := fs.Get(fmt.Sprintf("blob-%d", i))
				out = append(out, outcome{errored: err != nil, data: string(data)})
			}
		}
		return out
	}
	a, b := run(build()), run(build())
	if len(a) != len(b) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a), len(b))
	}
	errored := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].errored {
			errored++
		}
	}
	if errored == 0 {
		t.Fatal("ErrProb 0.5 injected no errors in 48 reads")
	}
}

// TestFaultStoreCorruption: corruption is detectable, deterministic, and
// never touches the underlying blob.
func TestFaultStoreCorruption(t *testing.T) {
	inner := agd.NewMemStore()
	orig := []byte("the quick brown fox")
	if err := inner.Put("k", orig); err != nil {
		t.Fatal(err)
	}
	fs := NewFaultStore(inner, FaultPolicy{Seed: 7, Reads: OpFaults{CorruptProb: 1}})
	got, err := fs.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(orig) {
		t.Fatal("CorruptProb 1 returned clean bytes")
	}
	if fs.Stats().CorruptedReads != 1 {
		t.Fatalf("CorruptedReads = %d", fs.Stats().CorruptedReads)
	}
	clean, err := inner.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(clean) != string(orig) {
		t.Fatal("underlying blob was modified")
	}
}

// TestFaultStoreTargetsKeys: a KeyFaults rule overrides the defaults for
// matching keys only.
func TestFaultStoreTargetsKeys(t *testing.T) {
	inner := agd.NewMemStore()
	inner.Put("ds/chunk-0.bases", []byte("aaaa"))
	inner.Put("ds/chunk-1.bases", []byte("bbbb"))
	fs := NewFaultStore(inner, FaultPolicy{
		Seed: 1,
		Keys: []KeyFaults{{Substr: "chunk-1", Reads: OpFaults{ErrProb: 1}}},
	})
	if _, err := fs.Get("ds/chunk-0.bases"); err != nil {
		t.Fatalf("untargeted key failed: %v", err)
	}
	if _, err := fs.Get("ds/chunk-1.bases"); !errors.Is(err, ErrInjected) {
		t.Fatalf("targeted key err = %v, want ErrInjected", err)
	}
}

// TestBackoffJitterBounds: every backoff delay stays within
// [BaseDelay, MaxDelay], whatever the retry number and jitter draw.
func TestBackoffJitterBounds(t *testing.T) {
	pol := RetryPolicy{BaseDelay: 2 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Multiplier: 2}.withDefaults()
	for retry := 0; retry < 20; retry++ {
		for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999999} {
			d := backoffDelay(pol, retry, func() float64 { return u })
			if d < pol.BaseDelay || d > pol.MaxDelay {
				t.Fatalf("retry %d u=%v: delay %v outside [%v, %v]", retry, u, d, pol.BaseDelay, pol.MaxDelay)
			}
		}
	}
	// Growth: the ceiling for a late retry must reach the cap.
	d := backoffDelay(pol, 10, func() float64 { return 0.999999 })
	if d < 90*time.Millisecond {
		t.Fatalf("retry 10 max draw = %v, expected near MaxDelay", d)
	}
}

// failNStore fails the first n operations per key with a numbered transient
// error, then succeeds.
type failNStore struct {
	Store
	n     int
	mu    sync.Mutex
	calls map[string]int
}

func newFailNStore(inner Store, n int) *failNStore {
	return &failNStore{Store: inner, n: n, calls: make(map[string]int)}
}

func (s *failNStore) callNum(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.calls[name]
	s.calls[name] = c + 1
	return c
}

func (s *failNStore) Get(name string) ([]byte, error) {
	if c := s.callNum(name); c < s.n {
		return nil, fmt.Errorf("flaky device (call %d): %w", c, ErrInjected)
	}
	return s.Store.Get(name)
}

// TestRetryBudgetExhaustionReturnsLastError: once the budget is spent, the
// operation fails with the last underlying error — not a budget error.
func TestRetryBudgetExhaustionReturnsLastError(t *testing.T) {
	inner := agd.NewMemStore()
	inner.Put("k", []byte("v"))
	flaky := newFailNStore(inner, 1000) // never succeeds
	rs := NewRetryStore(flaky, RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond,
		Budget: 1,
	})
	_, err := rs.Get("k")
	if err == nil {
		t.Fatal("expected failure")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want the underlying ErrInjected", err)
	}
	// Budget 1 allowed exactly one retry, so the last attempt is call 1.
	if want := "flaky device (call 1)"; !errors.Is(err, ErrInjected) || err.Error()[:len(want)] != want {
		t.Fatalf("err = %v, want the error of the last attempt (%s...)", err, want)
	}
	st := rs.RetryStats()
	if st.Retries != 1 || st.BudgetExhausted != 1 {
		t.Fatalf("stats = %+v, want 1 retry and 1 budget exhaustion", st)
	}
}

// deadlineStore always fails with a wrapped context.DeadlineExceeded.
type deadlineStore struct {
	Store
	calls atomic.Int64
}

func (s *deadlineStore) Get(name string) ([]byte, error) {
	s.calls.Add(1)
	return nil, fmt.Errorf("get %q: %w", name, context.DeadlineExceeded)
}

// TestDeadlineExceededNeverRetried: a caller's expired deadline is
// permanent — one attempt, zero retries.
func TestDeadlineExceededNeverRetried(t *testing.T) {
	ds := &deadlineStore{Store: agd.NewMemStore()}
	rs := NewRetryStore(ds, RetryPolicy{MaxAttempts: 8, BaseDelay: time.Microsecond})
	_, err := rs.Get("k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if n := ds.calls.Load(); n != 1 {
		t.Fatalf("inner store called %d times, want 1", n)
	}
	if st := rs.RetryStats(); st.Retries != 0 {
		t.Fatalf("Retries = %d, want 0", st.Retries)
	}
}

// TestPermanentErrorsNotRetried: same for not-found and corruption.
func TestPermanentErrorsNotRetried(t *testing.T) {
	rs := NewRetryStore(agd.NewMemStore(), RetryPolicy{MaxAttempts: 8, BaseDelay: time.Microsecond})
	if _, err := rs.Get("missing"); !errors.Is(err, agd.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if st := rs.RetryStats(); st.Retries != 0 {
		t.Fatalf("Retries = %d, want 0", st.Retries)
	}
	for _, err := range []error{agd.ErrChecksum, agd.ErrCorrupt, agd.ErrBadMagic, context.Canceled, context.DeadlineExceeded} {
		if IsTransient(fmt.Errorf("get %q: %w", "k", err)) {
			t.Errorf("IsTransient(%v) = true, want permanent", err)
		}
	}
	for _, err := range []error{ErrInjected, ErrStalled, errors.New("io: device sneezed")} {
		if !IsTransient(fmt.Errorf("get %q: %w", "k", err)) {
			t.Errorf("IsTransient(%v) = false, want transient", err)
		}
	}
	if IsTransient(nil) || IsPermanent(nil) {
		t.Error("nil error classified")
	}
}

// TestRetryAbsorbsInjectedFaults: a RetryStore over a 50%-flaky FaultStore
// serves every read.
func TestRetryAbsorbsInjectedFaults(t *testing.T) {
	inner := agd.NewMemStore()
	for i := 0; i < 32; i++ {
		inner.Put(fmt.Sprintf("blob-%d", i), []byte(fmt.Sprintf("payload-%d", i)))
	}
	fs := NewFaultStore(inner, FaultPolicy{Seed: 9, Reads: OpFaults{ErrProb: 0.5}})
	rs := NewRetryStore(fs, RetryPolicy{MaxAttempts: 10, BaseDelay: time.Microsecond, MaxDelay: 50 * time.Microsecond})
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("blob-%d", i)
		data, err := rs.Get(name)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		if want := fmt.Sprintf("payload-%d", i); string(data) != want {
			t.Fatalf("get %s = %q", name, data)
		}
	}
	if st := rs.RetryStats(); st.Retries == 0 {
		t.Fatal("no retries recorded against a flaky store")
	}
}

// slowFirstStore stalls each key's first read; later reads are instant.
type slowFirstStore struct {
	Store
	delay time.Duration
	mu    sync.Mutex
	calls map[string]int
}

func (s *slowFirstStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	c := s.calls[name]
	s.calls[name] = c + 1
	s.mu.Unlock()
	if c == 0 {
		time.Sleep(s.delay)
	}
	return s.Store.Get(name)
}

// TestHedgedReadWins: with the primary stuck in a slow first read, the hedge
// launched after HedgeDelay returns first.
func TestHedgedReadWins(t *testing.T) {
	inner := agd.NewMemStore()
	inner.Put("k", []byte("v"))
	slow := &slowFirstStore{Store: inner, delay: 300 * time.Millisecond, calls: make(map[string]int)}
	rs := NewRetryStore(slow, RetryPolicy{HedgeDelay: 5 * time.Millisecond})
	t0 := time.Now()
	data, err := rs.GetAsync("k").Wait(context.Background())
	if err != nil || string(data) != "v" {
		t.Fatalf("hedged read = %q, %v", data, err)
	}
	if took := time.Since(t0); took > 200*time.Millisecond {
		t.Fatalf("hedged read took %v, primary's stall leaked through", took)
	}
	st := rs.RetryStats()
	if st.Hedges != 1 || st.HedgesWon != 1 {
		t.Fatalf("stats = %+v, want the hedge issued and won", st)
	}
}

// TestHedgeOnlyUnansweredRead: the hedge timer and the primary's answer are
// both ready when the hedged read looks at them — its goroutine was not
// scheduled while the primary answered and the delay ran out. The answer is
// taken and no hedge is launched, every time; a timer that fires with no
// answer waiting still hedges. The timer is an injected channel, so the test
// sleeps nowhere.
func TestHedgeOnlyUnansweredRead(t *testing.T) {
	rs := NewRetryStore(agd.NewMemStore(), RetryPolicy{})
	fired := make(chan time.Time, 1)
	for i := 0; i < 200; i++ {
		answers := make(chan hedgeAnswer, 2)
		answers <- hedgeAnswer{data: []byte("v")}
		fired <- time.Time{}
		data, err := rs.firstAnswer(answers, fired, func(bool) {
			t.Fatal("hedged a read that had answered")
		})
		if err != nil || string(data) != "v" {
			t.Fatalf("answered read = %q, %v", data, err)
		}
		select { // the timer's tick, if the answer was taken before it
		case <-fired:
		default:
		}
	}
	answers := make(chan hedgeAnswer, 2)
	fired <- time.Time{}
	data, err := rs.firstAnswer(answers, fired, func(hedge bool) {
		answers <- hedgeAnswer{data: []byte("h"), hedge: hedge}
	})
	if err != nil || string(data) != "h" {
		t.Fatalf("hedged read = %q, %v", data, err)
	}
	if st := rs.RetryStats(); st.Hedges != 1 || st.HedgesWon != 1 {
		t.Fatalf("stats = %+v, want one hedge, issued and won", st)
	}
}

// TestOpTimeoutRetries: a per-op timeout abandons a stalled attempt as
// transient (ErrStalled) and the retry succeeds — while a caller deadline
// would not have been retried.
func TestOpTimeoutRetries(t *testing.T) {
	inner := agd.NewMemStore()
	inner.Put("k", []byte("v"))
	slow := &slowFirstStore{Store: inner, delay: 300 * time.Millisecond, calls: make(map[string]int)}
	rs := NewRetryStore(slow, RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Microsecond,
		OpTimeout: 20 * time.Millisecond, DisableHedge: true,
	})
	data, err := rs.Get("k")
	if err != nil || string(data) != "v" {
		t.Fatalf("get = %q, %v", data, err)
	}
	st := rs.RetryStats()
	if st.OpTimeouts != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v, want 1 op timeout and 1 retry", st)
	}
}

// TestOpTimeoutTimesOnlyTheStore: with a per-op timeout, more sync reads
// than the async adapter has workers are in flight at once, and the store
// answers none of them until all have reached it. No attempt times out: an
// attempt's timer runs while the store has its read, never while the read
// waits for a worker.
func TestOpTimeoutTimesOnlyTheStore(t *testing.T) {
	const n = 40
	inner := agd.NewMemStore()
	inner.Put("k", []byte("v"))
	rs := NewRetryStore(&barrierStore{Store: inner, n: n, all: make(chan struct{})}, RetryPolicy{
		MaxAttempts: 1, OpTimeout: time.Second, DisableHedge: true,
	})
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rs.Get("k"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := rs.RetryStats(); st.OpTimeouts != 0 {
		t.Fatalf("stats = %+v, want no op timeouts", st)
	}
}

// barrierStore holds every Get until n Gets have reached it, or for five
// seconds.
type barrierStore struct {
	Store
	n       int
	mu      sync.Mutex
	arrived int
	all     chan struct{}
}

func (b *barrierStore) Get(name string) ([]byte, error) {
	b.mu.Lock()
	if b.arrived++; b.arrived == b.n {
		close(b.all)
	}
	b.mu.Unlock()
	select {
	case <-b.all:
	case <-time.After(5 * time.Second):
	}
	return b.Store.Get(name)
}

// TestRetryStoreStatsDelta: snapshots subtract cleanly.
func TestRetryStoreStatsDelta(t *testing.T) {
	a := RetryStats{Retries: 5, OpTimeouts: 3, Hedges: 2, HedgesWon: 1, BudgetExhausted: 1}
	b := RetryStats{Retries: 2, OpTimeouts: 1, Hedges: 1}
	d := a.Delta(b)
	want := RetryStats{Retries: 3, OpTimeouts: 2, Hedges: 1, HedgesWon: 1, BudgetExhausted: 1}
	if d != want {
		t.Fatalf("Delta = %+v, want %+v", d, want)
	}
}

// TestFaultStoreAsyncPath: GetBatch through agd.AsyncOf over the wrapper
// injects the same per-key faults as the sync path would.
func TestFaultStoreAsyncPath(t *testing.T) {
	inner := agd.NewMemStore()
	for i := 0; i < 8; i++ {
		inner.Put(fmt.Sprintf("b%d", i), []byte{byte(i)})
	}
	fs := NewFaultStore(inner, FaultPolicy{Seed: 3, Reads: OpFaults{ErrProb: 0.4}})
	defer fs.Close()
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("b%d", i)
	}
	futs := agd.AsyncOf(fs).GetBatch(names)
	errored := 0
	for i, f := range futs {
		data, err := f.Wait(context.Background())
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("future %d: %v", i, err)
			}
			errored++
			continue
		}
		if len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("future %d = %v", i, data)
		}
	}
	if errored == 0 {
		t.Fatal("no faults injected on the async path")
	}
}

// TestFaultStoreCloseUnblocksStall: Close releases an in-flight stall.
func TestFaultStoreCloseUnblocksStall(t *testing.T) {
	inner := agd.NewMemStore()
	inner.Put("k", []byte("v"))
	fs := NewFaultStore(inner, FaultPolicy{Seed: 5, Reads: OpFaults{StallProb: 1, Stall: time.Hour}})
	done := make(chan error, 1)
	go func() {
		_, err := fs.Get("k")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	fs.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrFaultStoreClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled read not unblocked by Close")
	}
}
