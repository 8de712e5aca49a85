package dataflow

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestExecutorRunsAllTasks(t *testing.T) {
	e := NewExecutor(4, 8)
	ctx := context.Background()

	var n atomic.Int64
	for i := 0; i < 100; i++ {
		if err := e.Submit(ctx, func() { n.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Close() // drains the queue and waits for the workers: counters are final
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
	if submitted, completed, _ := e.Stats(); submitted != 100 || completed != 100 {
		t.Fatalf("Stats = (%d, %d), want (100, 100)", submitted, completed)
	}
}

func TestExecutorParallelismBound(t *testing.T) {
	// Every task holds its worker until the gate opens: exactly `workers`
	// of them must start, and no more may run at once.
	const workers = 3
	e := NewExecutor(workers, 64)
	defer e.Close()
	ctx := context.Background()

	gate := make(chan struct{})
	started := make(chan struct{}, 50)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		err := e.Submit(ctx, func() {
			defer wg.Done()
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			started <- struct{}{}
			<-gate
			cur.Add(-1)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers; i++ {
		<-started
	}
	close(gate)
	wg.Wait()
	if got := peak.Load(); got != workers {
		t.Fatalf("peak concurrency %d, want exactly %d workers", got, workers)
	}
}

func TestExecutorSubmitWait(t *testing.T) {
	e := NewExecutor(2, 4)
	defer e.Close()
	ctx := context.Background()

	results := make([]int, 10)
	err := e.SubmitWait(ctx, len(results), func(i int) Task {
		return func() { results[i] = i * i }
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestExecutorSubmitWaitZero(t *testing.T) {
	e := NewExecutor(1, 1)
	defer e.Close()
	if err := e.SubmitWait(context.Background(), 0, nil); err != nil {
		t.Fatalf("SubmitWait(0) = %v", err)
	}
}

func TestExecutorSubmitWaitAfterClose(t *testing.T) {
	e := NewExecutor(2, 4)
	e.Close()
	err := e.SubmitWait(context.Background(), 3, func(int) Task {
		return func() { t.Error("a task of a closed executor ran") }
	})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitWait after Close = %v, want ErrClosed", err)
	}
}

func TestExecutorRunsInSubmissionOrder(t *testing.T) {
	// One worker drains the one queue first in, first out.
	e := NewExecutor(1, 64)
	var order []int
	for i := 0; i < 50; i++ {
		if err := e.Submit(context.Background(), func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	for i, v := range order {
		if v != i {
			t.Fatalf("task %d ran at position %d", v, i)
		}
	}
	if len(order) != 50 {
		t.Fatalf("ran %d tasks, want 50", len(order))
	}
}

func TestExecutorCloseDrains(t *testing.T) {
	// The worker is held inside the first task, so everything else is still
	// queued when Close fires; Close must run it all before returning.
	e := NewExecutor(1, 16)
	ctx := context.Background()
	gate := make(chan struct{})
	started := make(chan struct{})
	var n atomic.Int64
	if err := e.Submit(ctx, func() { close(started); <-gate; n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 1; i < 10; i++ {
		if err := e.Submit(ctx, func() { n.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	// Submits keep landing until Close starts; once it has, a Submit —
	// blocked on the full queue or not — returns ErrClosed.
	accepted := int64(10)
	for {
		err := e.Submit(ctx, func() { n.Add(1) })
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		accepted++
	}
	close(gate)
	<-closed
	if n.Load() != accepted {
		t.Fatalf("Close drained %d tasks, want %d", n.Load(), accepted)
	}
	if err := e.Submit(ctx, func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestExecutorSharedAcrossFeeders(t *testing.T) {
	// Multiple "aligner nodes" feed one executor concurrently — the Fig. 4
	// configuration. Each waits for its own chunk's subchunks only.
	e := NewExecutor(4, 8)
	defer e.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	for node := 0; node < 6; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			sum := make([]int64, 1)
			err := e.SubmitWait(ctx, 20, func(i int) Task {
				return func() { atomic.AddInt64(&sum[0], int64(i)) }
			})
			if err != nil {
				t.Errorf("node %d: %v", node, err)
				return
			}
			if sum[0] != 190 { // 0+1+..+19
				t.Errorf("node %d: sum = %d before SubmitWait returned, want 190", node, sum[0])
			}
		}(node)
	}
	wg.Wait()
}

func TestExecutorCloseDuringSubmits(t *testing.T) {
	// Close racing submitters on several goroutines: every Submit that
	// returned nil has its task run exactly once before Close returns, and
	// every submitter ends with ErrClosed.
	for round := 0; round < 10; round++ {
		e := NewExecutor(4, 8)
		var accepted, ran atomic.Int64
		var wg sync.WaitGroup
		landed := make(chan struct{}, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					err := e.Submit(context.Background(), func() { ran.Add(1) })
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("Submit = %v, want ErrClosed", err)
						}
						return
					}
					accepted.Add(1)
					select {
					case landed <- struct{}{}:
					default:
					}
				}
			}()
		}
		<-landed // Close while submitters are mid-stream
		e.Close()
		wg.Wait()
		if ran.Load() != accepted.Load() {
			t.Fatalf("round %d: %d tasks ran, %d Submits succeeded", round, ran.Load(), accepted.Load())
		}
	}
}

func TestExecutorSubmitWaitRacingClose(t *testing.T) {
	// SubmitWait concurrent with Close must always return — either its
	// tasks ran (pushed before the drain) or it got ErrClosed. A push
	// stranded after the workers' final drain would hang the latch forever.
	for round := 0; round < 20; round++ {
		e := NewExecutor(2, 4)
		var wg sync.WaitGroup
		waited := make(chan struct{}, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					err := e.SubmitWait(context.Background(), 3, func(int) Task { return func() {} })
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("SubmitWait = %v, want ErrClosed", err)
						}
						return
					}
					select {
					case waited <- struct{}{}:
					default:
					}
				}
			}()
		}
		<-waited // Close while batches are in flight
		e.Close()
		wg.Wait()
	}
}

// gatedBatch starts a SubmitWait of three tasks on a one-worker, one-slot
// executor whose first task blocks until gate closes. It returns once that
// task is running (the second is queued or being queued, the third blocked
// behind it), with a channel that yields SubmitWait's error and a flag set
// as the gated task returns.
func gatedBatch(t *testing.T, e *Executor, ctx context.Context, gate chan struct{}) (<-chan error, *atomic.Bool) {
	t.Helper()
	started := make(chan struct{})
	var finished atomic.Bool
	result := make(chan error, 1)
	go func() {
		result <- e.SubmitWait(ctx, 3, func(i int) Task {
			if i > 0 {
				return func() {}
			}
			return func() {
				close(started)
				<-gate
				finished.Store(true)
			}
		})
	}()
	<-started
	return result, &finished
}

// assertWaitsForGate checks that SubmitWait stays blocked while its gated
// task runs, then opens the gate and checks it returned want only after the
// task did.
func assertWaitsForGate(t *testing.T, result <-chan error, finished *atomic.Bool, gate chan struct{}, want error) {
	t.Helper()
	// A return that must not happen can only be watched for a bounded time.
	select {
	case err := <-result:
		close(gate) // let the worker finish so Close can return
		t.Fatalf("SubmitWait returned %v while one of its tasks was still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-result; !errors.Is(err, want) {
		t.Fatalf("SubmitWait = %v, want %v", err, want)
	}
	if !finished.Load() {
		t.Fatal("SubmitWait returned before its gated task")
	}
}

func TestExecutorSubmitWaitOutlivesCancel(t *testing.T) {
	e := NewExecutor(1, 1)
	defer e.Close()
	gate := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	result, finished := gatedBatch(t, e, ctx, gate)
	cancel()
	assertWaitsForGate(t, result, finished, gate, ErrStopped)
}

func TestExecutorSubmitWaitOutlivesClose(t *testing.T) {
	e := NewExecutor(1, 1)
	gate := make(chan struct{})
	result, finished := gatedBatch(t, e, context.Background(), gate)
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	assertWaitsForGate(t, result, finished, gate, ErrClosed)
	<-closed
}

func TestExecutorBusyNanosFakeClock(t *testing.T) {
	// Stats reports the time workers spend inside tasks as the clock sees
	// it: each task advances a fake clock by its index, so busy time is
	// exactly 0+1+…+9.
	e := NewExecutor(1, 4)
	defer e.Close()
	var now atomic.Int64
	e.clock = now.Load
	ctx := context.Background()

	if err := e.SubmitWait(ctx, 10, func(i int) Task { return func() { now.Add(int64(i)) } }); err != nil {
		t.Fatal(err)
	}
	submitted, completed, busy := e.Stats()
	if submitted != 10 || completed != 10 {
		t.Fatalf("Stats = (%d, %d), want (10, 10)", submitted, completed)
	}
	if busy != 45 {
		t.Fatalf("busyNanos = %d, want 45", busy)
	}
}

func TestExecutorSubmitBlocksWhenFull(t *testing.T) {
	// One worker, one slot: with the worker wedged and the slot taken, a
	// Submit cannot land — its context ending is the only way out — until
	// the worker frees the slot.
	e := NewExecutor(1, 1)
	defer e.Close()
	ctx := context.Background()
	gate := make(chan struct{})
	started := make(chan struct{})
	if err := e.Submit(ctx, func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := e.Submit(ctx, func() {}); err != nil {
		t.Fatal(err) // fills the single slot
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := e.Submit(cancelled, func() { t.Error("a task submitted to a full queue ran") }); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit to a full queue with a dead context = %v, want ErrStopped", err)
	}
	submitted := make(chan error, 1)
	go func() { submitted <- e.Submit(ctx, func() {}) }()
	close(gate)
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
}

func TestExecutorBlockedSubmitFailsOnClose(t *testing.T) {
	// A Submit blocked on the full queue returns ErrClosed once Close
	// starts; what was already queued still runs.
	e := NewExecutor(1, 1)
	ctx := context.Background()
	gate := make(chan struct{})
	started := make(chan struct{})
	var ran atomic.Int64
	if err := e.Submit(ctx, func() { close(started); <-gate; ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := e.Submit(ctx, func() { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- e.Submit(ctx, func() { t.Error("a Submit refused by Close ran") }) }()
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	if err := <-blocked; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked Submit = %v, want ErrClosed", err)
	}
	close(gate)
	<-closed
	if ran.Load() != 2 {
		t.Fatalf("Close drained %d queued tasks, want 2", ran.Load())
	}
}

func TestCompletionLatch(t *testing.T) {
	c := NewCompletion(3)
	c.Done()
	c.Done()
	select {
	case <-c.done:
		t.Fatal("latch fired before the final Done")
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Wait(ctx); !errors.Is(err, ErrStopped) {
		t.Fatalf("Wait with a dead context = %v, want ErrStopped", err)
	}
	c.Done()
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}
