package dataflow

import (
	"context"
	"sync"
	"sync/atomic"
)

// Task is a unit of fine-grain work submitted to an Executor, typically the
// alignment of one subchunk of reads into a designated region of an output
// buffer.
type Task func()

// taskItem is one queued unit. done, when non-nil, is counted down after the
// task runs — carrying the latch in the item (instead of a wrapper closure)
// keeps SubmitWait's per-task cost to the task closure itself.
type taskItem struct {
	fn   Task
	done *Completion
}

// Executor is the shared fine-grain executor of Fig. 4: AGD chunks are too
// coarse for per-thread work items, so nodes split chunks into subchunks and
// feed the tasks to one pool of compute threads. It is a fixed set of worker
// goroutines draining one bounded task queue in submission order.
type Executor struct {
	tasks   chan taskItem
	workers int

	closeOnce sync.Once
	done      chan struct{} // closed when Close starts: blocked submitters give up
	wg        sync.WaitGroup
	// closeMu orders sends against Close closing the queue: a send made
	// under the read lock lands before the queue closes, so the workers'
	// drain always sees it — no task can be stranded (and no Completion
	// latch hung) by a Submit racing Close.
	closeMu sync.RWMutex

	submitted atomic.Int64
	completed atomic.Int64
	busyNanos atomic.Int64
	clock     func() int64 // monotonic-ish nanosecond clock, swappable for tests
}

// NewExecutor starts workers worker goroutines over a task queue of
// capacity queueDepth (at least one slot per worker). Workers run until
// Close is called.
func NewExecutor(workers, queueDepth int) *Executor {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < workers {
		queueDepth = workers
	}
	e := &Executor{
		tasks:   make(chan taskItem, queueDepth),
		workers: workers,
		done:    make(chan struct{}),
		clock:   nanotime,
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// worker runs queued tasks until Close has closed the queue and it is empty.
func (e *Executor) worker() {
	defer e.wg.Done()
	for t := range e.tasks {
		e.run(t)
	}
}

// run executes one task, counting its busy time and completion before the
// task's latch (if any) is released.
func (e *Executor) run(t taskItem) {
	if t.done != nil {
		defer t.done.Done()
	}
	start := e.clock()
	t.fn()
	e.busyNanos.Add(e.clock() - start)
	e.completed.Add(1)
}

// Workers returns the number of worker goroutines.
func (e *Executor) Workers() int { return e.workers }

// NumShards returns Workers. Nothing is placed by shard; the name stays only
// because bench/ compiles against it.
func (e *Executor) NumShards() int { return e.workers }

// submit enqueues one task, blocking while the queue is full. The read lock
// is held across the blocking send; Close closes done before it asks for
// the write lock, so a blocked sender always lets go.
func (e *Executor) submit(ctx context.Context, t taskItem) error {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	select {
	case <-e.done:
		return ErrClosed // the queue may be closed: a send would panic
	default:
	}
	select {
	case e.tasks <- t:
	case <-e.done:
		return ErrClosed
	case <-ctx.Done():
		return ErrStopped
	}
	e.submitted.Add(1)
	return nil
}

// Submit enqueues a task, blocking while the queue is full. It returns
// ErrClosed after Close and ErrStopped if ctx is cancelled first.
func (e *Executor) Submit(ctx context.Context, t Task) error {
	return e.submit(ctx, taskItem{fn: t})
}

// SubmitWait splits work into n tasks produced by gen and blocks until all
// of them have completed (the "originating aligner node is notified" step of
// Fig. 4). gen is called with subchunk indices 0..n-1, in order. When ctx
// ends or Close interrupts the batch, the rest of it is not submitted and
// SubmitWait returns ErrStopped or ErrClosed — but only after every task it
// did submit has returned, so a task never outlives the caller's use of the
// memory it touches.
func (e *Executor) SubmitWait(ctx context.Context, n int, gen func(i int) Task) error {
	if n <= 0 {
		return nil
	}
	c := NewCompletion(n)
	var err error
	for i := 0; i < n; i++ {
		if err = e.submit(ctx, taskItem{fn: gen(i), done: c}); err != nil {
			// Account for the tasks never submitted so the latch can fire.
			for j := i; j < n; j++ {
				c.Done()
			}
			break
		}
	}
	// Submitted tasks always run (Close drains the queue), so this wait ends.
	<-c.done
	return err
}

// Close shuts the executor down after draining already-queued tasks, and
// waits for the workers to exit. Close is idempotent. A Submit racing Close
// either lands before the drain (its task runs) or fails with ErrClosed —
// never a silently dropped task.
func (e *Executor) Close() {
	e.closeOnce.Do(func() {
		close(e.done)
		e.closeMu.Lock()
		close(e.tasks)
		e.closeMu.Unlock()
	})
	e.wg.Wait()
}

// Stats reports tasks submitted, tasks completed, and cumulative busy
// nanoseconds across all workers.
func (e *Executor) Stats() (submitted, completed, busyNanos int64) {
	return e.submitted.Load(), e.completed.Load(), e.busyNanos.Load()
}

// Completion is a countdown latch used to signal that all subchunks of a
// chunk have been processed.
type Completion struct {
	remaining atomic.Int64
	done      chan struct{}
}

// NewCompletion returns a latch that fires after n calls to Done.
func NewCompletion(n int) *Completion {
	c := &Completion{done: make(chan struct{})}
	c.remaining.Store(int64(n))
	if n <= 0 {
		close(c.done)
	}
	return c
}

// Done records one completed unit; the final call releases waiters.
func (c *Completion) Done() {
	if c.remaining.Add(-1) == 0 {
		close(c.done)
	}
}

// Wait blocks until the latch fires or ctx is cancelled.
func (c *Completion) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		return ErrStopped
	}
}
