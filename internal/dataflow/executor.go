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

// ShardTask is a Task that is told which shard's worker ran it, so the task
// can check pooled resources out of (and back into) that shard's free lists.
// A stolen task receives the thief's shard, not the shard it was submitted
// to — the point of the handoff is that recycled buffers stay in the cache
// of the core that actually touched them.
type ShardTask func(shard int)

// taskItem is one queued unit: exactly one of fn/sfn is set. done, when
// non-nil, is counted down after the task runs — carrying the latch in the
// item (instead of a wrapper closure) keeps SubmitWait's per-task cost to
// the task closure itself.
type taskItem struct {
	fn   Task
	sfn  ShardTask
	done *Completion
}

// Executor owns a fixed set of worker goroutines, one per shard, each with a
// bounded local deque. It implements the mechanism of Fig. 4 — AGD chunks
// are too coarse for per-thread work items, so nodes split chunks into
// subchunks and feed fine-grain tasks to one shared executor — extended with
// the NUMA-style sharding the ROADMAP asks for: tasks submitted to a shard
// run LIFO on that shard's worker (the just-decoded chunk is still hot in
// its cache), and a worker whose deque runs dry steals FIFO from a random
// victim, so no core idles while any shard has queued work.
type Executor struct {
	shards []*shard

	// stealWake invites parked workers to scan for stealable work. It is
	// buffered to len(shards) tokens: a push that finds the owner already
	// notified adds a token here, and a parked worker consuming any token
	// re-scans every shard before parking again, so queued work is never
	// stranded.
	stealWake chan struct{}
	// spaceWake wakes submitters blocked on full deques; every pop that
	// frees a slot adds a token.
	spaceWake chan struct{}

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
	// closeMu orders pushes against Close: a push that succeeds under the
	// read lock is in a deque before Close (write lock) fires done, so the
	// workers' final drain sweeps always see it — no task can be stranded
	// (and no Completion latch hung) by a Submit racing Close.
	closeMu sync.RWMutex
	closed  bool

	rr    atomic.Uint32 // round-robin cursor for affinity-free Submit
	clock func() int64  // monotonic-ish nanosecond clock, swappable for tests
}

// shard is one worker's slice of the executor: a bounded ring-buffer deque
// (local LIFO pop at the tail, FIFO steal at the head) plus its stat
// counters.
type shard struct {
	id int

	mu   sync.Mutex
	ring []taskItem
	head int // index of the oldest queued task
	n    int // queued task count

	// wake is the owner's parking token (capacity 1): a push to this shard
	// sets it so the idle owner runs its own work before any thief sees it.
	wake chan struct{}
	// parked is true while the owner is blocked waiting for work; a push
	// that finds the owner running (not parked) also invites a thief, so a
	// task never waits out the owner's current task while other workers
	// idle.
	parked atomic.Bool

	submitted atomic.Int64 // tasks enqueued to this shard
	completed atomic.Int64 // tasks run by this shard's worker
	busyNanos atomic.Int64 // time this shard's worker spent inside tasks
	steals    atomic.Int64 // tasks this shard's worker stole from others
}

// push enqueues a task; it reports false when the deque is full.
func (s *shard) push(t taskItem) bool {
	s.mu.Lock()
	if s.n == len(s.ring) {
		s.mu.Unlock()
		return false
	}
	s.ring[(s.head+s.n)%len(s.ring)] = t
	s.n++
	s.mu.Unlock()
	s.submitted.Add(1)
	return true
}

// popLocal removes the newest task (LIFO): the task whose chunk data the
// owner most recently touched.
func (s *shard) popLocal() (taskItem, bool) {
	s.mu.Lock()
	if s.n == 0 {
		s.mu.Unlock()
		return taskItem{}, false
	}
	s.n--
	i := (s.head + s.n) % len(s.ring)
	t := s.ring[i]
	s.ring[i] = taskItem{}
	s.mu.Unlock()
	return t, true
}

// popSteal removes the oldest task (FIFO): thieves take the work the owner
// is furthest from touching, which is also the fair draining order.
func (s *shard) popSteal() (taskItem, bool) {
	s.mu.Lock()
	if s.n == 0 {
		s.mu.Unlock()
		return taskItem{}, false
	}
	t := s.ring[s.head]
	s.ring[s.head] = taskItem{}
	s.head = (s.head + 1) % len(s.ring)
	s.n--
	s.mu.Unlock()
	return t, true
}

// NewExecutor starts an executor with one worker goroutine (and one shard)
// per worker, splitting queueDepth across the shards' local deques. Workers
// run until Close is called.
func NewExecutor(workers, queueDepth int) *Executor {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < workers {
		queueDepth = workers
	}
	perShard := (queueDepth + workers - 1) / workers
	e := &Executor{
		shards:    make([]*shard, workers),
		stealWake: make(chan struct{}, workers),
		spaceWake: make(chan struct{}, workers),
		done:      make(chan struct{}),
		clock:     nanotime,
	}
	for i := range e.shards {
		e.shards[i] = &shard{
			id:   i,
			ring: make([]taskItem, perShard),
			wake: make(chan struct{}, 1),
		}
	}
	e.wg.Add(workers)
	for i := range e.shards {
		go e.worker(e.shards[i])
	}
	return e
}

// notify wakes the shard's owner after a push. A thief is invited too
// unless the owner is parked and freshly tokened — a parked owner will run
// the task itself (preserving idle-shard affinity), but an owner that is
// mid-task must not strand the push while other workers idle. All sends are
// non-blocking: when the steal channel is saturated, enough re-scans are
// already pending to find every queued task.
func (e *Executor) notify(s *shard) {
	ownerTokened := false
	select {
	case s.wake <- struct{}{}:
		ownerTokened = true
	default:
	}
	if ownerTokened && s.parked.Load() {
		return
	}
	select {
	case e.stealWake <- struct{}{}:
	default:
	}
}

// freedSpace wakes one submitter blocked on full deques.
func (e *Executor) freedSpace() {
	select {
	case e.spaceWake <- struct{}{}:
	default:
	}
}

// worker runs the shard's loop: local LIFO work first, then a randomized
// steal sweep, then park until notified. After Close it keeps draining —
// local queue and victims alike — and exits once a full sweep finds nothing.
func (e *Executor) worker(s *shard) {
	defer e.wg.Done()
	// Cheap per-worker xorshift so concurrent thieves don't contend on a
	// shared RNG and don't all start their sweeps at the same victim.
	rng := uint64(s.id)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	nextRand := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for {
		t, ok := s.popLocal()
		if ok {
			// This pop services any pending owner wakeup: draining the
			// token here keeps it meaning "owner needs waking", so a push
			// while the owner is actively popping re-arms the token
			// instead of needlessly inviting a thief.
			select {
			case <-s.wake:
			default:
			}
		} else {
			t, ok = e.steal(s, nextRand())
		}
		if ok {
			e.freedSpace()
			e.run(s, t)
			continue
		}
		// Publish parked before blocking: a push that reads it false while
		// the owner is still sweeping is harmless (the sweep finds the
		// task or the owner parks and consumes the push's token).
		s.parked.Store(true)
		select {
		case <-s.wake:
			s.parked.Store(false)
		case <-e.stealWake:
			s.parked.Store(false)
		case <-e.done:
			s.parked.Store(false)
			// Drain: anything pushed before Close is visible to this
			// final sweep (the push happened under the shard mutex).
			for {
				t, ok := s.popLocal()
				if !ok {
					t, ok = e.steal(s, nextRand())
				}
				if !ok {
					return
				}
				e.freedSpace()
				e.run(s, t)
			}
		}
	}
}

// steal scans every other shard starting at a random victim, taking the
// oldest task of the first non-empty deque.
func (e *Executor) steal(thief *shard, seed uint64) (taskItem, bool) {
	n := len(e.shards)
	if n == 1 {
		return taskItem{}, false
	}
	start := int(seed % uint64(n))
	for i := 0; i < n; i++ {
		victim := e.shards[(start+i)%n]
		if victim == thief {
			continue
		}
		if t, ok := victim.popSteal(); ok {
			thief.steals.Add(1)
			return t, true
		}
	}
	return taskItem{}, false
}

// run executes one task on shard s, attributing busy time and completion to
// the shard that actually ran it.
func (e *Executor) run(s *shard, t taskItem) {
	if t.done != nil {
		defer t.done.Done()
	}
	start := e.clock()
	if t.sfn != nil {
		t.sfn(s.id)
	} else {
		t.fn()
	}
	s.busyNanos.Add(e.clock() - start)
	s.completed.Add(1)
}

// Workers returns the number of worker goroutines.
func (e *Executor) Workers() int { return len(e.shards) }

// NumShards returns the number of shards (equal to Workers; each worker owns
// one shard's deque and free-list affinity).
func (e *Executor) NumShards() int { return len(e.shards) }

// tryPush attempts one push under the close read-lock, so it can never
// land a task in a deque the workers have already finished draining.
func (e *Executor) tryPush(s *shard, t taskItem) (pushed, closed bool) {
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return false, true
	}
	pushed = s.push(t)
	e.closeMu.RUnlock()
	if pushed {
		e.notify(s)
	}
	return pushed, false
}

// submitItem places a task, preferring the given shard, spilling to the
// other shards when it is full, and blocking while every deque is full. A
// negative shard means no affinity (round-robin).
func (e *Executor) submitItem(ctx context.Context, preferred int, t taskItem) error {
	n := len(e.shards)
	if preferred < 0 {
		preferred = int(e.rr.Add(1)-1) % n
	} else {
		preferred %= n
	}
	for {
		for i := 0; i < n; i++ {
			pushed, closed := e.tryPush(e.shards[(preferred+i)%n], t)
			if closed {
				return ErrClosed
			}
			if pushed {
				return nil
			}
		}
		select {
		case <-e.spaceWake:
		case <-e.done:
			return ErrClosed
		case <-ctx.Done():
			return ErrStopped
		}
	}
}

// Submit enqueues a task on a round-robin shard, blocking while every deque
// is full. It returns ErrClosed after Close and ErrStopped if ctx is
// cancelled first.
func (e *Executor) Submit(ctx context.Context, t Task) error {
	return e.submitItem(ctx, -1, taskItem{fn: t})
}

// SubmitTo enqueues a task with shard affinity: it lands on the given
// shard's deque (modulo the shard count) so the shard's worker pops it LIFO
// while the data it touches is still cache-hot. Affinity is advisory — a
// full deque spills to a neighbor and idle workers may steal — so SubmitTo
// never trades deadlock for locality.
func (e *Executor) SubmitTo(ctx context.Context, shard int, t Task) error {
	return e.submitItem(ctx, shard, taskItem{fn: t})
}

// SubmitSharded is SubmitTo for tasks that want to know which shard's worker
// ran them (e.g. to recycle pooled buffers into that shard's free list).
func (e *Executor) SubmitSharded(ctx context.Context, shard int, t ShardTask) error {
	return e.submitItem(ctx, shard, taskItem{sfn: t})
}

// SubmitWait splits work into n tasks produced by gen and blocks until all
// of them have completed (the "originating aligner node is notified" step of
// Fig. 4). gen is called with subchunk indices 0..n-1.
func (e *Executor) SubmitWait(ctx context.Context, n int, gen func(i int) Task) error {
	if n <= 0 {
		return nil
	}
	c := NewCompletion(n)
	for i := 0; i < n; i++ {
		if err := e.submitItem(ctx, -1, taskItem{fn: gen(i), done: c}); err != nil {
			// Account for tasks never submitted so Wait can still return.
			for j := i; j < n; j++ {
				c.Done()
			}
			return err
		}
	}
	return c.Wait(ctx)
}

// SubmitWaitTo is SubmitWait with shard affinity: all n tasks are enqueued
// on the given shard, so the shard's owner runs them cache-hot while idle
// shards steal the tail of the batch. Each task receives the shard that
// actually ran it.
func (e *Executor) SubmitWaitTo(ctx context.Context, shard, n int, gen func(i int) ShardTask) error {
	if n <= 0 {
		return nil
	}
	c := NewCompletion(n)
	for i := 0; i < n; i++ {
		if err := e.submitItem(ctx, shard, taskItem{sfn: gen(i), done: c}); err != nil {
			for j := i; j < n; j++ {
				c.Done()
			}
			return err
		}
	}
	return c.Wait(ctx)
}

// Close shuts the executor down after draining already-queued tasks, and
// waits for the workers to exit. Close is idempotent. A Submit racing Close
// either lands before the drain (its task runs) or fails with ErrClosed —
// never a silently dropped task.
func (e *Executor) Close() {
	e.closeOnce.Do(func() {
		e.closeMu.Lock()
		e.closed = true
		close(e.done)
		e.closeMu.Unlock()
	})
	e.wg.Wait()
}

// Stats reports tasks submitted, tasks completed, and cumulative busy
// nanoseconds aggregated across all shards. Per-shard attribution (the
// busyNanos undercount the single global counters had once tasks run on
// multiple shards) lives in ShardStats.
func (e *Executor) Stats() (submitted, completed, busyNanos int64) {
	for _, s := range e.shards {
		submitted += s.submitted.Load()
		completed += s.completed.Load()
		busyNanos += s.busyNanos.Load()
	}
	return submitted, completed, busyNanos
}

// ShardStat is one shard's counter snapshot.
type ShardStat struct {
	Shard     int
	Submitted int64 // tasks enqueued to this shard's deque
	Completed int64 // tasks run by this shard's worker (local + stolen)
	BusyNanos int64 // time the worker spent inside tasks
	Steals    int64 // tasks the worker took from other shards' deques
}

// ShardStats returns a per-shard snapshot. Summing Steals over shards and
// dividing by completed tasks gives the steal ratio PERF.md reports: how
// much of the executor's throughput came from load balancing rather than
// affinity.
func (e *Executor) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.shards))
	for i, s := range e.shards {
		out[i] = ShardStat{
			Shard:     i,
			Submitted: s.submitted.Load(),
			Completed: s.completed.Load(),
			BusyNanos: s.busyNanos.Load(),
			Steals:    s.steals.Load(),
		}
	}
	return out
}

// Steals returns the total number of stolen tasks across all shards.
func (e *Executor) Steals() int64 {
	var n int64
	for _, s := range e.shards {
		n += s.steals.Load()
	}
	return n
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
