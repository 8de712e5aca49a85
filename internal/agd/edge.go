package agd

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"persona/internal/dataflow"
)

// This file is the pumped half of the stage-to-stage dataflow: a bounded
// queue of row groups layered on the GroupStream edge, so stage N+1 can
// consume chunk k−1 while stage N produces chunk k. Depth bounds memory
// (groups in flight across the graph ≤ Σ edge depths plus one in hand per
// stage) and is the back-pressure valve: a producer ahead of its consumer
// blocks in Push instead of buffering unboundedly (§4.5's bounded queues).

// ErrEdgeClosed is returned by Push after the consumer has closed its side
// of the edge: the producer should stop — its output can no longer go
// anywhere — but has itself done nothing wrong.
var ErrEdgeClosed = errors.New("agd: edge closed by consumer")

// BoundedEdge is a bounded FIFO of row groups between a producing pump and a
// consuming stage. One producer; Pop is one critical section, so an edge
// drained from several goroutines hands each group to exactly one. Either
// side may close, and anyone may Fail the edge
// (the cancellation watcher does). Every queued
// group is release-owned: on failure or consumer close the edge drains and
// releases them, so recycled chunks and builder sets go back instead of
// leaking under a dead pipeline.
//
// The edge is a mutex + condition variable rather than a channel: draining a
// channel race-free against a concurrent send is not possible (a group can
// land in the buffer after the drain loop exits), and failure must release
// queued groups exactly once.
type BoundedEdge struct {
	mu   sync.Mutex
	cond *sync.Cond

	queue      []*RowGroup
	depth      int
	sendClosed bool
	recvClosed bool
	err        error // sticky first failure; queue is empty once set

	peak       int
	pushWaitNs int64
	popWaitNs  int64
}

// NewBoundedEdge creates an edge holding at most depth groups (minimum 1).
func NewBoundedEdge(depth int) *BoundedEdge {
	if depth < 1 {
		depth = 1
	}
	e := &BoundedEdge{depth: depth, queue: make([]*RowGroup, 0, depth)}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Push queues a group for the consumer, blocking while the edge is full. On
// a failed or closed edge the group is released on the caller's behalf and
// the edge error returned (ErrEdgeClosed for a clean consumer close) — the
// producer should stop pumping. Push never blocks on a dead edge.
func (e *BoundedEdge) Push(g *RowGroup) error {
	e.mu.Lock()
	if len(e.queue) >= e.depth && e.err == nil && !e.recvClosed && !e.sendClosed {
		t0 := time.Now()
		for len(e.queue) >= e.depth && e.err == nil && !e.recvClosed && !e.sendClosed {
			e.cond.Wait()
		}
		e.pushWaitNs += time.Since(t0).Nanoseconds()
	}
	if e.err != nil || e.recvClosed || e.sendClosed {
		err := e.err
		e.mu.Unlock()
		g.Release()
		if err != nil {
			return err
		}
		return ErrEdgeClosed
	}
	e.queue = append(e.queue, g)
	if len(e.queue) > e.peak {
		e.peak = len(e.queue)
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	return nil
}

// Pop dequeues the next group in row order. After a clean CloseSend the
// remaining queue drains first, then Pop returns io.EOF; after a failure the
// error is delivered immediately (the queue was already drained and
// released). Pop blocks on an empty live edge — cancellation reaches it via
// Fail, typically from the pipeline's context watcher.
func (e *BoundedEdge) Pop() (*RowGroup, error) {
	e.mu.Lock()
	if len(e.queue) == 0 && e.err == nil && !e.sendClosed && !e.recvClosed {
		t0 := time.Now()
		for len(e.queue) == 0 && e.err == nil && !e.sendClosed && !e.recvClosed {
			e.cond.Wait()
		}
		e.popWaitNs += time.Since(t0).Nanoseconds()
	}
	if e.err != nil {
		err := e.err
		e.mu.Unlock()
		return nil, err
	}
	if len(e.queue) > 0 {
		g := e.queue[0]
		copy(e.queue, e.queue[1:])
		e.queue = e.queue[:len(e.queue)-1]
		e.cond.Broadcast()
		e.mu.Unlock()
		return g, nil
	}
	e.mu.Unlock()
	return nil, io.EOF
}

// CloseSend marks the producer finished. A nil err lets the consumer drain
// the queue and then see io.EOF; a non-nil err fails the edge: queued groups
// are released and the consumer's next Pop returns err without draining.
// Idempotent; only the first failure sticks.
func (e *BoundedEdge) CloseSend(err error) {
	e.mu.Lock()
	var drained []*RowGroup
	if err != nil && e.err == nil {
		e.err = err
		drained = e.takeQueueLocked()
	}
	e.sendClosed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	releaseAll(drained)
}

// CloseRecv marks the consumer gone: queued groups are drained and released
// (returning their chunks and builder sets, which unblocks a producer
// waiting on its builder pool) and
// subsequent Pushes fail with ErrEdgeClosed. Idempotent.
func (e *BoundedEdge) CloseRecv() {
	e.mu.Lock()
	e.recvClosed = true
	drained := e.takeQueueLocked()
	e.cond.Broadcast()
	e.mu.Unlock()
	releaseAll(drained)
}

// Fail poisons the edge from outside the producer/consumer pair — the
// pipeline's cancellation watcher fails every edge when the run context is
// cancelled, since a condition-variable wait cannot select on a context.
// Queued groups are released; both sides wake with err. The first failure
// sticks.
func (e *BoundedEdge) Fail(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	var drained []*RowGroup
	if e.err == nil {
		e.err = err
		drained = e.takeQueueLocked()
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	releaseAll(drained)
}

// takeQueueLocked empties the queue for release outside the lock (release
// hooks return chunks to pools; keeping them out from under the edge mutex
// avoids ordering the edge against every pool's internals).
func (e *BoundedEdge) takeQueueLocked() []*RowGroup {
	if len(e.queue) == 0 {
		return nil
	}
	drained := make([]*RowGroup, len(e.queue))
	copy(drained, e.queue)
	e.queue = e.queue[:0]
	return drained
}

func releaseAll(groups []*RowGroup) {
	for _, g := range groups {
		g.Release()
	}
}

// PeakDepth reports the deepest the queue ever got — how much of the edge's
// buffer the stage pair actually used.
func (e *BoundedEdge) PeakDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.peak
}

// PushWait reports cumulative producer time blocked on a full edge, PopWait
// cumulative consumer time blocked on an empty one — the raw material for
// per-stage busy-vs-blocked attribution.
func (e *BoundedEdge) PushWait() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return time.Duration(e.pushWaitNs)
}

// PopWait reports cumulative consumer time blocked on an empty edge.
func (e *BoundedEdge) PopWait() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return time.Duration(e.popWaitNs)
}

// Stream wraps the consumer side as a GroupStream, so an unchanged stage
// form can sit downstream of a pumped edge through the ordinary pull
// interface. Closing the stream closes the receive side (draining and
// releasing queued groups).
func (e *BoundedEdge) Stream(meta StreamMeta) *GroupStream {
	return NewGroupStream(meta, func(ctx context.Context) (*RowGroup, error) {
		return e.Pop()
	}, e.CloseRecv)
}

// RunPump drains a stage's output stream into an edge until EOF or failure:
// the body of one pump goroutine. Every group stays valid until its Release,
// so groups are queued as they are. On return the edge's send side is closed
// with the stage's error (nil for clean EOF), propagating downstream, and the
// source stream is closed, propagating teardown upstream.
//
// The returned duration is total wall spent inside src.Next — stage
// production plus time blocked on the stage's own upstream edge; callers
// split those with that edge's PopWait.
func RunPump(ctx context.Context, src *GroupStream, edge *BoundedEdge) (time.Duration, error) {
	var produce time.Duration
	var pumpErr error
	for {
		t0 := time.Now()
		g, err := src.Next(ctx)
		produce += time.Since(t0)
		if err == io.EOF {
			break
		}
		if err != nil {
			pumpErr = err
			break
		}
		if err := edge.Push(g); err != nil {
			// The edge died under us: the consumer closed (its own pump
			// reports the root cause) or a watcher failed it. Either way
			// this stage has nothing to report unless the error is real.
			if !errors.Is(err, ErrEdgeClosed) {
				pumpErr = err
			}
			break
		}
	}
	edge.CloseSend(pumpErr)
	src.Close()
	return produce, pumpErr
}

// PumpEdge starts a pump of the set draining src into a new edge of the given
// depth, and returns the edge for the consuming stage. Edge waits cannot
// select on a context, so the edge is failed when the set's context ends —
// the caller cancelled, a sibling pump failed, or Wait returned — which wakes
// both of its sides.
func PumpEdge(pumps *dataflow.Pumps, src *GroupStream, depth int) *BoundedEdge {
	edge := NewBoundedEdge(depth)
	context.AfterFunc(pumps.Context(), func() {
		edge.Fail(context.Cause(pumps.Context()))
	})
	pumps.Go(func(ctx context.Context) error {
		_, err := RunPump(ctx, src, edge)
		return err
	})
	return edge
}
