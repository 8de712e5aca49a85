package dataflow

import (
	"context"
	"errors"
	"sync"
)

// This file schedules pumps: the stage-driving loops of a pumped pipeline.
// A pump spends most of its life blocked — on a bounded edge at depth, on an
// empty upstream edge, on an exhausted buffer pool — so pumps are dedicated
// goroutines, not executor tasks: parking a blocked pump on one of the
// executor's fixed workers would starve the fine-grain subchunk tasks the
// stages themselves submit (with #pumps ≥ #workers the graph deadlocks
// outright). The Go scheduler parks blocked pumps for free; the executor
// keeps doing what it is good at — running short CPU-bound tasks.

// Pumps runs a set of pumps over one shared derived context. The first pump
// failure cancels the context so every sibling unwinds; Wait blocks until
// all pumps have exited and returns that first failure. The zero value is
// not usable — construct with NewPumps.
type Pumps struct {
	parent context.Context
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu  sync.Mutex
	err error
}

// NewPumps prepares a pump set under a parent context: cancelling the parent
// cancels every pump.
func NewPumps(parent context.Context) *Pumps {
	ctx, cancel := context.WithCancel(parent)
	return &Pumps{parent: parent, ctx: ctx, cancel: cancel}
}

// Context returns the shared pump context. Edge watchers hang off it so
// condition-variable waits (which cannot select on a context) still unwind
// on cancellation.
func (p *Pumps) Context() context.Context { return p.ctx }

// Go starts one pump. fn receives the shared context; returning a non-nil
// error records it (first failure wins) and cancels the siblings. Clean
// EOF-driven exits return nil.
func (p *Pumps) Go(fn func(ctx context.Context) error) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if err := fn(p.ctx); err != nil {
			p.fail(err)
		}
	}()
}

// Fail injects a failure from outside the pump set — e.g. the sink loop,
// which runs on the caller's goroutine but participates in the same
// first-error teardown.
func (p *Pumps) Fail(err error) {
	if err != nil {
		p.fail(err)
	}
}

func (p *Pumps) fail(err error) {
	p.mu.Lock()
	// First failure wins, except that a real error displaces a bare
	// cancellation: when teardown races, the pump that saw ctx.Err() may
	// report before the pump holding the root cause.
	if p.err == nil || (isCtxErr(p.err) && !isCtxErr(err)) {
		p.err = err
	}
	p.mu.Unlock()
	p.cancel()
}

// isCtxErr reports whether err is how a dead context shows, rather than a
// failure of its own: the context's error, or ErrStopped from a pool Get or
// executor Submit the context's death abandoned.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrStopped)
}

// Wait blocks until every pump has exited, cancels the shared context (so a
// clean run releases its watcher resources) and returns the first recorded
// failure, nil for a clean run. When the parent context ended and no pump
// has anything worse to report, the failure is the parent's error itself,
// whichever symptom of it a pump happened to see first.
func (p *Pumps) Wait() error {
	p.wg.Wait()
	p.cancel()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil && isCtxErr(p.err) && p.parent.Err() != nil {
		return p.parent.Err()
	}
	return p.err
}
