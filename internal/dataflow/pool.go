package dataflow

import (
	"context"
	"sync/atomic"
)

// ItemPool is a bounded pool of recyclable items — decoded chunk objects,
// chunk builders, result arenas: anything the steady-state pipeline would
// otherwise allocate per hop (the zero-copy discipline of §4.5, §4.6: bulk
// data stays in pooled objects and only handles move between stages). The
// pool is pre-allocated, so steady-state operation allocates nothing, and
// bounded, so Get blocks once every item is checked out — the back-pressure
// that keeps a source from running unboundedly ahead of compute.
type ItemPool[T any] struct {
	free  chan T
	size  int
	reset func(T) T

	recycled atomic.Int64
}

// NewItemPool creates a pool of size items built by newItem. reset is
// applied on Put to scrub an item for reuse (it may return a different
// value, e.g. a truncated slice); nil means items are reused as-is.
func NewItemPool[T any](size int, newItem func() T, reset func(T) T) *ItemPool[T] {
	if size < 1 {
		size = 1
	}
	p := &ItemPool[T]{free: make(chan T, size), size: size, reset: reset}
	for i := 0; i < size; i++ {
		p.free <- newItem()
	}
	return p
}

// Size returns the pool's bound.
func (p *ItemPool[T]) Size() int { return p.size }

// Free returns the number of items currently available.
func (p *ItemPool[T]) Free() int { return len(p.free) }

// Recycled reports how many Put calls returned an item to the pool.
func (p *ItemPool[T]) Recycled() int64 { return p.recycled.Load() }

// Get obtains an item, blocking until one is free or ctx is cancelled.
func (p *ItemPool[T]) Get(ctx context.Context) (T, error) {
	select {
	case v := <-p.free:
		return v, nil
	case <-ctx.Done():
		var zero T
		return zero, ErrStopped
	}
}

// TryGet obtains an item without blocking.
func (p *ItemPool[T]) TryGet() (T, bool) {
	select {
	case v := <-p.free:
		return v, true
	default:
		var zero T
		return zero, false
	}
}

// Put returns an item to the pool after applying reset. Surplus items (more
// Puts than Gets) are dropped for the garbage collector.
func (p *ItemPool[T]) Put(v T) {
	if p.reset != nil {
		v = p.reset(v)
	}
	select {
	case p.free <- v:
		p.recycled.Add(1)
	default:
	}
}
