package dataflow

import (
	"context"
	"sync/atomic"
)

// ShardedItemPool is ItemPool with its free list split into per-shard
// stripes: an item checked out of stripe S is recycled onto stripe S, so
// callers that spread over the stripes (agd chunk streams use chunk index
// modulo Shards) contend less on one global free list.
//
// Capacity semantics match ItemPool: the pool holds size pre-allocated
// items, Get blocks when every item is checked out (the §4.5 back-pressure),
// and surplus Puts are dropped. The per-shard lists are a placement
// preference, not a partition — a shard that runs dry steals from its
// neighbors' lists before blocking, so sharding never deadlocks a caller
// while free items exist anywhere.
type ShardedItemPool[T any] struct {
	// locals are the per-shard hot lists; shared is the overflow list that
	// also serves shard-less callers.
	locals []chan T
	shared chan T
	// notify carries one wake token per Put (capacity size, so a token is
	// only ever dropped when enough re-sweeps are already pending): blocked
	// getters consume a token and re-sweep every list, which closes the race
	// where an item lands on another shard's list after a getter's sweep.
	notify chan struct{}
	size   int
	reset  func(T) T

	recycled  atomic.Int64
	localHits atomic.Int64
}

// NewShardedItemPool creates a pool of size items built by newItem, spread
// over shards free lists (seeded round-robin so first Gets hit warm lists).
// reset is applied on Put, as in NewItemPool.
func NewShardedItemPool[T any](shards, size int, newItem func() T, reset func(T) T) *ShardedItemPool[T] {
	if shards < 1 {
		shards = 1
	}
	if size < 1 {
		size = 1
	}
	localCap := (size + shards - 1) / shards
	p := &ShardedItemPool[T]{
		locals: make([]chan T, shards),
		shared: make(chan T, size),
		notify: make(chan struct{}, size),
		size:   size,
		reset:  reset,
	}
	for i := range p.locals {
		p.locals[i] = make(chan T, localCap)
	}
	for i := 0; i < size; i++ {
		v := newItem()
		select {
		case p.locals[i%shards] <- v:
		default:
			p.shared <- v
		}
	}
	return p
}

// Shards returns the number of per-shard free lists.
func (p *ShardedItemPool[T]) Shards() int { return len(p.locals) }

// Size returns the pool's bound.
func (p *ShardedItemPool[T]) Size() int { return p.size }

// Free returns the number of items currently available across all lists.
func (p *ShardedItemPool[T]) Free() int {
	n := len(p.shared)
	for _, l := range p.locals {
		n += len(l)
	}
	return n
}

// Recycled reports how many Put calls returned an item to the pool.
func (p *ShardedItemPool[T]) Recycled() int64 { return p.recycled.Load() }

// LocalHits reports how many Gets were served by the caller's own shard
// list — the affinity hit rate.
func (p *ShardedItemPool[T]) LocalHits() int64 { return p.localHits.Load() }

func (p *ShardedItemPool[T]) clamp(shard int) int {
	if shard < 0 {
		return 0
	}
	return shard % len(p.locals)
}

// sweep tries every list once without blocking.
func (p *ShardedItemPool[T]) sweep(shard int) (T, bool) {
	select {
	case v := <-p.locals[shard]:
		p.localHits.Add(1)
		return v, true
	default:
	}
	select {
	case v := <-p.shared:
		return v, true
	default:
	}
	for i := range p.locals {
		if i == shard {
			continue
		}
		select {
		case v := <-p.locals[i]:
			return v, true
		default:
		}
	}
	var zero T
	return zero, false
}

// Get obtains an item, preferring the shard's own free list, then the shared
// list, then stealing from other shards, blocking until an item is free or
// ctx is cancelled.
func (p *ShardedItemPool[T]) Get(ctx context.Context, shard int) (T, error) {
	shard = p.clamp(shard)
	for {
		if v, ok := p.sweep(shard); ok {
			return v, nil
		}
		select {
		case <-p.notify:
		case <-ctx.Done():
			var zero T
			return zero, ErrStopped
		}
	}
}

// TryGet obtains an item without blocking.
func (p *ShardedItemPool[T]) TryGet(shard int) (T, bool) {
	return p.sweep(p.clamp(shard))
}

// Put returns an item to the shard's free list (overflowing to the shared
// list) after applying reset. Surplus items are dropped for the garbage
// collector, as in ItemPool.
func (p *ShardedItemPool[T]) Put(shard int, v T) {
	if p.reset != nil {
		v = p.reset(v)
	}
	shard = p.clamp(shard)
	select {
	case p.locals[shard] <- v:
	default:
		select {
		case p.shared <- v:
		default:
			return // surplus: drop without waking anyone
		}
	}
	p.recycled.Add(1)
	select {
	case p.notify <- struct{}{}:
	default:
	}
}
