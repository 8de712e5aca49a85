package dataflow

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestShardedItemPoolAffinity(t *testing.T) {
	p := NewShardedItemPool(2, 4, func() *int { v := new(int); return v }, nil)
	ctx := context.Background()

	// Drain shard 0's seeded list (size 4 over 2 shards = 2 per list), then
	// recycle one item: it must come back from shard 0's own list.
	v, err := p.Get(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := p.Get(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(0, v)
	got, err := p.Get(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatal("shard 0 did not get its own recycled item back")
	}
	if p.LocalHits() < 1 {
		t.Fatalf("LocalHits = %d, want >= 1", p.LocalHits())
	}
	p.Put(0, got)
	p.Put(0, v2)
	if p.Free() != 4 {
		t.Fatalf("Free = %d, want 4", p.Free())
	}
}

func TestShardedItemPoolStealsAcrossShards(t *testing.T) {
	// One item total, seeded on shard 0's list: a Get on shard 1 must find
	// it rather than block.
	p := NewShardedItemPool(2, 1, func() int { return 7 }, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	v, err := p.Get(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("got %d, want 7", v)
	}
}

func TestShardedItemPoolWakesCrossShardPut(t *testing.T) {
	// The lost-wakeup regression: a getter blocked on shard 0 must wake
	// when the item is Put back onto shard 1's local list.
	p := NewShardedItemPool(2, 1, func() int { return 1 }, nil)
	ctx := context.Background()
	v, err := p.Get(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan int, 1)
	go func() {
		v, err := p.Get(ctx, 0)
		if err != nil {
			t.Error(err)
			return
		}
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("Get returned while the pool was exhausted")
	case <-time.After(20 * time.Millisecond):
	}

	p.Put(1, v) // lands on the OTHER shard's list
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Get never saw the cross-shard Put")
	}
}

func TestShardedItemPoolGetCancels(t *testing.T) {
	p := NewShardedItemPool(2, 1, func() int { return 1 }, nil)
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := p.Get(ctx, 0); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := p.Get(ctx, 1); err == nil {
		t.Fatal("Get on cancelled context succeeded")
	}
}

func TestShardedItemPoolReset(t *testing.T) {
	p := NewShardedItemPool(2, 2,
		func() []byte { return make([]byte, 0, 8) },
		func(b []byte) []byte { return b[:0] },
	)
	ctx := context.Background()
	b, err := p.Get(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, 1, 2, 3)
	p.Put(0, b)
	b2, err := p.Get(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2) != 0 {
		t.Fatalf("recycled item not reset: len=%d", len(b2))
	}
}

func TestShardedItemPoolConcurrentChurn(t *testing.T) {
	const shards, size = 4, 8
	p := NewShardedItemPool(shards, size, func() *int { return new(int) }, nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				v, err := p.Get(ctx, g%shards)
				if err != nil {
					t.Error(err)
					return
				}
				*v++
				p.Put((g+i)%shards, v)
			}
		}(g)
	}
	wg.Wait()
	if p.Free() != size {
		t.Fatalf("Free = %d after churn, want %d", p.Free(), size)
	}
}
