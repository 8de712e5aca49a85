package dataflow

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func newIntPool(size int) *ItemPool[*[]int] {
	return NewItemPool(size,
		func() *[]int { s := make([]int, 0, 4); return &s },
		func(s *[]int) *[]int { *s = (*s)[:0]; return s },
	)
}

func TestItemPoolRecycles(t *testing.T) {
	p := newIntPool(2)
	ctx := context.Background()
	a, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p.Free() != 0 {
		t.Fatalf("Free = %d, want 0", p.Free())
	}
	if _, ok := p.TryGet(); ok {
		t.Fatal("TryGet succeeded on an exhausted pool")
	}
	*a = append(*a, 1, 2, 3)
	p.Put(a)
	c, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("pool did not recycle the returned item")
	}
	if len(*c) != 0 {
		t.Fatalf("recycled item not reset: len=%d", len(*c))
	}
	p.Put(b)
	p.Put(c)
	if p.Free() != p.Size() || p.Recycled() != 3 {
		t.Fatalf("Free = %d of %d, Recycled = %d; want all free, 3 recycled", p.Free(), p.Size(), p.Recycled())
	}
	// A surplus Put is dropped, not queued.
	p.Put(new([]int))
	if p.Free() != p.Size() {
		t.Fatalf("surplus Put grew the pool: Free = %d of %d", p.Free(), p.Size())
	}
}

// A Get on an exhausted pool blocks until a Put, and the item it receives is
// the one put back.
func TestItemPoolGetWaitsForPut(t *testing.T) {
	p := newIntPool(1)
	ctx := context.Background()
	held, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *[]int, 1)
	go func() {
		v, err := p.Get(ctx)
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	p.Put(held)
	if v := <-got; v != held {
		t.Fatal("waiter did not receive the returned item")
	}
}

func TestItemPoolGetCancels(t *testing.T) {
	p := newIntPool(1)
	ctx, cancel := context.WithCancel(context.Background())
	held, _ := p.Get(ctx)
	defer p.Put(held)
	cancel()
	if _, err := p.Get(ctx); !errors.Is(err, ErrStopped) {
		t.Fatalf("Get on a cancelled context: err = %v, want ErrStopped", err)
	}
}

func TestItemPoolConcurrentChurn(t *testing.T) {
	p := newIntPool(4)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v, err := p.Get(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if len(*v) != 0 {
					t.Error("checked-out item carries another holder's data")
					return
				}
				*v = append(*v, i)
				p.Put(v)
			}
		}()
	}
	wg.Wait()
	if p.Free() != 4 {
		t.Fatalf("Free = %d after churn, want 4", p.Free())
	}
}
