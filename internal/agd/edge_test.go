package agd

// Tests for the pumped dataflow primitives: bounded-edge backpressure and
// teardown, the GroupStream Next/Close race contract, RunPump's ownership
// handling, and builder-pool backpressure. The concurrency tests here are
// meant to run under -race.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// edgeGroup builds a one-record raw group whose payload encodes idx, with a
// release hook counting into released.
func edgeGroup(idx int, released *atomic.Int32) *RowGroup {
	b := NewChunkBuilder(TypeRaw, uint64(idx))
	b.Append([]byte(fmt.Sprintf("rec-%04d", idx)))
	return NewRowGroup(idx, 0, []*Chunk{b.Chunk()}, func() { released.Add(1) })
}

// TestBoundedEdgeBackpressure checks the §4.5 contract: a producer ahead of
// its consumer blocks in Push at the edge's depth and resumes as soon as the
// consumer pops a group.
func TestBoundedEdgeBackpressure(t *testing.T) {
	var released atomic.Int32
	e := NewBoundedEdge(2)
	if e.Depth() != 2 {
		t.Fatalf("depth %d", e.Depth())
	}
	for i := 0; i < 2; i++ {
		if err := e.Push(edgeGroup(i, &released)); err != nil {
			t.Fatal(err)
		}
	}
	pushed := make(chan error, 1)
	go func() { pushed <- e.Push(edgeGroup(2, &released)) }()
	select {
	case err := <-pushed:
		t.Fatalf("push beyond depth did not block (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	g, err := e.Pop()
	if err != nil || g.Index != 0 {
		t.Fatalf("pop got (%v, %v), want group 0", g, err)
	}
	g.Release()
	select {
	case err := <-pushed:
		if err != nil {
			t.Fatalf("unblocked push failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("push did not resume after a pop")
	}
	e.CloseSend(nil)
	for want := 1; want <= 2; want++ {
		g, err := e.Pop()
		if err != nil || g.Index != want {
			t.Fatalf("drain got (%v, %v), want group %d", g, err, want)
		}
		g.Release()
	}
	if _, err := e.Pop(); err != io.EOF {
		t.Fatalf("pop after drain got %v, want EOF", err)
	}
	if e.Moved() != 3 || e.PeakDepth() != 2 {
		t.Fatalf("moved %d peak %d, want 3 and 2", e.Moved(), e.PeakDepth())
	}
	if e.PushWait() == 0 {
		t.Fatal("blocked push recorded no push-wait time")
	}
	if released.Load() != 3 {
		t.Fatalf("%d of 3 groups released", released.Load())
	}
}

// TestBoundedEdgeFailure checks failure semantics: queued groups are released
// exactly once, the first error sticks, and a post-failure Push releases the
// group on the producer's behalf.
func TestBoundedEdgeFailure(t *testing.T) {
	var released atomic.Int32
	e := NewBoundedEdge(4)
	for i := 0; i < 3; i++ {
		if err := e.Push(edgeGroup(i, &released)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	e.Fail(boom)
	if released.Load() != 3 {
		t.Fatalf("failure released %d of 3 queued groups", released.Load())
	}
	e.Fail(errors.New("later")) // only the first failure sticks
	if _, err := e.Pop(); err != boom {
		t.Fatalf("pop after failure got %v, want boom", err)
	}
	if err := e.Push(edgeGroup(9, &released)); err != boom {
		t.Fatalf("push after failure got %v, want boom", err)
	}
	if released.Load() != 4 {
		t.Fatal("post-failure push did not release the group")
	}
}

// TestBoundedEdgeCloseRecv checks consumer-side teardown: the queue drains
// and releases, and the producer sees ErrEdgeClosed (not an error of its
// own).
func TestBoundedEdgeCloseRecv(t *testing.T) {
	var released atomic.Int32
	e := NewBoundedEdge(4)
	for i := 0; i < 2; i++ {
		if err := e.Push(edgeGroup(i, &released)); err != nil {
			t.Fatal(err)
		}
	}
	e.CloseRecv()
	e.CloseRecv() // idempotent
	if released.Load() != 2 {
		t.Fatalf("CloseRecv released %d of 2 queued groups", released.Load())
	}
	if err := e.Push(edgeGroup(3, &released)); !errors.Is(err, ErrEdgeClosed) {
		t.Fatalf("push after CloseRecv got %v, want ErrEdgeClosed", err)
	}
	if released.Load() != 3 {
		t.Fatal("rejected push did not release the group")
	}
}

// TestBoundedEdgeBlockedSidesWake checks that Fail wakes both a producer
// blocked on a full edge and a consumer blocked on an empty one — the path
// the pipeline's context watcher depends on.
func TestBoundedEdgeBlockedSidesWake(t *testing.T) {
	var released atomic.Int32
	boom := errors.New("watcher: cancelled")

	full := NewBoundedEdge(1)
	if err := full.Push(edgeGroup(0, &released)); err != nil {
		t.Fatal(err)
	}
	pushErr := make(chan error, 1)
	go func() { pushErr <- full.Push(edgeGroup(1, &released)) }()

	empty := NewBoundedEdge(1)
	popErr := make(chan error, 1)
	go func() {
		_, err := empty.Pop()
		popErr <- err
	}()

	time.Sleep(20 * time.Millisecond) // let both goroutines block
	full.Fail(boom)
	empty.Fail(boom)
	for name, ch := range map[string]chan error{"push": pushErr, "pop": popErr} {
		select {
		case err := <-ch:
			if err != boom {
				t.Fatalf("%s woke with %v, want boom", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("Fail did not wake blocked %s", name)
		}
	}
	if released.Load() != 2 {
		t.Fatalf("%d of 2 groups released after failure", released.Load())
	}
}

// TestGroupStreamCloseDuringNext is the satellite-1 race hammer: Close racing
// a concurrent Next must never leak a group, must run the stop hook exactly
// once, and every Next after Close must return io.EOF. Run under -race this
// catches the unsynchronized closed-flag bug the pumped teardown exposed.
func TestGroupStreamCloseDuringNext(t *testing.T) {
	for iter := 0; iter < 300; iter++ {
		var created, released, stopped atomic.Int32
		n := 0 // next is single-caller by contract
		next := func(ctx context.Context) (*RowGroup, error) {
			created.Add(1)
			b := NewChunkBuilder(TypeRaw, uint64(n))
			b.Append([]byte("x"))
			n++
			return NewRowGroup(n-1, 0, []*Chunk{b.Chunk()}, func() { released.Add(1) }), nil
		}
		s := NewGroupStream(StreamMeta{Columns: []string{"c"}}, next, func() { stopped.Add(1) })
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g, err := s.Next(context.Background())
				if err != nil {
					if err != io.EOF {
						panic(err)
					}
					return
				}
				g.Release()
			}
		}()
		s.Close()
		s.Close() // idempotent, including concurrently with the reader
		wg.Wait()
		if _, err := s.Next(context.Background()); err != io.EOF {
			t.Fatalf("iter %d: Next after Close got %v, want EOF", iter, err)
		}
		if created.Load() != released.Load() {
			t.Fatalf("iter %d: %d groups created, %d released — leak across the Next/Close race",
				iter, created.Load(), released.Load())
		}
		if stopped.Load() != 1 {
			t.Fatalf("iter %d: stop hook ran %d times", iter, stopped.Load())
		}
	}
}

// TestRunPumpDetachesUnowned checks RunPump's ownership handling: groups from
// a strict-pull stream (one reused builder) are detached before queueing, so
// queued groups keep their own bytes while the builder recycles under them.
func TestRunPumpDetachesUnowned(t *testing.T) {
	const groups = 6
	b := NewChunkBuilder(TypeRaw, 0)
	n := 0
	next := func(ctx context.Context) (*RowGroup, error) {
		if n >= groups {
			return nil, io.EOF
		}
		b.Reset(TypeRaw, uint64(n)) // recycles the previous group's bytes
		b.Append([]byte(fmt.Sprintf("rec-%04d", n)))
		g := NewRowGroup(n, 0, []*Chunk{b.Chunk()}, nil)
		n++
		return g, nil
	}
	src := NewGroupStream(StreamMeta{Columns: []string{"c"}}, next, nil) // Owned=false
	e := NewBoundedEdge(groups)                                          // deep enough that every group queues
	if _, err := RunPump(context.Background(), src, e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < groups; i++ {
		g, err := e.Pop()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := g.Chunks[0].Record(0)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("rec-%04d", i); string(rec) != want {
			t.Fatalf("queued group %d reads %q, want %q — builder recycled under the queue", i, rec, want)
		}
		g.Release()
	}
	if _, err := e.Pop(); err != io.EOF {
		t.Fatalf("after drain got %v, want EOF", err)
	}
}

// TestRunPumpPassesOwnedThrough checks the complementary contract: groups
// from an Owned stream cross the edge without copying.
func TestRunPumpPassesOwnedThrough(t *testing.T) {
	var made []*RowGroup
	next := func(ctx context.Context) (*RowGroup, error) {
		if len(made) >= 3 {
			return nil, io.EOF
		}
		b := NewChunkBuilder(TypeRaw, uint64(len(made)))
		b.Append([]byte("x"))
		g := NewRowGroup(len(made), 0, []*Chunk{b.Chunk()}, nil)
		made = append(made, g)
		return g, nil
	}
	src := NewGroupStream(StreamMeta{Columns: []string{"c"}}, next, nil)
	src.Owned = true
	e := NewBoundedEdge(4)
	if _, err := RunPump(context.Background(), src, e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		g, err := e.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if g != made[i] {
			t.Fatalf("owned group %d was copied across the edge", i)
		}
	}
}

// TestRunPumpStopsOnDeadEdge checks that a producer whose consumer vanished
// stops cleanly: ErrEdgeClosed is not reported as the pump's own failure, and
// the source stream is closed so teardown cascades upstream.
func TestRunPumpStopsOnDeadEdge(t *testing.T) {
	var released, stopped atomic.Int32
	n := 0
	next := func(ctx context.Context) (*RowGroup, error) {
		g := edgeGroup(n, &released)
		n++
		return g, nil // unbounded: only the dead edge stops the pump
	}
	src := NewGroupStream(StreamMeta{Columns: []string{"c"}}, next, func() { stopped.Add(1) })
	src.Owned = true
	e := NewBoundedEdge(2)
	e.CloseRecv()
	if _, err := RunPump(context.Background(), src, e); err != nil {
		t.Fatalf("pump reported consumer close as its own failure: %v", err)
	}
	if stopped.Load() != 1 {
		t.Fatal("pump did not close its source on a dead edge")
	}
	if released.Load() != int32(n) {
		t.Fatalf("%d of %d groups released after dead-edge stop", released.Load(), n)
	}
}

// TestBuilderPoolBackpressure checks the builder-pool contract: exhaustion
// blocks Get until a Put, and cancellation unblocks it with an error.
func TestBuilderPoolBackpressure(t *testing.T) {
	ctx := context.Background()
	bp := NewBuilderPool(2, []ColumnSpec{{Name: "c", Type: TypeRaw}})
	if bp.Size() != 2 || bp.Free() != 2 {
		t.Fatalf("fresh pool %d/%d", bp.Free(), bp.Size())
	}
	s1, err := bp.Get(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := bp.Get(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Free() != 0 {
		t.Fatalf("free %d after checking out both sets", bp.Free())
	}
	got := make(chan *BuilderSet, 1)
	go func() {
		s, err := bp.Get(ctx, 200)
		if err != nil {
			panic(err)
		}
		got <- s
	}()
	select {
	case <-got:
		t.Fatal("Get on an exhausted pool did not block")
	case <-time.After(50 * time.Millisecond):
	}
	bp.Put(s1)
	select {
	case s3 := <-got:
		if s3 != s1 {
			t.Fatal("unblocked Get returned a set that was never put back")
		}
		bp.Put(s3)
	case <-time.After(2 * time.Second):
		t.Fatal("Get did not resume after a Put")
	}
	bp.Put(s2)
	if bp.Free() != bp.Size() {
		t.Fatalf("pool leak: %d of %d free", bp.Free(), bp.Size())
	}
	// A cancelled context must unblock a Get on an exhausted pool. (On a
	// pool with free sets Get may legitimately win the select against the
	// dead context, so exhaust it first to force the blocking path.)
	a, err := bp.Get(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := bp.Get(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := bp.Get(dead, 0); err == nil {
		t.Fatal("Get ignored a cancelled context on an exhausted pool")
	}
	bp.Put(a)
	bp.Put(b2)
}
