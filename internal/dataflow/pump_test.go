package dataflow

// Tests for the pump scheduler: shared-context fan-out, first-error-wins
// teardown, and the real-error-displaces-cancellation rule the pipeline's
// error reporting depends on.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestPumpsCleanRun: every pump exits nil, Wait returns nil, and the shared
// context is released afterwards.
func TestPumpsCleanRun(t *testing.T) {
	p := NewPumps(context.Background())
	for i := 0; i < 3; i++ {
		p.Go(func(ctx context.Context) error { return nil })
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("clean run reported %v", err)
	}
	if p.Context().Err() == nil {
		t.Fatal("Wait left the shared context alive")
	}
}

// TestPumpsFirstErrorCancelsSiblings: one failing pump cancels the shared
// context, unwinding a sibling blocked on it, and Wait reports the failure.
func TestPumpsFirstErrorCancelsSiblings(t *testing.T) {
	boom := errors.New("boom")
	p := NewPumps(context.Background())
	unwound := make(chan struct{})
	p.Go(func(ctx context.Context) error {
		<-ctx.Done()
		close(unwound)
		return nil
	})
	p.Go(func(ctx context.Context) error { return boom })
	select {
	case <-unwound:
	case <-time.After(2 * time.Second):
		t.Fatal("sibling was not cancelled by the failure")
	}
	if err := p.Wait(); err != boom {
		t.Fatalf("Wait returned %v, want boom", err)
	}
}

// TestPumpsRealErrorDisplacesCancellation: when teardown races, a pump
// reporting bare context.Canceled must not mask the sibling holding the root
// cause — the pipeline's Run error is built from this rule.
func TestPumpsRealErrorDisplacesCancellation(t *testing.T) {
	boom := errors.New("root cause")
	p := NewPumps(context.Background())
	p.Go(func(ctx context.Context) error {
		<-ctx.Done() // woken by the sibling's cancellation, then reports the real error
		return boom
	})
	p.Go(func(ctx context.Context) error {
		return context.Canceled
	})
	if err := p.Wait(); err != boom {
		t.Fatalf("Wait returned %v, want the displaced root cause", err)
	}

	// The reverse never happens: a real error already recorded is not
	// displaced by a later cancellation.
	q := NewPumps(context.Background())
	q.Go(func(ctx context.Context) error { return boom })
	q.Go(func(ctx context.Context) error {
		<-ctx.Done()
		return context.Canceled
	})
	if err := q.Wait(); err != boom {
		t.Fatalf("real error was displaced by cancellation: %v", err)
	}
}

// TestPumpsExternalFail: the sink loop (caller goroutine) participates in the
// same teardown via Fail; Fail(nil) is a no-op.
func TestPumpsExternalFail(t *testing.T) {
	boom := errors.New("sink failed")
	p := NewPumps(context.Background())
	p.Go(func(ctx context.Context) error {
		<-ctx.Done()
		return nil
	})
	p.Fail(nil) // no-op: must not cancel anything
	select {
	case <-p.Context().Done():
		t.Fatal("Fail(nil) cancelled the pump context")
	case <-time.After(20 * time.Millisecond):
	}
	p.Fail(boom)
	if err := p.Wait(); err != boom {
		t.Fatalf("Wait returned %v, want the injected failure", err)
	}
}

// TestPumpsParentCancellation: cancelling the parent unwinds every pump.
func TestPumpsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPumps(ctx)
	p.Go(func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	cancel()
	if err := p.Wait(); err != context.Canceled {
		t.Fatalf("Wait returned %v, want context.Canceled", err)
	}

	// A pump that saw the cancellation second-hand — a pool Get or executor
	// Submit it abandoned — still reports the context's error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	q := NewPumps(ctx2)
	q.Go(func(ctx context.Context) error {
		<-ctx.Done()
		return fmt.Errorf("stage: %w", ErrStopped)
	})
	cancel2()
	if err := q.Wait(); err != context.Canceled {
		t.Fatalf("Wait returned %v, want context.Canceled", err)
	}
}
