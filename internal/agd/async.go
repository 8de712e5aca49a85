package agd

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the asynchronous read layer of the storage interface (the
// paper's §4.2 readers keep many object fetches in flight to saturate the
// Ceph cluster at ~6 GB/s aggregate). A Future is the handle of one pending
// blob read; AsyncBlobStore extends BlobStore with GetAsync/GetBatch so a
// reader node can issue a window of fetches and overlap storage latency with
// parse and compute instead of stalling on each Get.

// Future is the handle of an asynchronous blob read. It is resolved exactly
// once by the issuing store; any number of goroutines may Wait on it.
type Future struct {
	done chan struct{}
	data []byte
	err  error
}

// closedChan is shared by all pre-resolved futures, so synchronous stores
// (MemStore) answer GetAsync without allocating a channel.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// NewFuture returns an unresolved Future together with the function that
// fulfils it. Store implementations must call resolve exactly once.
func NewFuture() (*Future, func(data []byte, err error)) {
	f := &Future{done: make(chan struct{})}
	return f, func(data []byte, err error) {
		f.data, f.err = data, err
		close(f.done)
	}
}

// ResolvedFuture returns an already-fulfilled Future, for stores whose reads
// complete synchronously.
func ResolvedFuture(data []byte, err error) *Future {
	return &Future{done: closedChan, data: data, err: err}
}

// Done returns a channel that is closed once the read has completed.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the read completes or ctx is cancelled, returning the
// blob contents or the read error.
func (f *Future) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-f.done:
		return f.data, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// AsyncBlobStore is a BlobStore whose reads can be issued asynchronously and
// in batches, keeping multiple fetches in flight concurrently.
type AsyncBlobStore interface {
	BlobStore
	// GetAsync starts fetching name and returns a Future for the result.
	GetAsync(name string) *Future
	// GetBatch starts fetching every name concurrently and returns one
	// Future per name, in order. Implementations must not retain the
	// names slice itself — callers may reuse it.
	GetBatch(names []string) []*Future
}

// asyncAdapterParallelism bounds how many adapter-issued Gets run at once:
// enough to keep a storage device busy without stampeding a backend that
// was never built for concurrency.
const asyncAdapterParallelism = 32

// AsyncOf returns store as an AsyncBlobStore. A store passes through only
// when its async read differs in kind from the adapter: MemStore answers
// with pre-resolved futures, DirStore drains a batch on a pread worker pool,
// the object store queues per OSD and the retry layer hedges. Every other
// store and wrapper, the fault and latency stores included, gets the
// adapter, which services GetAsync on a bounded set of goroutines calling
// the store's Get.
func AsyncOf(store BlobStore) AsyncBlobStore {
	if as, ok := store.(AsyncBlobStore); ok {
		return as
	}
	return &asyncAdapter{BlobStore: store, reads: &readQueue{idle: asyncAdapterParallelism}}
}

// asyncAdapter lifts a synchronous BlobStore into AsyncBlobStore: each read
// is a Get run on the adapter's read queue.
type asyncAdapter struct {
	BlobStore
	reads *readQueue
}

func (a *asyncAdapter) GetAsync(name string) *Future {
	fut, resolve := NewFuture()
	a.reads.Go(func() { resolve(a.BlobStore.Get(name)) })
	return fut
}

func (a *asyncAdapter) GetBatch(names []string) []*Future {
	futs := make([]*Future, len(names))
	for i, name := range names {
		futs[i] = a.GetAsync(name)
	}
	return futs
}

// readQueue runs reads on a bounded set of goroutines, started in the order
// queued, and Go never blocks its caller: a stream issues its window under
// its lock, where waiting for a worker would hold up chunks that have arrived.
// (A semaphore taken in each read's goroutine serves reads in no set order.)
type readQueue struct {
	mu       sync.Mutex
	idle     int      // workers that may still start: the bound less those running
	starting int      // workers started that have not yet taken the lock
	pending  []func() // reads waiting for a worker, oldest first
}

// Go queues read, and starts a worker only for a read that no worker already
// started will take.
func (q *readQueue) Go(read func()) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending = append(q.pending, read)
	if q.idle > 0 && len(q.pending) > q.starting {
		q.idle--
		q.starting++
		go q.work()
	}
}

// work runs pending reads until there are none. Popping reslices the front
// off, so append's copy when it grows the slice moves only waiting reads.
func (q *readQueue) work() {
	q.mu.Lock()
	q.starting--
	for len(q.pending) > 0 {
		read := q.pending[0]
		q.pending[0] = nil // a done slot must not pin its read
		q.pending = q.pending[1:]
		q.mu.Unlock()
		read()
		q.mu.Lock()
	}
	q.idle++
	q.mu.Unlock()
}

// GetAsync implements AsyncBlobStore. Map reads complete immediately, so the
// future is returned pre-resolved.
func (s *MemStore) GetAsync(name string) *Future {
	return ResolvedFuture(s.Get(name))
}

// GetBatch implements AsyncBlobStore. The resolved futures share one
// backing array, so a batch costs two allocations regardless of size.
func (s *MemStore) GetBatch(names []string) []*Future {
	futs := make([]*Future, len(names))
	backing := make([]Future, len(names))
	for i, name := range names {
		data, err := s.Get(name)
		backing[i] = Future{done: closedChan, data: data, err: err}
		futs[i] = &backing[i]
	}
	return futs
}

// GetAsync implements AsyncBlobStore as a one-name GetBatch.
func (s *DirStore) GetAsync(name string) *Future {
	return s.GetBatch([]string{name})[0]
}

// GetBatch implements AsyncBlobStore with a real batched read loop instead
// of one goroutine per name: a bounded set of workers drains the batch via
// an atomic cursor, each reading its blobs with Get (stat + one vectored
// pread into an exactly-sized buffer) — the portable first step of the
// io_uring-style DirStore (one syscall loop per worker, no per-name
// goroutine spawn). The workers run on the store's read queue, which bounds
// file concurrency across batches without blocking the issuer.
func (s *DirStore) GetBatch(names []string) []*Future {
	futs := make([]*Future, len(names))
	if len(names) == 0 {
		return futs
	}
	if s.reads == nil { // zero-value store: read synchronously
		for i, name := range names {
			futs[i] = ResolvedFuture(s.Get(name))
		}
		return futs
	}
	// Snapshot the names: the contract lets callers reuse the slice as soon
	// as GetBatch returns, while the workers are still draining it.
	batch := make([]string, len(names))
	copy(batch, names)
	resolves := make([]func([]byte, error), len(batch))
	for i := range futs {
		futs[i], resolves[i] = NewFuture()
	}
	cursor := new(atomic.Int64)
	// First-error cancellation: once any read in the batch fails, the
	// remaining unserviced reads are not issued — their futures resolve with
	// an error wrapping the batch's first failure (deterministically the one
	// that won the CAS), so a caller draining futures in order sees the
	// failure immediately instead of paying for the rest of a doomed batch.
	firstErr := new(atomic.Pointer[batchFailure])
	for w := 0; w < min(dirStoreParallelism, len(batch)); w++ {
		s.reads.Go(func() {
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				if f := firstErr.Load(); f != nil {
					resolves[i](nil, fmt.Errorf("get %q: batch aborted: %w", batch[i], f.err))
					continue
				}
				data, err := s.Get(batch[i])
				if err != nil {
					firstErr.CompareAndSwap(nil, &batchFailure{name: batch[i], err: err})
				}
				resolves[i](data, err)
			}
		})
	}
	return futs
}

// batchFailure records the read that aborted a GetBatch.
type batchFailure struct {
	name string
	err  error
}

var (
	_ AsyncBlobStore = (*MemStore)(nil)
	_ AsyncBlobStore = (*DirStore)(nil)
	_ AsyncBlobStore = (*asyncAdapter)(nil)
)
