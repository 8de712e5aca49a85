package storage

// This file is the async read path of the object store: the equivalent of
// the paper's reader nodes keeping many object fetches in flight against the
// Ceph cluster (§4.2). Every OSD gets a request queue served by its own
// worker, so a GetBatch fans out across the primaries of its blobs and the
// per-OSD service order stays FIFO — a miniature of one outstanding-request
// queue per object storage daemon. The object store and the retry layer
// (hedging) are this package's only native agd.AsyncBlobStores; the fault
// and latency wrappers keep just Get, and agd.AsyncOf and agd.RangeOf give
// them the shared async and range adapters.

import (
	"fmt"
	"time"

	"persona/internal/agd"
)

// osdQueueDepth is the per-OSD request queue capacity. Enqueueing blocks
// beyond it, which bounds the memory a runaway prefetcher can pin.
const osdQueueDepth = 256

// readReq is one queued async read awaiting service by an OSD worker.
type readReq struct {
	name    string
	resolve func([]byte, error)
}

// ensureAsync lazily starts the per-OSD queue workers.
func (s *ObjectStore) ensureAsync() {
	s.asyncOnce.Do(func() {
		s.stop = make(chan struct{})
		s.queues = make([]chan readReq, len(s.osds))
		for i := range s.queues {
			q := make(chan readReq, osdQueueDepth)
			s.queues[i] = q
			go s.serveOSD(q)
		}
	})
}

// serveOSD services one OSD's read queue until the store is closed.
func (s *ObjectStore) serveOSD(q chan readReq) {
	for {
		select {
		case req := <-q:
			data, degraded, err := s.read(req.name)
			if err == nil {
				s.countRead(data, degraded)
			}
			req.resolve(data, err)
			s.stats.inFlight.Add(-1)
		case <-s.stop:
			// Close set the closed flag before firing stop, so no new
			// request can arrive; fail whatever is still queued so no
			// waiter hangs.
			for {
				select {
				case req := <-q:
					req.resolve(nil, fmt.Errorf("storage: object store closed"))
					s.stats.inFlight.Add(-1)
				default:
					return
				}
			}
		}
	}
}

// GetAsync implements agd.AsyncBlobStore: the read is enqueued on the primary
// replica's OSD queue and served by that OSD's worker (falling back to
// surviving replicas exactly like Get).
func (s *ObjectStore) GetAsync(name string) *agd.Future {
	s.ensureAsync()
	fut, resolve := agd.NewFuture()
	s.stats.asyncGets.Add(1)
	n := s.stats.inFlight.Add(1)
	for {
		max := s.stats.maxInFlight.Load()
		if n <= max || s.stats.maxInFlight.CompareAndSwap(max, n) {
			break
		}
	}
	primary := s.placement(name)[0]
	// Enqueue under the close read-lock: either the store is already closed
	// (fail fast) or the request is fully enqueued before Close can let the
	// workers exit — a racing Close always drains it.
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		s.stats.inFlight.Add(-1)
		resolve(nil, fmt.Errorf("storage: object store closed"))
		return fut
	}
	s.queues[primary] <- readReq{name: name, resolve: resolve}
	s.closeMu.RUnlock()
	return fut
}

// GetBatch implements agd.AsyncBlobStore: every read goes to its own primary's
// queue, so the batch is serviced by as many OSD workers as it has distinct
// primaries — the fan-out that lets one reader node saturate the cluster.
func (s *ObjectStore) GetBatch(names []string) []*agd.Future {
	s.stats.batches.Add(1)
	futs := make([]*agd.Future, len(names))
	for i, name := range names {
		futs[i] = s.GetAsync(name)
	}
	return futs
}

// Close stops the OSD queue workers. Pending async reads resolve with an
// error; reads issued after Close fail immediately. Synchronous operations
// remain usable. Closing an already-closed or never-async store is a no-op.
func (s *ObjectStore) Close() {
	s.ensureAsync()
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.stop)
}

var _ agd.AsyncBlobStore = (*ObjectStore)(nil)

// LatencyStore wraps a Store so every read costs at least a fixed simulated
// device latency — the reusable bench harness for remote-store experiments.
// Its one read is Get, which sleeps the delay and then reads. Async and
// range reads come from agd.AsyncOf and agd.RangeOf: the async adapter runs
// each Get on a goroutine of its own, so a window of reads overlaps its
// delays the way round trips to a remote object store do, and a range read
// pays one delay per call. Writes are not delayed: the harness isolates
// read latency.
type LatencyStore struct {
	inner Store
	d     time.Duration
}

// WithLatency wraps store with d of simulated latency on every read.
func WithLatency(store Store, d time.Duration) *LatencyStore {
	return &LatencyStore{inner: store, d: d}
}

// Get implements Store with the full delay paid before the read.
func (l *LatencyStore) Get(name string) ([]byte, error) {
	time.Sleep(l.d)
	return l.inner.Get(name)
}

// Put implements Store (not delayed).
func (l *LatencyStore) Put(name string, data []byte) error { return l.inner.Put(name, data) }

// Delete implements Store (not delayed).
func (l *LatencyStore) Delete(name string) error { return l.inner.Delete(name) }

// List implements Store (not delayed).
func (l *LatencyStore) List(prefix string) ([]string, error) { return l.inner.List(prefix) }

var _ Store = (*LatencyStore)(nil)
