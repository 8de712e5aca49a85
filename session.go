package persona

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"persona/internal/agd"
	"persona/internal/dataflow"
)

// SessionOptions configures a Session.
type SessionOptions struct {
	// ExecutorThreads sizes the session's shared executor; 0 means
	// GOMAXPROCS.
	ExecutorThreads int
	// CacheBytes is the byte budget of the session's read-through decoded
	// chunk cache: pipeline sources serve repeat chunk reads from it,
	// skipping the fetch, CRC verify and decode entirely (hot references,
	// repeat jobs in the server). 0 picks DefaultCacheBytes; negative
	// disables the cache.
	CacheBytes int64
}

// DefaultCacheBytes is the chunk cache budget when SessionOptions.CacheBytes
// is zero: enough for the hot columns of a reference-scale dataset without
// crowding out the arenas and pools of an active pipeline.
const DefaultCacheBytes int64 = 64 << 20

// Session owns the long-lived resources Persona pipelines share: the blob
// store, one executor (worker goroutines draining one task queue: all
// fine-grain compute), the decoded-chunk cache pipeline sources read
// through, and a reference-index cache — so serving many pipeline runs
// reuses warm state instead of rebuilding executors, chunks and indexes per
// call (§4.1: the client library composes graphs over one runtime). Every
// source decodes into chunks from agd's one chunk recycler: with no cache a
// chunk goes back when its group is released, with the cache once its entry
// is dropped and unpinned. Sessions are safe for concurrent pipeline runs.
// Close releases the executor and flushes the cache, so the next session
// decodes into the same chunks.
type Session struct {
	store Store
	exec  *dataflow.Executor
	cache *agd.ChunkCache // nil when disabled
	seq   atomic.Uint64   // distinct namespaces for concurrent cluster runs

	// buildIndex builds a seed index; tests wrap it to count builds.
	buildIndex func(*Genome) (*Index, error)

	mu        sync.Mutex
	indexes   map[*Genome]*indexBuild
	manifests map[string]*agd.Manifest // dataset name → parsed manifest
	closed    bool
}

// NewSession opens a session over a store.
func NewSession(store Store, opts SessionOptions) *Session {
	threads := opts.ExecutorThreads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	exec := dataflow.NewExecutor(threads, threads*2)
	var cache *agd.ChunkCache
	if opts.CacheBytes >= 0 {
		budget := opts.CacheBytes
		if budget == 0 {
			budget = DefaultCacheBytes
		}
		cache = agd.NewChunkCache(budget)
	}
	return &Session{
		store:      store,
		buildIndex: BuildIndex,
		exec:       exec,
		cache:      cache,
		indexes:    make(map[*Genome]*indexBuild),
		manifests:  make(map[string]*agd.Manifest),
	}
}

// Store returns the session's blob store.
func (s *Session) Store() Store { return s.store }

// indexBuild is one genome's index build: done closes when idx and err are
// set.
type indexBuild struct {
	done chan struct{}
	idx  *Index
	err  error
}

// Index returns the SNAP seed index for a reference genome, building it on
// first use and caching it for the session's lifetime — the warm-index
// reuse that makes repeated align requests cheap. Concurrent first callers
// share one build: the index is the largest object in the process, and two
// builds would double the peak. A failed build is not cached.
func (s *Session) Index(g *Genome) (*Index, error) {
	s.mu.Lock()
	b, ok := s.indexes[g]
	if !ok {
		b = &indexBuild{done: make(chan struct{})}
		s.indexes[g] = b
	}
	s.mu.Unlock()
	if ok {
		<-b.done
		return b.idx, b.err
	}
	b.idx, b.err = s.buildIndex(g)
	if b.err != nil {
		s.mu.Lock()
		delete(s.indexes, g)
		s.mu.Unlock()
	}
	close(b.done)
	return b.idx, b.err
}

// AlignDistributed aligns a dataset in the session's store across nodes
// worker nodes (at least one), as persona.AlignDistributed does, with every
// node submitting to the session's shared executor and the seed index
// coming from the session's warm cache: Read, Align and the sink that
// writes the results column back, run Distributed.
func (s *Session) AlignDistributed(ctx context.Context, dataset string, ref *Genome, nodes int) (*ClusterReport, *Manifest, error) {
	idx, err := s.Index(ref)
	if err != nil {
		return nil, nil, err
	}
	rep, err := s.Read(dataset).Align(idx, AlignOptions{}).writeBack().Distributed(max(nodes, 1)).Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	return rep.Cluster, rep.Manifest, nil
}

// openDataset opens a dataset through the session's manifest cache: reading
// back a dataset this session just wrote or aligned skips the manifest
// Get+parse round trip. Only manifests the session itself produced are
// served from memory — a dataset it merely read before may have been
// rewritten by another writer, so those always re-open from the store.
func (s *Session) openDataset(name string) (*agd.Dataset, error) {
	s.mu.Lock()
	m := s.manifests[name]
	s.mu.Unlock()
	if m != nil {
		return agd.OpenManifest(s.store, m), nil
	}
	return agd.Open(s.store, name)
}

// rememberManifest records the manifest of a dataset this session just
// wrote, so an immediately following read skips the open round trip.
func (s *Session) rememberManifest(name string, m *agd.Manifest) {
	s.mu.Lock()
	s.manifests[name] = m
	s.mu.Unlock()
}

// invalidateDataset drops everything the session cached about a dataset —
// decoded chunks and the parsed manifest — because its blobs were just
// rewritten.
func (s *Session) invalidateDataset(name string) {
	s.mu.Lock()
	delete(s.manifests, name)
	s.mu.Unlock()
	if s.cache != nil {
		s.cache.InvalidatePrefix(name + "/")
	}
}

// CacheStats snapshots the session chunk cache's counters; ok is false when
// the cache is disabled. Its Pinned is the session's leak probe: it counts
// every pin a reader holds on a cached chunk, so it reads 0 once every group
// a source delivered has been released.
func (s *Session) CacheStats() (stats CacheStats, ok bool) {
	if s.cache == nil {
		return CacheStats{}, false
	}
	return s.cache.Stats(), true
}

// FlushCache empties the chunk cache and forgets cached manifests, returning
// what was dropped. The admin escape hatch for when the
// store was mutated behind the session's back.
func (s *Session) FlushCache() (entries int, bytes int64) {
	s.mu.Lock()
	s.manifests = make(map[string]*agd.Manifest)
	s.mu.Unlock()
	if s.cache == nil {
		return 0, 0
	}
	return s.cache.Flush()
}

// Close releases the session's executor and flushes its chunk cache, whose
// chunks go back to the recycler the next session decodes into. Pipelines
// must not be run (or be in flight) after Close.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.exec.Close()
	if s.cache != nil {
		s.cache.Flush()
	}
}

// ResilienceStats returns the cumulative retry/hedge counters of the
// session's store when it is resilience-wrapped (NewRetryStore); ok is false
// for a plain store.
func (s *Session) ResilienceStats() (stats StorageStats, ok bool) {
	if rs, isRS := s.store.(interface{ RetryStats() StorageStats }); isRS {
		return rs.RetryStats(), true
	}
	return StorageStats{}, false
}
