package persona

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/cluster"
	"persona/internal/dataflow"
	"persona/internal/tco"
)

// SessionOptions configures a Session.
type SessionOptions struct {
	// ExecutorThreads sizes the session's shared work-stealing executor;
	// 0 means GOMAXPROCS.
	ExecutorThreads int
	// Prefetch is the default chunk-fetch window of pipeline sources: how
	// many chunks' column blobs are kept in flight, counting the one being
	// processed. 0 picks the stream default.
	Prefetch int
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
// store, one sharded work-stealing executor (all fine-grain compute), the
// sharded pool of decoded chunks pipeline sources stream through, and a
// reference-index cache — so serving many pipeline runs reuses warm state
// instead of rebuilding executors, pools and indexes per call (§4.1: the
// client library composes graphs over one runtime). Sessions are safe for
// concurrent pipeline runs. Close releases the executor.
type Session struct {
	store     Store
	exec      *dataflow.Executor
	chunkPool *dataflow.ShardedItemPool[*agd.Chunk]
	cache     *agd.ChunkCache // nil when disabled
	prefetch  int
	seq       atomic.Uint64 // distinct spill prefixes for concurrent sorts

	mu        sync.Mutex
	indexes   map[*Genome]*Index
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
	// The chunk pool bounds how many decoded column chunks all concurrent
	// pipelines hold: a pull-based pipeline keeps at most one group (plus
	// one being decoded) checked out per source, so a handful of groups'
	// worth of columns per shard gives several concurrent pipelines slack
	// while still back-pressuring a runaway source.
	poolSize := 8 * 4 * exec.NumShards()
	var cache *agd.ChunkCache
	if opts.CacheBytes >= 0 {
		budget := opts.CacheBytes
		if budget == 0 {
			budget = DefaultCacheBytes
		}
		cache = agd.NewChunkCache(budget)
	}
	return &Session{
		store:     store,
		exec:      exec,
		chunkPool: agd.NewShardedChunkPool(exec.NumShards(), poolSize),
		cache:     cache,
		prefetch:  opts.Prefetch,
		indexes:   make(map[*Genome]*Index),
		manifests: make(map[string]*agd.Manifest),
	}
}

// Store returns the session's blob store.
func (s *Session) Store() Store { return s.store }

// Executor exposes the session's shared executor (for wiring into
// lower-level APIs such as cluster alignment).
func (s *Session) Executor() *dataflow.Executor { return s.exec }

// Index returns the SNAP seed index for a reference genome, building it on
// first use and caching it for the session's lifetime — the warm-index
// reuse that makes repeated align requests cheap.
func (s *Session) Index(g *Genome) (*Index, error) {
	s.mu.Lock()
	idx, ok := s.indexes[g]
	s.mu.Unlock()
	if ok {
		return idx, nil
	}
	idx, err := snap.BuildIndex(g, snap.IndexConfig{SeedLen: 16})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if cached, ok := s.indexes[g]; ok {
		idx = cached // lost a build race; keep one copy
	} else {
		s.indexes[g] = idx
	}
	s.mu.Unlock()
	return idx, nil
}

// AlignDistributed runs a distributed alignment of a dataset in the
// session's store, with every worker node submitting to the session's
// shared executor and the seed index coming from the session's warm cache.
func (s *Session) AlignDistributed(ctx context.Context, dataset string, ref *Genome, nodes, threadsPerNode int) (*ClusterReport, *Manifest, error) {
	idx, err := s.Index(ref)
	if err != nil {
		return nil, nil, err
	}
	rep, m, err := cluster.Align(ctx, s.store, dataset, idx, cluster.Config{
		Nodes:          nodes,
		ThreadsPerNode: threadsPerNode,
		Executor:       s.exec,
	})
	if err != nil {
		return rep, m, err
	}
	// The align rewrote the dataset's results blobs and manifest: cached
	// decoded chunks and the remembered manifest are stale. Replace the
	// manifest with the one the align just produced.
	s.invalidateDataset(dataset)
	s.rememberManifest(dataset, m)
	return rep, m, nil
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
// the cache is disabled.
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

// spillDecider builds the cost-driven spill-compression policy for this
// session's sorts: when the store is resilience-wrapped, its measured read
// profile feeds tco.SpillPolicy and each superchunk run is priced
// individually; otherwise (no evidence) runs stay raw. The returned decider
// is nil-safe for agdsort.Options.
func (s *Session) spillDecider() func(runBytes int64) (agd.Compression, string) {
	profiler, ok := s.store.(interface {
		ReadProfile() (time.Duration, float64, int)
	})
	if !ok {
		return nil
	}
	return func(runBytes int64) (agd.Compression, string) {
		lat, mbps, samples := profiler.ReadProfile()
		policy := tco.SpillPolicy{Profile: tco.StorageProfile{
			ReadLatency: lat,
			ReadMBps:    mbps,
			Samples:     samples,
		}}
		dec := policy.Decide(runBytes)
		if dec.Compress {
			return agd.CompressGzip, dec.Reason
		}
		return agd.CompressNone, dec.Reason
	}
}

// Close releases the session's executor. Pipelines must not be run (or be
// in flight) after Close.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.exec.Close()
}

// tempPrefix returns a session-unique prefix for a pipeline's spill blobs.
func (s *Session) tempPrefix() string {
	return fmt.Sprintf(".pipeline/%d/tmp", s.seq.Add(1))
}

// PoolStats reports the session chunk pool's bound and how many chunks are
// currently free — equal when no pipeline holds pooled chunks, which is the
// leak check tests use after cancelled runs.
func (s *Session) PoolStats() (size, free int) {
	return s.chunkPool.Size(), s.chunkPool.Free()
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
