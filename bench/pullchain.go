package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"persona"
	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/align/snap"
	"persona/internal/core"
	"persona/internal/dataflow"
	"persona/internal/filter"
	"persona/internal/formats/bam"
	"persona/internal/formats/fastq"
	"persona/internal/formats/sam"
	"persona/internal/markdup"
)

// chain assembles a pipeline's graph as a pull chain from the layers' public
// stage functions, with a span-recording shim between every two stages —
// the traced counterpart of what persona.Pipeline.Serial() builds. It owns
// the runtime a Session would: the executor and the pooled chunks.
//
// Every Next on a shim runs on the goroutine that drives the sink, so spans
// nest: a stage's span contains the span of the upstream pull it made, and
// its self time is the difference.
type chain struct {
	tr    *tracer
	store agd.BlobStore
	exec  *dataflow.Executor
	pool  *dataflow.ShardedItemPool[*agd.Chunk]
	cache *agd.ChunkCache
	spill int // distinct temp prefixes for the chain's sorts
}

// newChain sizes the runtime as persona.NewSession does with default
// options, chunk cache included: a rep that reads a dataset twice hits it.
func newChain(tr *tracer, store agd.BlobStore) *chain {
	n := workers()
	exec := dataflow.NewExecutor(n, n*2)
	return &chain{
		tr: tr, store: store, exec: exec,
		cache: agd.NewChunkCache(persona.DefaultCacheBytes),
		pool:  agd.NewShardedChunkPool(exec.NumShards(), 8*4*exec.NumShards()),
	}
}

func (c *chain) close() { c.exec.Close() }

// stage constructs one stage inside a span of its layer — a sort does its
// whole spill phase at construction — and returns its stream behind a shim.
func (c *chain) stage(layer, op string, build func() (*agd.GroupStream, error)) (*agd.GroupStream, error) {
	id := c.tr.begin(layer, op+".build")
	s, err := build()
	c.tr.end(id, 0, 0)
	if err != nil {
		return nil, err
	}
	next := func(ctx context.Context) (*agd.RowGroup, error) {
		id := c.tr.begin(layer, op+".next")
		g, err := s.Next(ctx)
		var n int64
		if g != nil {
			n = int64(g.NumRecords())
		}
		c.tr.end(id, n, 0)
		return g, err
	}
	out := agd.NewGroupStream(s.Meta, next, s.Close)
	out.Owned = s.Owned
	return out, nil
}

// sink drains the chain inside a span of the sink's layer, then closes the
// chain so every stage finalizes.
func (c *chain) sink(layer, op string, in *agd.GroupStream, drain func() (uint64, error)) (uint64, error) {
	id := c.tr.begin(layer, op+".drain")
	n, err := drain()
	in.Close()
	c.tr.end(id, int64(n), 0)
	return n, err
}

func (c *chain) read(name string) (*agd.GroupStream, error) {
	return c.stage("agd", "read", func() (*agd.GroupStream, error) {
		ds, err := agd.Open(c.store, name)
		if err != nil {
			return nil, err
		}
		return ds.Groups(agd.StreamOptions{
			ShardedPool: c.pool, Cache: c.cache, Codec: agd.Codec{Exec: c.exec},
		})
	})
}

func (c *chain) importFASTQ(src io.Reader, refs []agd.RefSeq, chunk int) (*agd.GroupStream, error) {
	return c.stage("fastq", "import", func() (*agd.GroupStream, error) {
		return fastq.ImportStream(src, fastq.ImportOptions{ChunkSize: chunk, RefSeqs: refs}), nil
	})
}

func (c *chain) align(in *agd.GroupStream, idx *snap.Index) (*agd.GroupStream, error) {
	return c.stage("core", "align", func() (*agd.GroupStream, error) {
		out, _, err := core.AlignStream(core.AlignConfig{Index: idx}, c.exec, in)
		return out, err
	})
}

func (c *chain) sort(ctx context.Context, in *agd.GroupStream, by agdsort.Key) (*agd.GroupStream, error) {
	c.spill++
	prefix := fmt.Sprintf(".benchchain/%d/tmp", c.spill)
	return c.stage("agdsort", "sort", func() (*agd.GroupStream, error) {
		return agdsort.SortStream(ctx, c.store, in, agdsort.Options{By: by, TempPrefix: prefix})
	})
}

func (c *chain) markdup(in *agd.GroupStream) (*agd.GroupStream, error) {
	return c.stage("markdup", "mark", func() (*agd.GroupStream, error) {
		out, _, err := markdup.MarkStream(in, 0)
		return out, err
	})
}

func (c *chain) filter(in *agd.GroupStream, pred filter.Predicate) (*agd.GroupStream, error) {
	return c.stage("filter", "run", func() (*agd.GroupStream, error) {
		out, _, err := filter.RunStream(in, pred, 0)
		return out, err
	})
}

func (c *chain) exportBAM(ctx context.Context, in *agd.GroupStream, dst io.Writer) (uint64, error) {
	return c.sink("bam", "export", in, func() (uint64, error) { return bam.ExportStream(ctx, in, dst) })
}

func (c *chain) exportSAM(ctx context.Context, in *agd.GroupStream, dst io.Writer) (uint64, error) {
	return c.sink("sam", "export", in, func() (uint64, error) { return sam.ExportStream(ctx, in, dst) })
}

func (c *chain) write(ctx context.Context, in *agd.GroupStream, name string) (uint64, error) {
	return c.sink("agd", "write", in, func() (uint64, error) {
		m, err := agd.WriteGroups(ctx, in, c.store, name, agd.WriterOptions{})
		if m == nil {
			return 0, err
		}
		return m.NumRecords(), err
	})
}

// then chains a fallible stage constructor onto a stream that may already
// have failed, so a graph reads top to bottom with one error check.
func then(in *agd.GroupStream, err error, next func(*agd.GroupStream) (*agd.GroupStream, error)) (*agd.GroupStream, error) {
	if err != nil {
		return nil, err
	}
	out, err := next(in)
	if err != nil {
		in.Close()
	}
	return out, err
}

// tracedRep is what the spans of one traced rep say about each layer.
type tracedRep struct {
	rootS    float64
	selfS    map[string]float64 // by span kind
	records  map[string]int64   // records delivered by a kind's .next spans
	groups   map[string]int64   // groups delivered by a kind's .next spans
	store    storeTotals
	coverage float64
}

func analyzeRep(spans []span, rep int) tracedRep {
	byKind, root := selfTimes(spans, rep)
	r := tracedRep{
		rootS:    float64(root) / 1e9,
		selfS:    make(map[string]float64, len(byKind)),
		records:  make(map[string]int64),
		groups:   make(map[string]int64),
		store:    storeTotalsOf(spans, rep),
		coverage: coverage(byKind, root),
	}
	for k, ns := range byKind {
		r.selfS[k] = float64(ns) / 1e9
	}
	for _, s := range spans {
		if s.Rep == rep && !s.Leaf && s.Records > 0 && s.Layer != rootLayer {
			r.records[s.kind()] += s.Records
			if strings.HasSuffix(s.Name, ".next") {
				r.groups[s.kind()]++
			}
		}
	}
	return r
}

// mean averages f over the traced reps.
func mean(reps []tracedRep, f func(tracedRep) float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	var sum float64
	for _, r := range reps {
		sum += f(r)
	}
	return sum / float64(len(reps))
}

// selfKinds are the span kinds whose self time is a per-layer metric,
// "<kind>_self_s".
var selfKinds = []string{
	"agd.read", "agd.write", "core.align", "agdsort.sort", "markdup.mark",
	"filter.run", "fastq.import", "sam.export", "bam.export",
}

// traceMetrics renders the traced reps under the issue's metric names;
// records is what one rep delivered to its sinks.
func traceMetrics(reps []tracedRep, records float64) map[string]float64 {
	m := make(map[string]float64)
	for _, kind := range selfKinds {
		if s := mean(reps, func(r tracedRep) float64 { return r.selfS[kind] }); s > 0 {
			m[kind+"_self_s"] = s
		}
	}
	if g := mean(reps, func(r tracedRep) float64 { return float64(r.groups["agd.read"]) }); g > 0 {
		m["agd.read_groups"] = g
	}
	if keys := mean(reps, func(r tracedRep) float64 { return float64(r.records["agdsort.sort"]) }); keys > 0 {
		m["agdsort.keys_per_s"] = ratio(keys, m["agdsort.sort_self_s"])
	}
	st := func(f func(storeTotals) int64) float64 {
		return mean(reps, func(r tracedRep) float64 { return float64(f(r.store)) })
	}
	m["storage.get_count"] = st(func(t storeTotals) int64 { return t.gets })
	m["storage.get_bytes"] = st(func(t storeTotals) int64 { return t.getBytes })
	m["storage.get_wait_s"] = st(func(t storeTotals) int64 { return t.getWaitNS }) / 1e9
	m["storage.put_count"] = st(func(t storeTotals) int64 { return t.puts })
	m["storage.put_bytes"] = st(func(t storeTotals) int64 { return t.putBytes })
	m["storage.put_busy_s"] = st(func(t storeTotals) int64 { return t.putBusyNS }) / 1e9
	m["storage.range_count"] = st(func(t storeTotals) int64 { return t.ranges })
	m["storage.delete_count"] = st(func(t storeTotals) int64 { return t.deletes })
	m["storage.self_s"] = mean(reps, func(r tracedRep) float64 { return r.selfS[storeLayer] })
	m["storage.bytes_per_read"] = ratio(st(func(t storeTotals) int64 { return t.getBytes + t.putBytes + t.rangeBytes }), records)
	m["trace.coverage"] = mean(reps, func(r tracedRep) float64 { return r.coverage })
	return m
}
