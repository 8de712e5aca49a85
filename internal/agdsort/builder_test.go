package agdsort

import (
	"context"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"persona/internal/agd"
	"persona/internal/testutil"
)

// discardPuts drops every blob Put, so a build allocates no store copy.
type discardPuts struct{ agd.BlobStore }

func (discardPuts) Put(string, []byte) error { return nil }

// capacities lists what a builder has grown: each arena's data, its keys,
// its radix scratch and its blob buffer.
func (b *RunBuilder) capacities() []int {
	var caps []int
	for _, a := range b.cols {
		caps = append(caps, cap(a.Buf()))
	}
	return append(caps, cap(b.keys), cap(b.scratch), cap(b.blob))
}

// TestRunBuilderReuseGrowsNothing: a builder's second run, over a stream of
// as many groups of as many rows as its first, grows no arena, key array,
// scratch or blob buffer, and allocates a small fraction of the first run's
// bytes (its row groups and samples). This is what a cluster node gains by
// keeping one builder across its map tasks.
func TestRunBuilderReuseGrowsNothing(t *testing.T) {
	f := testutil.Build(t, agd.NewMemStore(), "ds", testutil.Config{
		GenomeSize: 120_000, NumReads: 1600, ChunkSize: 100, Seed: 61,
	})
	m := f.Dataset.Manifest
	// Two batches of eight chunks, decoded up front, so a stream allocates
	// its row groups and nothing else.
	batches := make([][][]*agd.Chunk, 2)
	for i := range m.Chunks {
		g := make([]*agd.Chunk, len(m.Columns))
		for c, col := range m.Columns {
			blob, err := f.Dataset.Store().Get(m.ChunkBlobPath(i, col))
			if err == nil {
				g[c], err = agd.DecodeChunk(blob)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		batches[i/8] = append(batches[i/8], g)
	}
	var b RunBuilder
	build := func(groups [][]*agd.Chunk) uint64 {
		next := 0
		in := agd.NewGroupStream(agd.StreamMeta{Columns: m.Columns}, func(context.Context) (*agd.RowGroup, error) {
			if next == len(groups) {
				return nil, io.EOF
			}
			next++
			return agd.NewRowGroup(next-1, 0, groups[next-1], nil), nil
		}, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		info, err := b.buildRun(context.Background(), discardPuts{}, in, "run", ByLocation, len(groups), 64, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if info.Rows != 800 {
			t.Fatalf("run of %d rows, want 800", info.Rows)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	first := build(batches[0])
	grown := b.capacities()
	second := build(batches[1])
	if now := b.capacities(); !slices.Equal(now, grown) {
		t.Errorf("second run grew the builder: capacities %v, after the first run %v", now, grown)
	}
	if second > first/20 || second > 32<<10 {
		t.Errorf("second run allocated %d bytes, the first %d: want at most a twentieth and 32 KiB", second, first)
	}
	t.Logf("first run allocated %d bytes, second %d", first, second)
}

// TestSortRecyclesEachBuilderOnce: a sort drained to its end gives each
// framed run's chunk builder, and each of its merge sets' builders, back to
// the process-wide pool exactly once. A builder given back twice would be
// handed to two owners, which would write over each other's rows, so the
// builders taken from the pool afterwards must all be distinct. Collections
// are off: a pooled object would not survive two.
func TestSortRecyclesEachBuilderOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ds := testutil.Build(t, agd.NewMemStore(), "ds", testutil.Config{
		GenomeSize: 120_000, NumReads: 600, ChunkSize: 50, Seed: 62,
	}).Dataset
	in, err := ds.Groups(agd.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := SortStream(context.Background(), ds.Store(), in, Options{By: ByLocation, ChunksPerSuperchunk: 2, Pipelining: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drainStream(out); err != nil {
		t.Fatal(err)
	}
	seen := make(map[*agd.ChunkBuilder]bool)
	for i := 0; i < 256; i++ {
		b := agd.NewChunkBuilder(agd.TypeRaw, 0)
		if seen[b] {
			t.Fatalf("builder %d came out of the pool a second time", i)
		}
		seen[b] = true
	}
}
