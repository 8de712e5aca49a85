package agdsort

import (
	"context"
	"io"
	"runtime"
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
		info, err := b.BuildRun(context.Background(), discardPuts{}, in, "run", ByLocation, len(groups), 64, nil)
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
