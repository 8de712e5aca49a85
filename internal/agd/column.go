package agd

import (
	"context"
	"fmt"
	"io"

	"persona/internal/dataflow"
)

// columnWriters is how many of a WriteColumn's blob writes are in flight at
// once. A durable Put is mostly waiting (an fsync, an object-store round
// trip), so two overlap each other and the stage producing the groups.
const columnWriters = 2

// ColumnWindow is how many groups a WriteColumn holds at once: columnWriters
// being stored and as many queued behind them. A stage feeding it that wants
// never to wait on the sink needs one more set of output buffers than this —
// the group it is filling.
const ColumnWindow = 2 * columnWriters

// WriteColumn drains a stream into one column of an existing dataset: group
// i's chunk of column col is encoded (gzip) on codec and stored under chunk
// i's blob path of manifest m, replacing any blob already there. It is how a
// stage's output lands next to the columns it was computed from — alignment
// appending results (§3), duplicate marking rewriting them. The manifest is
// not touched: a caller adding a column registers it afterwards
// (RegisterColumn), once every blob is in place.
//
// Groups are drawn on a pump goroutine and written by columnWriters others,
// so stores overlap each other and the producing stage; blobs land in no
// particular order. landed, when non-nil, runs on a writer's goroutine after
// a group's blob is stored and before the group is released (a cluster
// worker acks the chunk's lease there); its error fails the sink. The stream
// is closed on return; the first real failure — the stream's, a store's, the
// hook's — is the one returned, and cancelling ctx returns a context error
// with every group released.
func WriteColumn(ctx context.Context, in *GroupStream, store BlobStore, m *Manifest, col string, codec Codec, landed func(chunk int) error) error {
	ci := in.Meta.Col(col)
	if ci < 0 {
		in.Close()
		return fmt.Errorf("agd: stream has no %q column to write to dataset %q", col, m.Name)
	}
	write := func(g *RowGroup) error {
		if g.Index < 0 || g.Index >= len(m.Chunks) {
			return fmt.Errorf("%w: group %d of dataset %q (%d chunks)", ErrNoChunk, g.Index, m.Name, len(m.Chunks))
		}
		entry := m.Chunks[g.Index]
		c := g.Chunks[ci]
		if c.NumRecords() != int(entry.Records) {
			return fmt.Errorf("%w: chunk %d has %d records, column %q supplies %d",
				ErrRowGroup, g.Index, entry.Records, col, c.NumRecords())
		}
		blob, err := codec.WithShard(g.Shard).Encode(c, CompressGzip)
		if err != nil {
			return err
		}
		if err := store.Put(chunkPath(entry, col), blob); err != nil {
			return err
		}
		if landed != nil {
			return landed(g.Index)
		}
		return nil
	}

	pumps := dataflow.NewPumps(ctx)
	edge := PumpEdge(pumps, in, columnWriters)
	for w := 0; w < columnWriters; w++ {
		pumps.Go(func(context.Context) error {
			for {
				g, err := edge.Pop()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				err = write(g)
				g.Release()
				if err != nil {
					return err
				}
			}
		})
	}
	return pumps.Wait()
}
