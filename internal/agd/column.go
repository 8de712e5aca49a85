package agd

import (
	"context"
	"errors"
	"fmt"
	"io"

	"persona/internal/dataflow"
)

// WriteColumn drains a stream into one column of an existing dataset: group
// i's chunk of column col is encoded (gzip) on codec and stored under chunk
// i's blob path of manifest m, replacing any blob already there. It is how a
// stage's output lands next to the columns it was computed from — alignment
// appending results (§3), duplicate marking rewriting them. The manifest is
// not touched: a caller adding a column registers it afterwards
// (RegisterColumn), once every blob is in place.
//
// Each group is encoded on the calling goroutine and released before the next
// is pulled; its blob is stored meanwhile, one Put at a time — as a task on
// codec's executor, or on the caller with none (see puts). landed, when
// non-nil, runs after a group's blob is stored, where the Put ran (a cluster
// worker acks the chunk's lease there); its error fails the sink. The stream
// is closed on return, after the last blob has landed; the first failure —
// the stream's, a store's, the hook's — is the one returned, and cancelling
// ctx returns a context error with every group released.
func WriteColumn(ctx context.Context, in *GroupStream, store BlobStore, m *Manifest, col string, codec Codec, landed func(chunk int) error) (err error) {
	defer in.Close()
	ci := in.Meta.Col(col)
	if ci < 0 {
		return fmt.Errorf("agd: stream has no %q column to write to dataset %q", col, m.Name)
	}
	puts := newPuts(codec.Exec)
	defer func() {
		if werr := puts.wait(); err == nil {
			err = werr
		}
	}()
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
		blob, err := codec.Encode(c, CompressGzip)
		if err != nil {
			return err
		}
		chunk := g.Index
		return puts.run(func() error {
			if err := store.Put(chunkPath(entry, col), blob); err != nil {
				return err
			}
			if landed != nil {
				return landed(chunk)
			}
			return nil
		})
	}
	for {
		g, err := in.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if errors.Is(err, dataflow.ErrStopped) && ctx.Err() != nil {
			// A pool or executor wait the dead context abandoned.
			return ctx.Err()
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
}
