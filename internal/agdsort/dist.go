package agdsort

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"persona/internal/agd"
)

// Exported distributed-sort surface: the pieces of the external sort a
// cross-node range shuffle needs — phase-1 run building from a bounded
// group stream, equi-spaced run sampling for global splitter selection and
// splitter-aligned run cutting; the k-way merge over the cut fragments is
// RunMerger (merge.go), the one the in-process sort runs. internal/shuffle
// and internal/cluster compose these into the distributed fused pipeline, so
// both paths share one implementation and emit byte-identical row orders.

// RunSample is one sampled row of a sorted run: the packed 64-bit primary
// key plus, for ByMetadata, the full key-field bytes that refine prefix
// ties. Samples cross the manifest-server protocol, so Full never aliases
// run memory.
type RunSample struct {
	Key  uint64
	Full []byte
}

// RunInfo reports a built run.
type RunInfo struct {
	// Rows is the run's record count.
	Rows int
	// RawBytes is the staged payload size before framing and compression.
	RawBytes int64
	// Samples holds up to the requested number of equi-spaced rows of the
	// sorted run — an equi-depth histogram of its key range.
	Samples []RunSample
}

// BuildRun drains in, batch groups, into a pooled run builder, sorts the rows
// by the key and stores them under name as one raw run blob, the bytes
// EncodeChunk makes of the in-process sort's run of the same groups. The blob
// is encoded from the arenas in key order into a buffer the builder keeps
// (the store keeps no reference to it, agd.BlobStore.Put). samples rows are
// sampled equi-spaced from the sorted order; visit, when non-nil, is called
// for every sorted row with its packed key and key-column field (the hook
// span accounting for duplicate-marking halos rides on). The input stream is
// not closed.
func BuildRun(ctx context.Context, store agd.BlobStore, in *agd.GroupStream, name string, by Key, batch, samples int, visit func(key uint64, keyField []byte) error) (RunInfo, error) {
	b := runBuilders.Get()
	info, err := b.buildRun(ctx, store, in, name, by, batch, samples, visit)
	if err == nil {
		runBuilders.Put(b)
	}
	return info, err
}

// buildRun is BuildRun in b.
func (b *RunBuilder) buildRun(ctx context.Context, store agd.BlobStore, in *agd.GroupStream, name string, by Key, batch, samples int, visit func(key uint64, keyField []byte) error) (RunInfo, error) {
	keyCol := KeyColumn(in.Meta.Columns, by)
	if keyCol < 0 {
		return RunInfo{}, fmt.Errorf("agdsort: build run %q: no %s key column", name, by)
	}
	if _, err := b.drain(ctx, in, keyCol, by, batch, nil); err != nil {
		return RunInfo{}, err
	}
	b.sort(keyCol, by)
	keys, keyArena := b.keys, b.cols[keyCol]

	info := RunInfo{Rows: len(keys)}
	for _, c := range b.cols {
		info.RawBytes += int64(c.DataLen())
	}
	if visit != nil {
		for _, e := range keys {
			if err := visit(e.key, keyArena.Record(int(e.row))); err != nil {
				return RunInfo{}, err
			}
		}
	}
	if n := len(keys); n > 0 && samples > 0 {
		s := min(samples, n)
		info.Samples = make([]RunSample, 0, s)
		for i := 0; i < s; i++ {
			e := keys[i*n/s]
			sm := RunSample{Key: e.key}
			if by == ByMetadata {
				// Copy out of the arena: samples outlive the staging memory.
				sm.Full = append([]byte(nil), keyArena.Record(int(e.row))...)
			}
			info.Samples = append(info.Samples, sm)
		}
	}
	// Runs are stored raw: they are swept when the run ends, and paying gzip
	// twice on data that lives for seconds would only burn the cores the
	// merge needs.
	b.blob = agd.AppendRawChunk(slices.Grow(b.blob[:0], 3*len(keys)+b.framedLen()+64), len(keys), func(dst []byte) []byte {
		for _, e := range keys {
			dst = binary.AppendUvarint(dst, uint64(b.rowLen(e.row)))
		}
		return dst
	}, func(dst []byte) []byte {
		for _, e := range keys {
			dst = b.appendRow(dst, e.row)
		}
		return dst
	})
	if err := store.Put(name, b.blob); err != nil {
		return RunInfo{}, err
	}
	return info, nil
}
