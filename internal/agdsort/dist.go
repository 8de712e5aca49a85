package agdsort

import (
	"context"
	"fmt"
	"io"

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

// KeyColumn locates the column the sort key is derived from, or -1.
func KeyColumn(columns []string, by Key) int { return keyColumn(columns, by) }

// PackRecordKey derives a row's packed 64-bit primary key from its
// key-column record bytes — the same key the in-process sort orders by
// (unmapped reads pack after every mapped location).
func PackRecordKey(rec []byte, by Key) (uint64, error) { return packKey(rec, by) }

// RunField returns the col-th uvarint-framed field of row r of a decoded
// run chunk, aliasing the chunk's data.
func RunField(run *agd.Chunk, col, r int) ([]byte, error) { return runKeyField(run, col, r) }

// CutRun returns the first row of a sorted run whose key compares >= cut;
// rows with keys equal to the cut all land at or after the returned index,
// so cuts taken at identical samples are identical across runs — the
// property that keeps cross-partition tie order equal to a global merge.
func CutRun(run *agd.Chunk, keyCol int, by Key, cut RunSample) int {
	return cutRun(run, keyCol, by, splitter{key: cut.Key, full: cut.Full})
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

// BuildRun drains every group of in, stages the rows into record arenas,
// sorts them by the key, and writes one run blob (the distributed analogue
// of the in-process sort's phase-1 superchunk spill: same staging, same
// stable sort, same uvarint-framed run encoding, so a run built from input
// chunks [b·K, (b+1)·K) is byte-identical to the single-node spill of the
// same batch). samples rows are sampled equi-spaced from the sorted order;
// visit, when non-nil, is called for every sorted row with its packed key
// and key-column field (the hook span accounting for duplicate-marking
// halos rides on). The input stream is not closed.
func BuildRun(ctx context.Context, store agd.BlobStore, in *agd.GroupStream, name string, by Key, samples int, visit func(key uint64, keyField []byte) error) (RunInfo, error) {
	keyCol := keyColumn(in.Meta.Columns, by)
	if keyCol < 0 {
		return RunInfo{}, fmt.Errorf("agdsort: build run %q: no %s key column", name, by)
	}
	cols := make([]*agd.RecordArena, len(in.Meta.Columns))
	for i := range cols {
		cols[i] = agd.NewRecordArena(0, in.Meta.ChunkSize)
	}
	var keys []sortEntry
	for {
		g, err := in.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return RunInfo{}, err
		}
		keys, err = stageGroup(cols, keys, g.Chunks, keyCol, by, 1)
		g.Release()
		if err != nil {
			return RunInfo{}, err
		}
	}
	sortKeys(cols[keyCol], keys, by)

	info := RunInfo{Rows: len(keys)}
	for _, c := range cols {
		info.RawBytes += int64(c.DataLen())
	}
	if visit != nil {
		for _, e := range keys {
			if err := visit(e.key, cols[keyCol].Record(int(e.row))); err != nil {
				return RunInfo{}, err
			}
		}
	}
	if n := len(keys); n > 0 && samples > 0 {
		s := samples
		if s > n {
			s = n
		}
		info.Samples = make([]RunSample, 0, s)
		for i := 0; i < s; i++ {
			e := keys[i*n/s]
			sm := RunSample{Key: e.key}
			if by == ByMetadata {
				// Copy out of the arena: samples outlive the staging memory.
				sm.Full = append([]byte(nil), cols[keyCol].Record(int(e.row))...)
			}
			info.Samples = append(info.Samples, sm)
		}
	}
	if err := writeSuperchunk(store, name, cols, keys, nil); err != nil {
		return RunInfo{}, err
	}
	return info, nil
}
