// Package agdsort sorts AGD datasets with an external merge sort (§4.3 of
// the paper): several chunks at a time are sorted and merged into temporary
// "superchunks"; a final merge stage streams the superchunks into the
// sorted output dataset. Datasets can be sorted by aligned location or by
// read ID (metadata), the two orders downstream tools need.
//
// The sort never materializes per-record objects: each superchunk batch
// stages its columns in shared agd.RecordArenas (contiguous buffers + offset
// indexes) and sorts a compact array of packed {key, row} entries with an
// LSD radix sort over the key bytes that actually vary. Phase 2 is a
// range-partitioned parallel merge (the sample-sort idiom): splitter keys
// partition the sorted runs into independent key ranges, one merge per
// range, each writing its own span of output chunks — so the merge uses the
// same cores phase 1 does, with byte-identical output to the serial merge.
package agdsort

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"

	"persona/internal/agd"
)

// Key selects the sort order.
type Key int

const (
	// ByLocation sorts by aligned genome location (requires a results
	// column). Unmapped reads sort last.
	ByLocation Key = iota
	// ByMetadata sorts lexicographically by read ID.
	ByMetadata
)

func (k Key) String() string {
	if k == ByLocation {
		return "location"
	}
	return "metadata"
}

// unmappedKey sorts unmapped reads after every mapped location.
const unmappedKey = uint64(1) << 62

// Options configures a sort.
type Options struct {
	// By selects the sort key.
	By Key
	// ChunksPerSuperchunk is how many input chunks are loaded, sorted and
	// merged into each temporary superchunk (default 8) — the knob that
	// trades memory for merge fan-in.
	ChunksPerSuperchunk int
	// OutputName names the sorted dataset; default "<name>.sorted".
	OutputName string
	// OutputChunkSize is records per output chunk; default: same as input
	// manifest's first chunk.
	OutputChunkSize int
	// MergeShards is the parallelism of the phase-2 merge: the sorted runs
	// are range-partitioned by sampled splitter keys into this many
	// independent merges, each emitting its own span of output chunks.
	// 0 derives from GOMAXPROCS; 1 selects the serial heap merge. Output
	// bytes are identical at every setting.
	MergeShards int
	// TempPrefix is where phase-1 spill blobs (superchunks) go for streamed
	// sorts (SortStream); default "agdsort.stream/tmp". Concurrent streamed
	// sorts against one store must use distinct prefixes. Dataset sorts
	// ignore it and spill under "<OutputName>/tmp".
	TempPrefix string
	// Pipelining (SortStream only) is how many merged output groups may be
	// in flight at once. ≤ 1 keeps the serial pull contract (groups build
	// into reused builders, valid until the next group); > 1 draws builders
	// from a bounded pool of that size, so a pumped edge can queue groups
	// that stay valid until Release.
	Pipelining int
	// SpillDecider chooses, per spilled superchunk run, whether the blob is
	// compressed, given its raw payload size — typically a
	// tco.SpillPolicy.Decide closure fed with the store's measured read
	// profile. It also returns a short reason tag for reporting. Nil spills
	// raw (the right call on local stores).
	SpillDecider func(runBytes int64) (agd.Compression, string)
	// Spill, when non-nil, accumulates per-run spill accounting for the
	// pipeline report.
	Spill *SpillStats
}

// Sort externally sorts a dataset and writes a new sorted dataset,
// returning its manifest. Cancellation and deadline of ctx are checked per
// chunk in both phases.
func Sort(ctx context.Context, store agd.BlobStore, name string, opts Options) (*agd.Manifest, error) {
	ds, err := agd.Open(store, name)
	if err != nil {
		return nil, err
	}
	return SortDataset(ctx, ds, opts)
}

// SortDataset is Sort over an already-open dataset.
func SortDataset(ctx context.Context, ds *agd.Dataset, opts Options) (*agd.Manifest, error) {
	m := ds.Manifest
	if opts.By == ByLocation && !m.HasColumn(agd.ColResults) {
		return nil, fmt.Errorf("agdsort: dataset %q has no results column to sort by", m.Name)
	}
	if opts.By == ByMetadata && !m.HasColumn(agd.ColMetadata) {
		return nil, fmt.Errorf("agdsort: dataset %q has no metadata column", m.Name)
	}
	if opts.ChunksPerSuperchunk <= 0 {
		opts.ChunksPerSuperchunk = 8
	}
	if opts.OutputName == "" {
		opts.OutputName = m.Name + ".sorted"
	}
	if opts.OutputChunkSize <= 0 {
		if len(m.Chunks) > 0 {
			opts.OutputChunkSize = int(m.Chunks[0].Records)
		} else {
			opts.OutputChunkSize = agd.DefaultChunkSize
		}
	}
	keyCol := keyColumn(m.Columns, opts.By)
	if keyCol < 0 {
		return nil, fmt.Errorf("agdsort: key column missing")
	}
	store := ds.Store()

	// Phase 1: produce sorted superchunks. Batches are independent, so
	// they run in parallel across the machine's cores — the sort is where
	// Persona's 48-thread servers earn the Table 2 advantage.
	numBatches := (len(m.Chunks) + opts.ChunksPerSuperchunk - 1) / opts.ChunksPerSuperchunk
	superNames := make([]string, numBatches)
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	errs := make(chan error, numBatches)
	for b := 0; b < numBatches; b++ {
		superNames[b] = fmt.Sprintf("%s/tmp/super-%06d", opts.OutputName, b)
		start := b * opts.ChunksPerSuperchunk
		end := start + opts.ChunksPerSuperchunk
		if end > len(m.Chunks) {
			end = len(m.Chunks)
		}
		if err := ctx.Err(); err != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(b, start, end int) {
			defer wg.Done()
			defer func() { <-sem }()
			cols, keys, err := stageRun(ctx, ds, start, end, keyCol, opts.By)
			if err != nil {
				errs <- err
				return
			}
			sortKeys(cols[keyCol], keys, opts.By)
			if err := writeSuperchunk(store, superNames[b], cols, keys, &opts); err != nil {
				errs <- err
			}
		}(b, start, end)
	}
	wg.Wait()
	// On any failure (including cancellation) the spilled superchunks must
	// not outlive the call: delete whatever phase 1 managed to write.
	dropTemps := func() {
		for _, sn := range superNames {
			store.Delete(sn)
		}
	}
	select {
	case err := <-errs:
		dropTemps()
		return nil, err
	default:
	}
	if err := ctx.Err(); err != nil {
		dropTemps()
		return nil, err
	}

	// Phase 2: range-partitioned merge of superchunks into the output
	// dataset (see merge.go).
	manifest, err := mergeSuperchunks(ctx, store, superNames, ds, keyCol, opts)
	if err != nil {
		dropTemps()
		return nil, err
	}
	// Drop temporaries.
	for _, sn := range superNames {
		if err := store.Delete(sn); err != nil {
			return nil, err
		}
	}
	return manifest, nil
}

// keyColumn locates the column the sort key is derived from.
func keyColumn(columns []string, by Key) int {
	want := agd.ColResults
	if by == ByMetadata {
		want = agd.ColMetadata
	}
	for i, name := range columns {
		if name == want {
			return i
		}
	}
	return -1
}

// sortEntry is one row's packed sort key: the 64-bit primary key (location,
// or the metadata's big-endian 8-byte prefix) plus the row's index into the
// staging arenas. Sorting moves these 12-byte entries, never record bytes.
type sortEntry struct {
	key uint64
	row uint32
}

// loadPrefetch is the chunk-fetch window of the run-staging stream: each
// superchunk batch keeps this many chunks' column blobs in flight, so the
// next row group's fetch overlaps with key extraction over the current one.
const loadPrefetch = 4

// stageRun copies chunks [start, end) into per-column record arenas and
// extracts one packed sort entry per row. Arena staging copies each column
// chunk once (bulk, via AppendChunk) and allocates nothing per record.
func stageRun(ctx context.Context, ds *agd.Dataset, start, end, keyCol int, by Key) ([]*agd.RecordArena, []sortEntry, error) {
	m := ds.Manifest
	stream, err := ds.Stream(agd.StreamOptions{
		Start: start, End: end, Prefetch: loadPrefetch,
	})
	if err != nil {
		return nil, nil, err
	}
	defer stream.Close()
	cols := make([]*agd.RecordArena, len(m.Columns))
	numRows := 0
	for c := start; c < end; c++ {
		numRows += int(m.Chunks[c].Records)
	}
	for i := range cols {
		cols[i] = agd.NewRecordArena(0, numRows)
	}
	keys := make([]sortEntry, 0, numRows)
	for {
		sc, err := stream.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		// The stream validates every column chunk's record count against the
		// manifest, so the columns are known row-aligned here.
		chunks := sc.Chunks()
		keys, err = stageGroup(cols, keys, chunks, keyCol, by, end-start)
		if err != nil {
			return nil, nil, err
		}
	}
	return cols, keys, nil
}

// stageGroup bulk-appends one row group's column chunks into the staging
// arenas and extracts its packed sort entries — shared by the dataset and
// stream staging paths. batch is the number of groups the caller expects to
// stage into these arenas, 1 when it cannot tell.
func stageGroup(cols []*agd.RecordArena, keys []sortEntry, chunks []*agd.Chunk, keyCol int, by Key, batch int) ([]sortEntry, error) {
	n := chunks[0].NumRecords()
	for col, c := range chunks {
		if cols[col].Len() == 0 {
			// Size the staging once for the batch, taking its groups to be
			// about this size (an eighth over: names and CIGARs vary).
			cols[col].Grow(batch*n, batch*(len(c.Data)+len(c.Data)/8))
		}
		cols[col].AppendChunk(c)
	}
	keyChunk := chunks[keyCol]
	base := uint32(len(keys))
	for r := 0; r < n; r++ {
		rec, err := keyChunk.Record(r)
		if err != nil {
			return keys, err
		}
		k, err := packKey(rec, by)
		if err != nil {
			return keys, err
		}
		keys = append(keys, sortEntry{key: k, row: base + uint32(r)})
	}
	return keys, nil
}

// packKey derives a row's 64-bit primary key from its key-column record.
func packKey(rec []byte, by Key) (uint64, error) {
	if by == ByLocation {
		v, err := agd.DecodeResultView(rec)
		if err != nil {
			return 0, err
		}
		if v.IsUnmapped() {
			return unmappedKey, nil
		}
		return uint64(v.Location), nil
	}
	return prefixKey(rec), nil
}

// prefixKey packs up to 8 leading bytes big-endian, so uint64 comparison
// orders like bytes.Compare on the prefix; ties fall back to the full bytes.
func prefixKey(b []byte) uint64 {
	var k uint64
	n := len(b)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		k |= uint64(b[i]) << (56 - 8*i)
	}
	return k
}

// writeSuperchunk encodes the sorted rows into one temporary blob, reading
// fields straight from the staging arenas: each record is the concatenation
// of uvarint-length-prefixed fields. By default temporaries are stored
// uncompressed — they are deleted right after the merge, and on a local
// store paying gzip twice on data that lives for seconds would only burn
// the cores the merge needs. On remote stores opts.SpillDecider can flip
// that per run when transfer time dominates (the merge's DecodeChunk reads
// either encoding transparently via the blob header).
func writeSuperchunk(store agd.BlobStore, name string, cols []*agd.RecordArena, keys []sortEntry, opts *Options) error {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	size := 0 // of the run: every field and its uvarint header
	for _, col := range cols {
		size += col.DataLen()
		for r := 0; r < col.Len(); r++ {
			size += binary.PutUvarint(tmp[:], uint64(len(col.Record(r))))
		}
	}
	b := agd.NewChunkBuilder(agd.TypeRaw, 0)
	b.Grow(len(keys), size)
	for _, e := range keys {
		buf = buf[:0]
		for _, col := range cols {
			f := col.Record(int(e.row))
			n := binary.PutUvarint(tmp[:], uint64(len(f)))
			buf = append(buf, tmp[:n]...)
			buf = append(buf, f...)
		}
		b.Append(buf)
	}
	c := b.Chunk()
	raw := int64(len(c.Data))
	comp, reason := agd.CompressNone, "default-raw"
	if opts.SpillDecider != nil {
		comp, reason = opts.SpillDecider(raw)
	}
	blob, err := agd.EncodeChunk(c, comp)
	if err != nil {
		return err
	}
	if err := store.Put(name, blob); err != nil {
		return err
	}
	opts.Spill.record(raw, int64(len(blob)), comp, reason)
	return nil
}
