// Package agdsort sorts AGD datasets with an external merge sort (§4.3 of
// the paper): several chunks at a time are sorted and merged into temporary
// "superchunks"; a final merge stage streams the superchunks into the
// sorted output dataset. Datasets can be sorted by aligned location or by
// read ID (metadata), the two orders downstream tools need.
//
// The sort never materializes per-record objects: each superchunk batch
// stages its columns in shared agd.RecordArenas (contiguous buffers + offset
// indexes) and sorts a compact array of packed {key, row} entries with an
// LSD radix sort over the key bytes that actually vary. Phase 2 is one k-way
// heap merge of the runs (RunMerger) emitted as a stream of output chunks
// (MergeStream, the only code that turns merged rows into groups).
// SortStream is that sort as a pipeline stage; Sort is the one-stage pipeline
// dataset → SortStream → dataset. A range-partitioned merge is the same
// merger and stream over run fragments cut at shared splitters (CutRun),
// which the cluster's shuffle and reduce run across nodes.
package agdsort

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"

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
	// OutputName names the sorted dataset; default "<name>.sorted". Output
	// chunks hold as many records as the input's.
	OutputName string
	// TempPrefix is where SortStream's phase-1 spill blobs (superchunks)
	// go; default "agdsort.stream/tmp". Concurrent sorts against one store
	// must use distinct prefixes. Dataset sorts set it to "<OutputName>/tmp".
	TempPrefix string
	// Pipelining (set by dataset sorts) is how many merged output groups may
	// be in flight at once. ≤ 1 keeps the serial pull contract (groups build
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

// SortDataset is Sort over an already-open dataset: its chunks stream
// through SortStream, spilling under "<OutputName>/tmp", into the dataset
// sink. The merge builds into one more builder set than the sink has store
// workers, so it fills the next output chunk while earlier ones are
// compressed and stored; on failure neither spill nor output blobs remain.
func SortDataset(ctx context.Context, ds *agd.Dataset, opts Options) (*agd.Manifest, error) {
	m := ds.Manifest
	if keyColumn(m.Columns, opts.By) < 0 {
		return nil, fmt.Errorf("agdsort: dataset %q has no column to sort by %s", m.Name, opts.By)
	}
	if opts.OutputName == "" {
		opts.OutputName = m.Name + ".sorted"
	}
	in, err := ds.Groups(agd.StreamOptions{Prefetch: loadPrefetch})
	if err != nil {
		return nil, err
	}
	flushers := runtime.NumCPU()
	opts.TempPrefix = opts.OutputName + "/tmp"
	opts.Pipelining = flushers + 1
	out, err := SortStream(ctx, ds.Store(), in, opts)
	if err != nil {
		in.Close()
		return nil, err
	}
	defer out.Close()
	return agd.WriteGroups(ctx, out, ds.Store(), opts.OutputName, agd.WriterOptions{ParallelFlush: flushers})
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

// loadPrefetch is the chunk-fetch window of a dataset sort's input stream:
// this many chunks' column blobs stay in flight, so the next row group's
// fetch overlaps with key extraction over the current one.
const loadPrefetch = 4

// stageGroup bulk-appends one row group's column chunks into the staging
// arenas and extracts its packed sort entries. batch is the number of groups
// the caller expects to stage into these arenas, 1 when it cannot tell.
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
