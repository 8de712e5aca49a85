// Package agdsort sorts AGD datasets with an external merge sort (§4.3 of
// the paper): several chunks at a time are sorted into "superchunk" runs; a
// final merge stage streams the runs into the sorted output. Datasets can be
// sorted by aligned location or by read ID (metadata), the two orders
// downstream tools need.
//
// The sort never materializes per-record objects: each superchunk batch
// stages its columns in shared agd.RecordArenas (contiguous buffers + offset
// indexes) and sorts a compact array of packed {key, row} entries with an
// LSD radix sort over the key bytes that actually vary. Phase 2 is one k-way
// heap merge of the runs (RunMerger) emitted as a stream of output chunks
// (MergeStream, the only code that turns merged rows into groups).
// SortStream is that sort as a pipeline stage; the one-stage persona.Sort
// puts it between a dataset source and a dataset sink. The in-process sort
// keeps its runs in memory: the merge needs every run resident before it emits a row, so
// storing runs and fetching them back would bound no memory, only cost a
// store round trip per run. A range-partitioned merge is the same merger and
// stream over run fragments cut at shared splitters (CutRun), which the
// cluster's shuffle and reduce run across nodes; there runs must cross
// nodes, so BuildRun stores each one.
package agdsort

import (
	"encoding/binary"

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
	// ChunksPerSuperchunk is how many input chunks are staged and sorted
	// into each superchunk run (default 8) — the knob that trades staging
	// memory for merge fan-in.
	ChunksPerSuperchunk int
	// TempPrefix is unused: runs stay in memory and nothing is stored under
	// it. It stays only because the benchmark (bench/) sets it.
	TempPrefix string
	// Pipelining is how many merged output groups may be in flight at once:
	// the size of the builder sets' pool (minimum 1). A group stays valid
	// until its Release.
	Pipelining int
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

// frameRun builds one sorted run from the staging arenas, rows in keys
// order: each record is the concatenation of the row's uvarint-length-prefixed
// fields. The run owns its bytes, so the arenas can be reset for the next
// batch.
func frameRun(cols []*agd.RecordArena, keys []sortEntry) *agd.Chunk {
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
	return b.Chunk()
}
