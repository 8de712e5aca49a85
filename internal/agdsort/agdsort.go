// Package agdsort sorts AGD datasets with an external merge sort (§4.3 of
// the paper): several chunks at a time are sorted into "superchunk" runs; a
// final merge stage streams the runs into the sorted output. Datasets can be
// sorted by aligned location or by read ID (metadata), the two orders
// downstream tools need.
//
// The sort never materializes per-record objects. Phase 1 is one
// RunBuilder: it stages each superchunk batch's columns in agd.RecordArenas
// (contiguous buffers + offset indexes) it keeps from run to run, and sorts
// a compact array of packed {key, row} entries with an LSD radix sort over
// the key bytes that actually vary. Phase 2 is one k-way heap merge of the
// runs (RunMerger) emitted as a stream of output chunks (MergeStream, the
// only code that turns merged rows into groups). SortStream is that sort as
// a pipeline stage, with its runs in memory: the merge needs every run
// resident before it emits a row, so storing runs would bound no memory. A
// range-partitioned merge is the same merger and stream over run fragments
// cut at shared splitters (CutRun), which the cluster's shuffle and reduce
// run across nodes; there runs must cross nodes, so each map task's builder
// encodes its runs straight from its arenas and stores them (BuildRun).
package agdsort

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"persona/internal/agd"
	"persona/internal/dataflow"
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

// DefaultChunksPerSuperchunk is how many input chunks a sort stages into
// one run unless Options says otherwise. A distributed sort's map task
// stages this many too, which keeps its runs row for row equal to the
// single-node sort's.
const DefaultChunksPerSuperchunk = 8

// Options configures a sort.
type Options struct {
	// By selects the sort key.
	By Key
	// ChunksPerSuperchunk is how many input chunks are staged and sorted
	// into each superchunk run (default DefaultChunksPerSuperchunk) — the
	// knob that trades staging memory for merge fan-in.
	ChunksPerSuperchunk int
	// TempPrefix is unused: runs stay in memory and nothing is stored under
	// it. It stays only because the benchmark (bench/) sets it.
	TempPrefix string
	// Pipelining is how many merged output groups may be in flight at once:
	// the size of the builder sets' pool (minimum 1). A group stays valid
	// until its Release.
	Pipelining int
}

// KeyColumn locates the column the sort key is derived from, or -1.
func KeyColumn(columns []string, by Key) int {
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

// A RunBuilder stages row groups in record arenas and sorts their packed keys
// into runs: SortStream's phase 1 and a distributed map task (BuildRun) both
// drive its one drain loop. It keeps its arenas, keys and run blob from one
// run to the next, so a builder reused for runs of like shape grows nothing
// after its first. Its zero value is ready for one goroutine at a time.
// SortStream and BuildRun take theirs from a process-wide pool and give it
// back once it is provably done: after phase 1, once the blob is stored.
type RunBuilder struct {
	cols    []*agd.RecordArena // one per stream column
	keys    []sortEntry        // one per staged row, in key order once sorted
	scratch []sortEntry        // the radix sort's second buffer
	blob    []byte             // the run BuildRun last encoded
}

var runBuilders = dataflow.Recycler[*RunBuilder]{New: func() *RunBuilder { return new(RunBuilder) }, Size: func(b *RunBuilder) int {
	n := cap(b.blob) + 16*(cap(b.keys)+cap(b.scratch))
	for _, a := range b.cols {
		n += cap(a.Buf())
	}
	return n
}}

// reset empties the builder for a run of numCols columns, keeping its memory.
func (b *RunBuilder) reset(numCols int) {
	for len(b.cols) < numCols {
		b.cols = append(b.cols, agd.NewRecordArena(0, 0))
	}
	b.cols = b.cols[:numCols]
	for _, a := range b.cols {
		a.Reset()
	}
	b.keys = b.keys[:0]
}

// drain stages every group of in, checked against the stream's columns, calls
// each, when set, after each group is staged, and returns the rows staged.
// The first group of a run sizes the arenas and keys for batch groups like
// it, so a run of the expected shape grows nothing. in is not closed.
func (b *RunBuilder) drain(ctx context.Context, in *agd.GroupStream, keyCol int, by Key, batch int, each func(g *agd.RowGroup)) (int, error) {
	numCols, rows := len(in.Meta.Columns), 0
	b.reset(numCols)
	for {
		g, err := in.Next(ctx)
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		if len(g.Chunks) != numCols {
			g.Release()
			return rows, fmt.Errorf("agdsort: group %d has %d columns, stream declares %d", g.Index, len(g.Chunks), numCols)
		}
		err = b.stage(g.Chunks, keyCol, by, batch)
		if err == nil && each != nil {
			each(g)
		}
		rows += g.NumRecords()
		g.Release()
		if err != nil {
			return rows, err
		}
	}
}

// stage bulk-appends one row group's column chunks into the arenas and
// extracts its packed sort entries.
func (b *RunBuilder) stage(chunks []*agd.Chunk, keyCol int, by Key, batch int) error {
	n := chunks[0].NumRecords()
	if len(b.keys) == 0 {
		// Size the staging once for the run, taking its groups to be about
		// this size (an eighth over: names and CIGARs vary).
		for col, c := range chunks {
			b.cols[col].Grow(batch*n, batch*(len(c.Data)+len(c.Data)/8))
		}
		b.keys = slices.Grow(b.keys, batch*n)
	}
	for col, c := range chunks {
		b.cols[col].AppendChunk(c)
	}
	keyChunk := chunks[keyCol]
	base := uint32(len(b.keys))
	for r := 0; r < n; r++ {
		rec, err := keyChunk.Record(r)
		if err != nil {
			return err
		}
		k, err := PackRecordKey(rec, by)
		if err != nil {
			return err
		}
		b.keys = append(b.keys, sortEntry{key: k, row: base + uint32(r)})
	}
	return nil
}

// sort orders the staged rows' keys.
func (b *RunBuilder) sort(keyCol int, by Key) {
	b.scratch = sortKeys(b.cols[keyCol], b.keys, b.scratch, by)
}

// PackRecordKey derives a row's packed 64-bit primary key from its key-column
// record: the location, with unmapped reads after every mapped one, or the
// read ID's 8-byte prefix.
func PackRecordKey(rec []byte, by Key) (uint64, error) {
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

// appendRow appends one staged row as a run record: the concatenation of
// its uvarint-length-prefixed fields.
func (b *RunBuilder) appendRow(dst []byte, row uint32) []byte {
	for _, col := range b.cols {
		f := col.Record(int(row))
		dst = binary.AppendUvarint(dst, uint64(len(f)))
		dst = append(dst, f...)
	}
	return dst
}

// rowLen is the size of one staged row as a run record.
func (b *RunBuilder) rowLen(row uint32) (n int) {
	for _, col := range b.cols {
		l := len(col.Record(int(row)))
		n += (bits.Len64(uint64(l)|1)+6)/7 + l // the uvarint header, then the field
	}
	return n
}

// framedLen is the size of the staged rows as run records.
func (b *RunBuilder) framedLen() (n int) {
	for _, e := range b.keys {
		n += b.rowLen(e.row)
	}
	return n
}

// frameRun copies the sorted rows, in key order, into one run chunk built in
// a chunk builder, and empties the builder for the next run.
func (b *RunBuilder) frameRun() *agd.ChunkBuilder {
	var buf []byte
	c := agd.NewChunkBuilder(agd.TypeRaw, 0)
	c.Grow(len(b.keys), b.framedLen())
	for _, e := range b.keys {
		buf = b.appendRow(buf[:0], e.row)
		c.Append(buf)
	}
	b.reset(len(b.cols))
	return c
}
