package agdsort

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"persona/internal/agd"
)

// Phase-2 merge: one k-way heap merge over the decoded sorted runs.
// RunMerger is the only code that advances the run heap and MergeStream
// (stream.go) the only code that turns its rows into groups — the in-process
// sort's output and the cluster reduce's input are both that stream. A
// range-partitioned merge is the same merger run once per key range over run
// fragments cut at shared splitters (CutRun); the cluster's shuffle is where
// that happens, across cores and nodes alike.

// superIter iterates the rows of a decoded superchunk. Its field scratch is
// allocated once and re-sliced per row, so advancing is allocation-free.
type superIter struct {
	chunk  *agd.Chunk
	next   int
	keyCol int
	by     Key
	ord    int // superchunk ordinal, the final merge tiebreak

	key      uint64 // packed primary key of the current row
	keyBytes []byte // full metadata key (ByMetadata tie resolution)
	fields   [][]byte
}

// advance loads the next row; returns false at the end of the run.
func (it *superIter) advance() (bool, error) {
	if it.next >= it.chunk.NumRecords() {
		return false, nil
	}
	rec, err := it.chunk.Record(it.next)
	if err != nil {
		return false, err
	}
	it.next++
	off := 0
	for c := range it.fields {
		l, n := binary.Uvarint(rec[off:])
		// The length is range-checked as uint64 before conversion: a corrupt
		// huge varint must not wrap int and slip past the bound.
		if n <= 0 || l > uint64(len(rec)-off-n) {
			return false, fmt.Errorf("agdsort: corrupt superchunk record")
		}
		off += n
		it.fields[c] = rec[off : off+int(l)]
		off += int(l)
	}
	if it.key, err = packKey(it.fields[it.keyCol], it.by); err != nil {
		return false, err
	}
	it.keyBytes = it.fields[it.keyCol]
	return true, nil
}

// less orders iterators by current row; ties break on superchunk ordinal so
// the merge is deterministic and preserves phase-1 order.
func (it *superIter) less(other *superIter) bool {
	if it.key != other.key {
		return it.key < other.key
	}
	if it.by == ByMetadata {
		if c := bytes.Compare(it.keyBytes, other.keyBytes); c != 0 {
			return c < 0
		}
	}
	return it.ord < other.ord
}

// mergeHeap is a hand-rolled binary min-heap of superchunk iterators. Unlike
// container/heap it works on the concrete type, so no per-operation
// interface boxing: the k-way merge allocates nothing per record.
type mergeHeap struct {
	items []*superIter
}

func (h *mergeHeap) push(it *superIter) {
	h.items = append(h.items, it)
	for i := len(h.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.items[i].less(h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// fix restores heap order after the root's current row changed.
func (h *mergeHeap) fix() {
	i, n := 0, len(h.items)
	for {
		left, right := 2*i+1, 2*i+2
		min := i
		if left < n && h.items[left].less(h.items[min]) {
			min = left
		}
		if right < n && h.items[right].less(h.items[min]) {
			min = right
		}
		if min == i {
			return
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}

// pop removes the root (an exhausted iterator).
func (h *mergeHeap) pop() {
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items[n] = nil
	h.items = h.items[:n]
	if n > 0 {
		h.fix()
	}
}

// FetchRuns fetches and decodes the named run blobs — spilled superchunks, or
// the pieces and halos a shuffle cut from them — as one batch, returning them
// in name order with their total row count. The blobs stream in concurrently
// (per-OSD fan-out on the object store) while the first arrivals decode.
func FetchRuns(ctx context.Context, store agd.BlobStore, names []string) ([]*agd.Chunk, int, error) {
	futs := agd.AsyncOf(store).GetBatch(names)
	runs := make([]*agd.Chunk, len(names))
	total := 0
	for i, name := range names {
		blob, err := futs[i].Wait(ctx)
		if err == nil {
			runs[i], err = agd.DecodeChunk(blob)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("agdsort: run %q: %w", name, err)
		}
		total += runs[i].NumRecords()
	}
	return runs, total, nil
}

// splitter is one partition boundary: rows comparing >= it belong to the
// partition to its right. For ByMetadata the full key bytes refine the
// packed prefix, so rows with equal full keys can never straddle a seam.
type splitter struct {
	key  uint64
	full []byte // full key bytes (ByMetadata only), aliasing run data
}

// runKeyField returns the key-column field bytes of row r of a decoded
// superchunk.
func runKeyField(c *agd.Chunk, keyCol, r int) ([]byte, error) {
	rec, err := c.Record(r)
	if err != nil {
		return nil, err
	}
	off := 0
	for f := 0; ; f++ {
		l, n := binary.Uvarint(rec[off:])
		if n <= 0 || l > uint64(len(rec)-off-n) {
			return nil, fmt.Errorf("agdsort: corrupt superchunk record")
		}
		off += n
		if f == keyCol {
			return rec[off : off+int(l)], nil
		}
		off += int(l)
	}
}

// rowKey returns row r's packed key and (for ByMetadata tie comparison) its
// full key-field bytes.
func rowKey(c *agd.Chunk, keyCol, r int, by Key) (uint64, []byte, error) {
	f, err := runKeyField(c, keyCol, r)
	if err != nil {
		return 0, nil, err
	}
	k, err := packKey(f, by)
	return k, f, err
}

// cutRun returns the first row of the run whose key compares >= sp, parsing
// only the O(log n) probed rows. The predicate is monotone, so cuts taken
// at sorted splitters are themselves sorted, and rows with equal keys all
// land right of the cut — the property that keeps tie order identical to
// the serial merge.
func cutRun(run *agd.Chunk, keyCol int, by Key, sp splitter) int {
	return sort.Search(run.NumRecords(), func(r int) bool {
		k, f, err := rowKey(run, keyCol, r, by)
		if err != nil {
			// A corrupt row partitions arbitrarily; the partition merge
			// re-parses every row and surfaces the error there.
			return false
		}
		if k != sp.key {
			return k > sp.key
		}
		if by == ByMetadata {
			return bytes.Compare(f, sp.full) >= 0
		}
		return true
	})
}

// RunMerger streams the k-way merge of decoded sorted runs (or
// splitter-aligned fragments of runs) in global key order, breaking ties by
// each run's ordinal, so concatenating per-partition merges over aligned cuts
// reproduces the single-merge row order exactly.
type RunMerger struct {
	h   mergeHeap
	cur *superIter
}

// NewRunMerger builds a merger over runs. A run's slice index is its ordinal,
// the tiebreak between equal keys, so a fragment must sit at its originating
// run's index; nil or empty runs are skipped.
func NewRunMerger(runs []*agd.Chunk, numCols, keyCol int, by Key) (*RunMerger, error) {
	m := &RunMerger{h: mergeHeap{items: make([]*superIter, 0, len(runs))}}
	for i, c := range runs {
		if c == nil || c.NumRecords() == 0 {
			continue
		}
		it := &superIter{chunk: c, keyCol: keyCol, by: by, ord: i, fields: make([][]byte, numCols)}
		if _, err := it.advance(); err != nil {
			return nil, err
		}
		m.h.push(it)
	}
	return m, nil
}

// Next returns the next merged row's fields (one per column, aliasing run
// data, valid until the following Next call); ok is false when the merge is
// drained.
func (m *RunMerger) Next() (fields [][]byte, ok bool, err error) {
	if m.cur != nil {
		more, err := m.cur.advance()
		if err != nil {
			return nil, false, err
		}
		if more {
			m.h.fix()
		} else {
			m.h.pop()
		}
		m.cur = nil
	}
	if len(m.h.items) == 0 {
		return nil, false, nil
	}
	m.cur = m.h.items[0]
	return m.cur.fields, true, nil
}
