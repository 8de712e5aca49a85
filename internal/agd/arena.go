package agd

import (
	"math"
	"slices"
)

// RecordArena stores a sequence of variable-length records in one contiguous
// data buffer plus a uint32 offset index — the AGD discipline (§3 of the
// paper: touch records as slices of one buffer, not as per-record objects)
// extracted into a shared type. It replaces per-record allocation in the
// alignment writers (core), the external merge sort's run staging (agdsort)
// and the format converters: appending a record costs amortized zero
// allocations (grow-by-doubling via append), and Reset recycles the backing
// arrays, so arenas pool cleanly through dataflow.ItemPool.
//
// The zero value is an empty, ready-to-use arena.
type RecordArena struct {
	data []byte
	// offs holds record boundaries: record i is data[offs[i]:offs[i+1]].
	// Either empty (no records) or len == Len()+1 with offs[0] == 0.
	offs []uint32
}

// NewRecordArena returns an arena with pre-sized backing arrays: capBytes of
// record data and capRecords index entries. Pools pass their steady-state
// sizes so checked-out arenas never grow.
func NewRecordArena(capBytes, capRecords int) *RecordArena {
	a := &RecordArena{}
	if capBytes > 0 {
		a.data = make([]byte, 0, capBytes)
	}
	if capRecords > 0 {
		a.offs = make([]uint32, 0, capRecords+1)
	}
	return a
}

// Grow makes room for records more records holding bytes more bytes, so a
// caller that knows what is coming allocates once: left to append, a large
// buffer grows by a quarter at a time and allocates several times what it
// ends up holding.
func (a *RecordArena) Grow(records, bytes int) {
	a.data = slices.Grow(a.data, bytes)
	a.offs = slices.Grow(a.offs, records+1)
}

// Len returns the number of records.
func (a *RecordArena) Len() int {
	if len(a.offs) == 0 {
		return 0
	}
	return len(a.offs) - 1
}

// DataLen returns the total record bytes stored.
func (a *RecordArena) DataLen() int { return len(a.data) }

// Record returns record i, aliasing the arena's buffer. The slice is valid
// until the next append moves the buffer; callers that keep records across
// appends must copy. i must be in [0, Len()).
func (a *RecordArena) Record(i int) []byte {
	return a.data[a.offs[i]:a.offs[i+1]]
}

// Append adds one record (copying rec into the arena). rec may alias the
// arena's own buffer: the source range lies below the append point, so the
// copy is safe even when growth relocates the backing array.
func (a *RecordArena) Append(rec []byte) {
	a.data = append(a.data, rec...)
	a.commit()
}

// AppendChunk bulk-appends every record of a decoded chunk, preserving
// record boundaries — the staging path of the external merge sort, one copy
// per column chunk instead of one per record.
func (a *RecordArena) AppendChunk(c *Chunk) {
	a.data = append(a.data, c.Data...)
	if len(a.offs) == 0 {
		a.offs = append(a.offs, 0)
	}
	a.checkSize()
	off := a.offs[len(a.offs)-1]
	for _, l := range c.lengths {
		off += l
		a.offs = append(a.offs, off)
	}
}

// Buf exposes the arena's data buffer so a record can be encoded in place
// with append-style helpers (e.g. EncodeResult); pass the grown slice to
// Commit to complete the record. No other arena method may be called between
// Buf and Commit.
func (a *RecordArena) Buf() []byte { return a.data }

// Commit completes an in-place append started with Buf: buf must be the
// arena's buffer extended with exactly one record's bytes.
func (a *RecordArena) Commit(buf []byte) {
	a.data = buf
	a.commit()
}

// AppendResult encodes one alignment result straight into the arena.
func (a *RecordArena) AppendResult(r *Result) {
	a.data = EncodeResult(a.data, r)
	a.commit()
}

func (a *RecordArena) commit() {
	if len(a.offs) == 0 {
		a.offs = append(a.offs, 0)
	}
	a.checkSize()
	a.offs = append(a.offs, uint32(len(a.data)))
}

// checkSize keeps the uint32 offset index honest: overflowing it would
// silently corrupt every subsequent record, so fail loudly instead. Arenas
// hold chunk-scale data (megabytes); reaching 4 GiB means a caller is
// staging far past the format's working set.
func (a *RecordArena) checkSize() {
	if uint64(len(a.data)) > math.MaxUint32 {
		panic("agd: RecordArena exceeds the 4 GiB offset-index limit")
	}
}

// Reset empties the arena, retaining both backing arrays so a pooled arena
// refills with no allocation. Records previously returned must no longer be
// referenced.
func (a *RecordArena) Reset() {
	a.data = a.data[:0]
	a.offs = a.offs[:0]
}
