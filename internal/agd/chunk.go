package agd

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"

	"persona/internal/dataflow"
	"persona/internal/deflate"
)

// gunzipExact inflates the single gzip member src into dst, which must be
// exactly the uncompressed size: a stream that is shorter or longer fails.
// It returns the IEEE CRC-32 of dst, verified against the member's trailer.
func gunzipExact(dst, src []byte) (uint32, error) {
	want, err := deflate.Gunzip(dst, src)
	if err != nil {
		return 0, fmt.Errorf("%w: gzip: %v", ErrCorrupt, err)
	}
	crc := crc32.ChecksumIEEE(dst)
	if crc != want {
		return 0, fmt.Errorf("%w: gzip: CRC-32 %08x, member trailer says %08x", ErrCorrupt, crc, want)
	}
	return crc, nil
}

// Chunk file layout (all integers little-endian):
//
//	offset size field
//	0      4    magic "AGD1"
//	4      1    version (1 or 2)
//	5      1    record type (RecordType: 0 raw, 1 3-bit bases, 2 results,
//	            3 packed bases)
//	6      1    compression (Compression: 0 none, 1 gzip)
//	7      1    reserved
//	8      4    record count
//	12     8    first record ordinal in the dataset
//	20     8    index block size in bytes
//	28     8    data block size in bytes (compressed)
//	36     4    CRC-32 (IEEE) of the uncompressed data block
//	40     ...  index block: uvarint length per record (the relative index)
//	...    ...  data block (possibly compressed)
//
// The record type says how to parse a record, the compression how the data
// block is stored. A dataset sink stores a packed-bases chunk uncompressed and
// every other chunk with gzip (none for a raw dataset): packed bases are
// smaller than deflate makes of the letters, and deflate takes little more
// off them. A chunk of 3-bit bases, as earlier releases stored the bases
// column, decodes to packed bases (packCompacted).
//
// Version 1 stores the data block as a single (possibly gzip-compressed)
// run. Version 2 splits it into independent gzip members that compress and
// decompress in parallel (see parallel.go for the member table layout).
// Members are plain RFC 1952 gzip, so `gunzip` reads them. They are written
// and read by internal/deflate, a slice-to-slice codec; blobs that earlier
// releases wrote with compress/gzip decode unchanged, and compress/gzip reads
// what this one writes. A version-1 member's trailer CRC-32 equals the
// header's, so one pass over the data serves both fields.
//
// Both versions may carry a trailing whole-blob footer:
//
//	offset size field
//	end-8  4    footer magic "C32C"
//	end-4  4    CRC-32C (Castagnoli) of every blob byte before the footer
//
// The header's in-band CRC only covers the uncompressed data block, so it
// cannot tell a corrupted index or member table from a malformed one. The
// footer covers the raw stored bytes — header, index and (compressed) data —
// and is verified before anything is parsed beyond the header, so storage
// corruption is detected up front, classified permanent (ErrChecksum) and
// reported with blob coordinates instead of decoding garbage. Blobs without
// a footer (written by earlier releases) decode unchanged; the header size
// fields disambiguate the two layouts exactly.

const (
	chunkMagic           = "AGD1"
	chunkVersion         = 1
	chunkVersionParallel = 2
	chunkHeaderSize      = 40
	chunkFooterMagic     = "C32C"
	chunkFooterSize      = 8
)

// castagnoli is the CRC-32C table of the blob footer (hardware-accelerated
// on amd64/arm64, so footers cost ~a memory scan).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendChunkFooter appends the whole-blob footer over dst[base:].
func appendChunkFooter(dst []byte, base int) []byte {
	var foot [chunkFooterSize]byte
	copy(foot[0:4], chunkFooterMagic)
	binary.LittleEndian.PutUint32(foot[4:8], crc32.Checksum(dst[base:], castagnoli))
	return append(dst, foot[:]...)
}

// Chunk is an in-memory, parsed AGD chunk: the "chunk object" that flows
// through Persona's queues after the AGD parser stage.
type Chunk struct {
	Type         RecordType
	FirstOrdinal uint64

	// lengths is the relative index: the byte length of each record within
	// Data. offsets is the absolute index, materialized lazily (§3: "an
	// absolute index can be generated on the fly") and exactly once —
	// executor subchunk tasks access one chunk concurrently.
	lengths     []uint32
	offsets     []uint64
	offsetsOnce sync.Once

	// Data holds the concatenated, uncompressed record bytes.
	Data []byte
}

// NumRecords returns the record count.
func (c *Chunk) NumRecords() int { return len(c.lengths) }

// Lengths exposes the relative index. Callers must not mutate it.
func (c *Chunk) Lengths() []uint32 { return c.lengths }

// absIndex materializes the absolute index by summing the relative index,
// reusing the offsets backing array of a recycled chunk.
func (c *Chunk) absIndex() []uint64 {
	c.offsetsOnce.Do(func() {
		n := len(c.lengths) + 1
		offsets := c.offsets
		if cap(offsets) < n {
			offsets = make([]uint64, n)
		}
		offsets = offsets[:n]
		var sum uint64
		for i, l := range c.lengths {
			offsets[i] = sum
			sum += uint64(l)
		}
		offsets[n-1] = sum
		c.offsets = offsets
	})
	return c.offsets
}

// Record returns the raw bytes of record i (no copy).
func (c *Chunk) Record(i int) ([]byte, error) {
	if i < 0 || i >= len(c.lengths) {
		return nil, ErrOutOfRange
	}
	off := c.absIndex()
	return c.Data[off[i]:off[i+1]], nil
}

// Rows returns rows [lo, hi) of c as a chunk of their own, numbered from
// c.FirstOrdinal+lo, that shares c's record bytes: no copy, valid as long as
// c is.
func (c *Chunk) Rows(lo, hi int) (*Chunk, error) {
	if lo < 0 || hi < lo || hi > len(c.lengths) {
		return nil, ErrOutOfRange
	}
	off := c.absIndex()
	return &Chunk{
		Type:         c.Type,
		FirstOrdinal: c.FirstOrdinal + uint64(lo),
		lengths:      c.lengths[lo:hi:hi],
		Data:         c.Data[off[lo]:off[hi]:off[hi]],
	}, nil
}

// MemSize estimates the chunk's resident memory in bytes: record data, the
// relative index, the (possibly materialized) absolute index, and a small
// fixed overhead for the struct itself. The chunk cache's byte budget is
// accounted in these units.
func (c *Chunk) MemSize() int64 {
	return int64(cap(c.Data)) + 4*int64(cap(c.lengths)) + 8*int64(cap(c.offsets)) + 64
}

// Reset clears the chunk for reuse, retaining the Data, lengths and offsets
// backing arrays so a recycled chunk decodes with no allocation. The caller
// must ensure no records or slices of the previous contents are still
// referenced.
func (c *Chunk) Reset() {
	c.Type = 0
	c.FirstOrdinal = 0
	c.lengths = c.lengths[:0]
	c.offsets = c.offsets[:0]
	c.offsetsOnce = sync.Once{}
	c.Data = c.Data[:0]
}

// ChunkBuilder accumulates records for one column chunk.
type ChunkBuilder struct {
	typ          RecordType
	firstOrdinal uint64
	lengths      []uint32
	data         []byte
	chunk        Chunk // what Chunk() hands out
}

// NewChunkBuilder returns a builder for a chunk whose first record has the
// given dataset-wide ordinal. It comes from a process-wide pool, with the
// memory of a builder an earlier run grew and gave back (Recycle).
func NewChunkBuilder(typ RecordType, firstOrdinal uint64) *ChunkBuilder {
	b := pooledBuilders.Get()
	b.Reset(typ, firstOrdinal)
	return b
}

// Recycle gives b back to NewChunkBuilder's pool. The caller proves that no
// chunk b returned is read any more.
func (b *ChunkBuilder) Recycle() { pooledBuilders.Put(b) }

// pooledBuilders and pooledChunks keep chunk builders and decoded chunks
// across runs.
var (
	pooledBuilders = dataflow.Recycler[*ChunkBuilder]{New: func() *ChunkBuilder { return new(ChunkBuilder) },
		Size: func(b *ChunkBuilder) int { return cap(b.data) + 4*cap(b.lengths) + 8*cap(b.chunk.offsets) }}
	pooledChunks = dataflow.Recycler[*Chunk]{New: func() *Chunk { return new(Chunk) },
		Size: func(c *Chunk) int { return int(c.MemSize()) }}
)

// Reset re-targets the builder at a new chunk, retaining the backing arrays
// so pooled builders accumulate with no steady-state allocation. Chunks
// previously returned by Chunk() share those arrays and must be fully
// consumed (e.g. encoded) before the builder is reset.
func (b *ChunkBuilder) Reset(typ RecordType, firstOrdinal uint64) {
	b.typ = typ
	b.firstOrdinal = firstOrdinal
	b.lengths = b.lengths[:0]
	b.data = b.data[:0]
}

// Grow makes room for records more records holding bytes more bytes (see
// RecordArena.Grow).
func (b *ChunkBuilder) Grow(records, bytes int) {
	b.lengths = slices.Grow(b.lengths, records)
	b.data = slices.Grow(b.data, bytes)
}

// Append adds one record.
func (b *ChunkBuilder) Append(record []byte) {
	b.lengths = append(b.lengths, uint32(len(record)))
	b.data = append(b.data, record...)
}

// AppendBases adds one record of base letters, packed (TypePackedBases).
func (b *ChunkBuilder) AppendBases(bases []byte) {
	before := len(b.data)
	b.data = PackBases(b.data, bases)
	b.lengths = append(b.lengths, uint32(len(b.data)-before))
}

// AppendResult encodes one alignment result straight into the data block —
// no intermediate record buffer.
func (b *ChunkBuilder) AppendResult(r *Result) {
	before := len(b.data)
	b.data = EncodeResult(b.data, r)
	b.lengths = append(b.lengths, uint32(len(b.data)-before))
}

// AppendResultView is AppendResult for the borrowing form.
func (b *ChunkBuilder) AppendResultView(v *ResultView) {
	before := len(b.data)
	b.data = EncodeResultView(b.data, v)
	b.lengths = append(b.lengths, uint32(len(b.data)-before))
}

// NumRecords returns how many records have been appended.
func (b *ChunkBuilder) NumRecords() int { return len(b.lengths) }

// DataLen returns the current uncompressed data size.
func (b *ChunkBuilder) DataLen() int { return len(b.data) }

// Chunk returns the accumulated records as an in-memory Chunk (no copy). The
// builder owns the returned Chunk, absolute index included: it is valid until
// the next Chunk or Reset.
func (b *ChunkBuilder) Chunk() *Chunk {
	c := &b.chunk
	c.Reset()
	c.Type, c.FirstOrdinal, c.lengths, c.Data = b.typ, b.firstOrdinal, b.lengths, b.data
	return c
}

// EncodeChunk serializes a chunk to the on-disk format with the zero Codec:
// on the caller's goroutine, in the single-run version-1 layout. The blob
// carries a trailing CRC32-C footer, verified on decode. A writer that wants
// large gzip chunks split into version-2 members encodes with a Codec that
// has an executor.
func EncodeChunk(c *Chunk, comp Compression) ([]byte, error) {
	return Codec{}.Encode(c, comp)
}

// EncodeChunkAppend is EncodeChunk appending to dst, so writers can recycle
// output blobs.
func EncodeChunkAppend(dst []byte, c *Chunk, comp Compression) ([]byte, error) {
	return Codec{}.EncodeAppend(dst, c, comp)
}

// encodeBufs keeps encode buffers across runs: PutChunk's, and those of the
// members of a version-2 chunk.
var encodeBufs = dataflow.Recycler[*[]byte]{New: func() *[]byte { return new([]byte) }, Size: func(b *[]byte) int { return cap(*b) }}

// PutChunk stores c under name as EncodeChunk encodes it with comp, and
// returns the blob's size. The blob is encoded into a pooled buffer, which
// goes back once Put returns: a store keeps no reference to it.
func PutChunk(store BlobStore, name string, c *Chunk, comp Compression) (int, error) {
	buf := encodeBufs.Get()
	blob, err := EncodeChunkAppend((*buf)[:0], c, comp)
	if err == nil {
		err = store.Put(name, blob)
	}
	*buf = blob
	encodeBufs.Put(buf)
	return len(blob), err
}

// encodeChunkHeader appends a chunk header to dst with the size fields
// zeroed; patchChunkHeader fills them once the blocks are written.
func encodeChunkHeader(dst []byte, typ RecordType, records int, first uint64, version byte, comp Compression) []byte {
	var hdr [chunkHeaderSize]byte
	copy(hdr[0:4], chunkMagic)
	hdr[4] = version
	hdr[5] = byte(typ)
	hdr[6] = byte(comp)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(records))
	binary.LittleEndian.PutUint64(hdr[12:20], first)
	return append(dst, hdr[:]...)
}

// AppendRawChunk appends to dst the blob EncodeChunkAppend writes for a raw
// chunk (TypeRaw, first ordinal 0, CompressNone) of records records, without
// the chunk: index appends the records' uvarint lengths and data the records
// themselves, which must agree.
func AppendRawChunk(dst []byte, records int, index, data func(dst []byte) []byte) []byte {
	base := len(dst)
	dst = encodeChunkHeader(dst, TypeRaw, records, 0, chunkVersion, CompressNone)
	idxStart := len(dst)
	dst = index(dst)
	dataStart := len(dst)
	dst = data(dst)
	patchChunkHeader(dst[base:], dataStart-idxStart, len(dst)-dataStart, crc32.ChecksumIEEE(dst[dataStart:]))
	return appendChunkFooter(dst, base)
}

func patchChunkHeader(hdr []byte, indexLen, dataLen int, crc uint32) {
	binary.LittleEndian.PutUint64(hdr[20:28], uint64(indexLen))
	binary.LittleEndian.PutUint64(hdr[28:36], uint64(dataLen))
	binary.LittleEndian.PutUint32(hdr[36:40], crc)
}

// appendChunkIndex appends the relative index (uvarint record lengths).
func appendChunkIndex(dst []byte, c *Chunk) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, l := range c.lengths {
		n := binary.PutUvarint(tmp[:], uint64(l))
		dst = append(dst, tmp[:n]...)
	}
	return dst
}

// encodeChunkV1Append writes the single-run version-1 layout, compressing
// (if requested) straight into the output slice.
func encodeChunkV1Append(dst []byte, c *Chunk, comp Compression) ([]byte, error) {
	base := len(dst)
	// Worst-case estimate: full header and index plus incompressible data
	// (the encoder stores what does not compress, five bytes per 64 KiB).
	dst = slices.Grow(dst, chunkHeaderSize+3*len(c.lengths)+len(c.Data)+len(c.Data)/128+64)
	dst = encodeChunkHeader(dst, c.Type, len(c.lengths), c.FirstOrdinal, chunkVersion, comp)
	idxStart := len(dst)
	dst = appendChunkIndex(dst, c)
	idxLen := len(dst) - idxStart

	dataStart := len(dst)
	crc := crc32.ChecksumIEEE(c.Data)
	switch comp {
	case CompressNone:
		dst = append(dst, c.Data...)
	case CompressGzip:
		dst = deflate.AppendGzip(dst, c.Data, crc, nil)
	default:
		return nil, fmt.Errorf("agd: unknown compression %d", comp)
	}
	patchChunkHeader(dst[base:], idxLen, len(dst)-dataStart, crc)
	return dst, nil
}

// DecodeChunk parses an on-disk chunk blob into a fresh chunk, decompressing
// the data block on the caller's goroutine. Both layout versions are
// accepted. An uncompressed data block is not copied: the chunk shares
// blob's bytes.
func DecodeChunk(blob []byte) (*Chunk, error) {
	c := new(Chunk)
	if err := (Codec{}).decodeInto(c, blob, false); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeChunkInto decodes blob into c, reusing c's backing arrays (pooled
// chunk lifecycle: the steady-state pipeline decodes with no allocation).
// The chunk owns its memory afterwards — even uncompressed data is copied
// out of blob.
func DecodeChunkInto(c *Chunk, blob []byte) error {
	return Codec{}.DecodeInto(c, blob)
}

// chunkHeader is a parsed fixed-size chunk blob header.
type chunkHeader struct {
	version      byte
	typ          RecordType
	comp         Compression
	records      uint32
	firstOrdinal uint64
	indexSize    uint64
	dataSize     uint64
	crc          uint32
}

func parseChunkHeader(blob []byte) (chunkHeader, error) {
	var h chunkHeader
	if len(blob) < chunkHeaderSize {
		return h, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(blob))
	}
	if string(blob[0:4]) != chunkMagic {
		return h, ErrBadMagic
	}
	if blob[4] != chunkVersion && blob[4] != chunkVersionParallel {
		return h, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, blob[4])
	}
	h.version = blob[4]
	h.typ = RecordType(blob[5])
	h.comp = Compression(blob[6])
	h.records = binary.LittleEndian.Uint32(blob[8:12])
	h.firstOrdinal = binary.LittleEndian.Uint64(blob[12:20])
	h.indexSize = binary.LittleEndian.Uint64(blob[20:28])
	h.dataSize = binary.LittleEndian.Uint64(blob[28:36])
	h.crc = binary.LittleEndian.Uint32(blob[36:40])
	// Guard the size sum against overflow before using it for slicing: a
	// corrupt header can claim block sizes whose sum wraps around.
	if h.indexSize > uint64(len(blob)) || h.dataSize > uint64(len(blob)) {
		return h, fmt.Errorf("%w: size mismatch (header says %d+%d block bytes, blob is %d)",
			ErrCorrupt, h.indexSize, h.dataSize, len(blob))
	}
	expected := chunkHeaderSize + h.indexSize + h.dataSize
	switch uint64(len(blob)) {
	case expected:
		// Unchecksummed blob from an earlier release: accepted as-is.
	case expected + chunkFooterSize:
		foot := blob[expected:]
		if string(foot[0:4]) != chunkFooterMagic {
			return h, fmt.Errorf("%w: bad footer magic %q", ErrCorrupt, foot[0:4])
		}
		want := binary.LittleEndian.Uint32(foot[4:8])
		if got := crc32.Checksum(blob[:expected], castagnoli); got != want {
			return h, fmt.Errorf("%w: blob CRC32-C %08x, footer says %08x", ErrChecksum, got, want)
		}
	default:
		return h, fmt.Errorf("%w: size mismatch (header says %d, blob is %d)",
			ErrCorrupt, expected, len(blob))
	}
	return h, nil
}

// decodeChunkIndex parses the relative index into lengths (reusing its
// backing array) and returns it with the summed record bytes.
func decodeChunkIndex(lengths []uint32, indexBlock []byte, records uint32) ([]uint32, uint64, error) {
	lengths = lengths[:0]
	var total uint64
	for len(indexBlock) > 0 {
		l, n := binary.Uvarint(indexBlock)
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: bad index varint", ErrCorrupt)
		}
		if l > math.MaxUint32 {
			// A record length wider than the on-disk uint32 can only come
			// from corruption; truncating it would desynchronize the
			// absolute index from the summed total.
			return nil, 0, fmt.Errorf("%w: record length %d overflows", ErrCorrupt, l)
		}
		lengths = append(lengths, uint32(l))
		total += l
		indexBlock = indexBlock[n:]
	}
	if uint32(len(lengths)) != records {
		return nil, 0, fmt.Errorf("%w: index has %d entries, header says %d", ErrCorrupt, len(lengths), records)
	}
	return lengths, total, nil
}

// growBytes returns a slice of exactly n bytes, reusing b's backing array
// when it is large enough.
func growBytes(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// ExpandBasesRecord decodes record i of a TypePackedBases chunk into base
// letters, appending to dst.
func (c *Chunk) ExpandBasesRecord(dst []byte, i int) ([]byte, error) {
	rec, err := c.Record(i)
	if err != nil {
		return dst, err
	}
	return UnpackBases(dst, rec)
}
