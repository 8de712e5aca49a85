package agd

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"

	"persona/internal/dataflow"
	"persona/internal/deflate"
)

// Version-2 data block layout (all integers little-endian):
//
//	offset            size  field
//	0                 4     member count N
//	4                 4*N   compressed size of each member
//	4+4*N             4*N   uncompressed size of each member
//	4+8*N             ...   N concatenated gzip members
//
// Members are independent gzip streams covering consecutive ranges of the
// uncompressed data block, so they compress and decompress concurrently —
// the bgzf trick applied to AGD chunks. The concatenation is itself a valid
// multi-member gzip stream, so external tools can still `zcat` the block.
// The header's data-size field covers the whole section including the
// member table; the CRC still covers the full uncompressed data.

const (
	// minMemberSize is the smallest data span worth a dedicated gzip
	// member: below this the per-member overhead (stream header, flush,
	// dispatch) outweighs the parallelism.
	minMemberSize = 8 << 10
	// maxChunkMembers bounds the member count accepted at decode so a
	// corrupt table cannot drive huge allocations.
	maxChunkMembers = 1 << 12
)

// codecExec is the package-default executor for parallel chunk compression,
// started lazily on first use with one worker per CPU.
var (
	codecExecOnce sync.Once
	codecExec     *dataflow.Executor
)

func defaultCodecExec() *dataflow.Executor {
	codecExecOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		codecExec = dataflow.NewExecutor(n, 2*n)
	})
	return codecExec
}

// Codec bundles the policy knobs of chunk encoding and decoding. The zero
// value is the package default used by EncodeChunk/DecodeChunk: gzip blocks
// large enough to split are written as version-2 multi-member chunks and
// (de)compressed in parallel on a shared per-process executor.
type Codec struct {
	// Exec runs member compression tasks. Nil selects the package-default
	// executor (one worker per CPU). Pipelines pass their own shared
	// executor so compression competes with alignment for the same
	// fine-grain compute threads (Fig. 4) instead of oversubscribing.
	Exec *dataflow.Executor
	// Members forces the version-2 layout with exactly this many gzip
	// members (clamped to the data size). Zero picks automatically: the
	// version-1 single-run layout for small blocks, multi-member for
	// blocks of at least 2*minMemberSize. Members only applies to
	// CompressGzip; uncompressed chunks always use version 1.
	Members int
	// NoChecksum omits the trailing whole-blob CRC32-C footer on encode.
	// Decoding always accepts both layouts (and always verifies a footer
	// when present); the knob exists for byte-stable comparisons against
	// blobs written by earlier releases.
	NoChecksum bool
	// shard+1, when non-zero, is the executor shard member tasks are
	// submitted to (WithShard): the shard that decoded a chunk re-encodes
	// it with warm caches, and idle shards steal the surplus members.
	shard int
}

// WithShard returns the codec with member tasks pinned (advisorily) to the
// given executor shard. Pipelines derive the shard from the chunk index so
// one chunk's decode, align and compress tasks land on the same worker.
func (cd Codec) WithShard(shard int) Codec {
	cd.shard = shard + 1
	return cd
}

// exec returns the executor to run member tasks on.
func (cd Codec) exec() *dataflow.Executor {
	if cd.Exec != nil {
		return cd.Exec
	}
	return defaultCodecExec()
}

// memberCount picks how many gzip members to write for n data bytes.
func (cd Codec) memberCount(n int) int {
	if cd.Members > 0 {
		m := cd.Members
		if m > n { // never emit empty members
			m = n
		}
		if m > maxChunkMembers { // the decoder rejects larger tables
			m = maxChunkMembers
		}
		if m < 1 {
			m = 1
		}
		return m
	}
	m := n / minMemberSize
	if m <= 1 {
		// Too small to split — answer before touching cd.exec() so tiny
		// encodes never spin up the package-default executor.
		return 1
	}
	if w := cd.exec().Workers(); m > w {
		m = w
	}
	if m < 1 {
		m = 1
	}
	return m
}

// Encode serializes a chunk, choosing the layout per the codec policy.
func (cd Codec) Encode(c *Chunk, comp Compression) ([]byte, error) {
	return cd.EncodeAppend(nil, c, comp)
}

// EncodeAppend is Encode appending to dst. Unless the codec opts out, the
// blob gains a trailing CRC32-C footer over its raw bytes, so storage
// corruption anywhere in the blob is detected before decode.
func (cd Codec) EncodeAppend(dst []byte, c *Chunk, comp Compression) ([]byte, error) {
	base := len(dst)
	var err error
	if comp != CompressGzip {
		dst, err = encodeChunkV1Append(dst, c, comp)
	} else if members := cd.memberCount(len(c.Data)); members == 1 && cd.Members == 0 {
		// Small block: keep the single-run legacy layout.
		dst, err = encodeChunkV1Append(dst, c, comp)
	} else {
		dst, err = cd.encodeV2Append(dst, c, members)
	}
	if err != nil {
		return nil, err
	}
	if !cd.NoChecksum {
		dst = appendChunkFooter(dst, base)
	}
	return dst, nil
}

// memberScratchPool recycles per-member compression buffers.
var memberScratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, minMemberSize)
		return &b
	},
}

// encodeV2Append writes the version-2 multi-member layout, compressing the
// members concurrently on the codec's executor.
func (cd Codec) encodeV2Append(dst []byte, c *Chunk, members int) ([]byte, error) {
	data := c.Data
	base := len(dst)
	dst = ensureCap(dst, chunkHeaderSize+3*len(c.lengths)+8*members+len(data)+len(data)/128+64)
	dst = encodeChunkHeader(dst, c, chunkVersionParallel, CompressGzip)
	idxStart := len(dst)
	dst = appendChunkIndex(dst, c)
	idxLen := len(dst) - idxStart
	crc := crc32.ChecksumIEEE(data)

	// Split into near-equal member payloads.
	bounds := make([]int, members+1)
	for i := 1; i < members; i++ {
		bounds[i] = i * len(data) / members
	}
	bounds[members] = len(data)

	comps := make([]*[]byte, members)
	run := func(i int) {
		buf := memberScratchPool.Get().(*[]byte)
		part := data[bounds[i]:bounds[i+1]]
		*buf = deflate.AppendGzip((*buf)[:0], part, crc32.ChecksumIEEE(part), nil)
		comps[i] = buf
	}
	if members == 1 {
		run(0)
	} else if err := cd.submitMembers(members, run); err != nil {
		return nil, err
	}

	// Member table, then the concatenated members.
	dataStart := len(dst)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(members))
	dst = append(dst, u32[:]...)
	for _, cb := range comps {
		binary.LittleEndian.PutUint32(u32[:], uint32(len(*cb)))
		dst = append(dst, u32[:]...)
	}
	for i := range comps {
		binary.LittleEndian.PutUint32(u32[:], uint32(bounds[i+1]-bounds[i]))
		dst = append(dst, u32[:]...)
	}
	for _, cb := range comps {
		dst = append(dst, *cb...)
		memberScratchPool.Put(cb)
	}
	patchChunkHeader(dst[base:], idxLen, len(dst)-dataStart, crc)
	return dst, nil
}

// Decode parses a chunk blob of either layout version into a fresh chunk.
func (cd Codec) Decode(blob []byte) (*Chunk, error) {
	c := new(Chunk)
	if err := cd.decodeInto(c, blob, false); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeInto decodes blob into c, reusing its backing arrays and always
// copying data so the chunk owns its memory (required for pooling).
func (cd Codec) DecodeInto(c *Chunk, blob []byte) error {
	return cd.decodeInto(c, blob, true)
}

func (cd Codec) decodeInto(c *Chunk, blob []byte, copyRaw bool) error {
	h, err := parseChunkHeader(blob)
	if err != nil {
		return err
	}
	indexBlock := blob[chunkHeaderSize : chunkHeaderSize+h.indexSize]
	// The data block ends where the header says; a verified CRC32-C footer
	// may follow it (parseChunkHeader checked the exact length either way).
	dataBlock := blob[chunkHeaderSize+h.indexSize : chunkHeaderSize+h.indexSize+h.dataSize]

	lengths, total, err := decodeChunkIndex(c.lengths, indexBlock, h.records)
	if err != nil {
		return err
	}
	c.lengths = lengths
	// A corrupt index can claim an absurd uncompressed size; reject it
	// before allocating. Deflate expands at most ~1032:1, so any honest
	// total is bounded by the stored data block size.
	const maxDeflateRatio = 1032
	if total > uint64(len(dataBlock))*maxDeflateRatio {
		return fmt.Errorf("%w: index sums to %d bytes from a %d-byte data block", ErrCorrupt, total, len(dataBlock))
	}

	var data []byte
	var crc uint32 // IEEE CRC-32 of data
	switch {
	case h.comp == CompressNone && h.version == chunkVersion:
		if uint64(len(dataBlock)) != total {
			return fmt.Errorf("%w: data block is %d bytes, index sums to %d", ErrCorrupt, len(dataBlock), total)
		}
		if copyRaw {
			data = growBytes(c.Data, int(total))
			copy(data, dataBlock)
		} else {
			data = dataBlock
		}
		crc = crc32.ChecksumIEEE(data)
	case h.comp == CompressGzip && h.version == chunkVersion:
		// The member's trailer and the chunk header both state the CRC of
		// the whole data block: one pass checks the two.
		data = growBytes(c.Data, int(total))
		if crc, err = gunzipExact(data, dataBlock); err != nil {
			return err
		}
	case h.comp == CompressGzip && h.version == chunkVersionParallel:
		data = growBytes(c.Data, int(total))
		if err := cd.decodeMembers(data, dataBlock); err != nil {
			return err
		}
		crc = crc32.ChecksumIEEE(data)
	default:
		return fmt.Errorf("%w: unknown compression %d (version %d)", ErrCorrupt, h.comp, h.version)
	}

	if crc != h.crc {
		return fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	c.Type = h.typ
	c.FirstOrdinal = h.firstOrdinal
	c.Data = data
	c.offsets = c.offsets[:0]
	c.offsetsOnce = sync.Once{}
	return nil
}

// decodeMembers validates a version-2 member table and inflates the members
// concurrently into dst, which must be exactly the total uncompressed size.
func (cd Codec) decodeMembers(dst []byte, dataBlock []byte) error {
	if len(dataBlock) < 4 {
		return fmt.Errorf("%w: truncated member table", ErrCorrupt)
	}
	members := int(binary.LittleEndian.Uint32(dataBlock[0:4]))
	if members < 1 || members > maxChunkMembers {
		return fmt.Errorf("%w: bad member count %d", ErrCorrupt, members)
	}
	tableSize := 4 + 8*members
	if len(dataBlock) < tableSize {
		return fmt.Errorf("%w: truncated member table", ErrCorrupt)
	}
	compOff := make([]int, members+1)
	uncompOff := make([]int, members+1)
	for i := 0; i < members; i++ {
		compOff[i+1] = compOff[i] + int(binary.LittleEndian.Uint32(dataBlock[4+4*i:]))
		uncompOff[i+1] = uncompOff[i] + int(binary.LittleEndian.Uint32(dataBlock[4+4*members+4*i:]))
		if compOff[i+1] < compOff[i] || uncompOff[i+1] < uncompOff[i] {
			return fmt.Errorf("%w: member size overflow", ErrCorrupt)
		}
	}
	body := dataBlock[tableSize:]
	if compOff[members] != len(body) {
		return fmt.Errorf("%w: member sizes sum to %d, body is %d bytes", ErrCorrupt, compOff[members], len(body))
	}
	if uncompOff[members] != len(dst) {
		return fmt.Errorf("%w: member data is %d bytes, index sums to %d", ErrCorrupt, uncompOff[members], len(dst))
	}

	errs := make([]error, members)
	run := func(i int) {
		_, errs[i] = gunzipExact(dst[uncompOff[i]:uncompOff[i+1]], body[compOff[i]:compOff[i+1]])
	}
	if members == 1 {
		run(0)
	} else if err := cd.submitMembers(members, run); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// submitMembers runs the member tasks on the codec's executor, pinned to the
// codec's shard when WithShard set one.
func (cd Codec) submitMembers(members int, run func(i int)) error {
	if cd.shard > 0 {
		return cd.exec().SubmitWaitTo(context.Background(), cd.shard-1, members, func(i int) dataflow.ShardTask {
			return func(int) { run(i) }
		})
	}
	return cd.exec().SubmitWait(context.Background(), members, func(i int) dataflow.Task {
		return func() { run(i) }
	})
}
