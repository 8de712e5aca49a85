package agd

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// This file is the range-read surface of the storage tiering layer: callers
// that need only a slice of a blob — the 40-byte chunk header for an
// existence/metadata probe, or header + index without the (much larger) data
// block — can fetch exactly those bytes instead of the whole object. On
// DirStore, adjacent ranges coalesce into one preadv-style vectored syscall
// (store_linux.go; portable ReadAt fallback in store_portable.go).

// ByteRange addresses Len bytes at Off within a blob.
type ByteRange struct {
	Off int64
	Len int
}

// RangeBlobStore is a BlobStore that can serve sub-ranges of a blob without
// materializing the rest of it.
type RangeBlobStore interface {
	BlobStore
	// GetRange returns exactly n bytes of the blob at off. It fails with
	// ErrNotFound if the blob does not exist and io.ErrUnexpectedEOF if the
	// blob is shorter than off+n.
	GetRange(name string, off int64, n int) ([]byte, error)
	// GetRanges returns one buffer per range, in order, with the same error
	// contract as GetRange. Implementations coalesce adjacent ranges where
	// the backend allows (DirStore turns a contiguous run into a single
	// vectored read scattered across the result buffers).
	GetRanges(name string, ranges []ByteRange) ([][]byte, error)
}

// RangeOf returns store as a RangeBlobStore. Only DirStore passes through,
// because its vectored positional reads move just the requested bytes; every
// other store and wrapper gets the adapter, which slices each range out of
// one full Get — correct everywhere, byte-saving only where the store
// cooperates.
func RangeOf(store BlobStore) RangeBlobStore {
	if rs, ok := store.(RangeBlobStore); ok {
		return rs
	}
	return rangeAdapter{store}
}

// rangeAdapter emulates range reads on a plain BlobStore by slicing the full
// blob. The returned slices alias what Get returned (on a MemStore, the
// stored blob itself); callers must not mutate them.
type rangeAdapter struct {
	BlobStore
}

// inBlob reports whether [off, off+n) lies within a blob of size bytes,
// without letting off+n overflow.
func inBlob(off int64, n int, size int64) bool {
	return off >= 0 && n >= 0 && off <= size && int64(n) <= size-off
}

func (a rangeAdapter) GetRange(name string, off int64, n int) ([]byte, error) {
	bufs, err := a.GetRanges(name, []ByteRange{{Off: off, Len: n}})
	if err != nil {
		return nil, err
	}
	return bufs[0], nil
}

func (a rangeAdapter) GetRanges(name string, ranges []ByteRange) ([][]byte, error) {
	blob, err := a.Get(name)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(ranges))
	for i, r := range ranges {
		if !inBlob(r.Off, r.Len, int64(len(blob))) {
			return nil, fmt.Errorf("get range %q [%d:+%d]: %w", name, r.Off, r.Len, io.ErrUnexpectedEOF)
		}
		out[i] = blob[r.Off : r.Off+int64(r.Len)]
	}
	return out, nil
}

// GetRange implements RangeBlobStore with a positional read of exactly the
// requested window — no stat, no full-file buffer.
func (s *DirStore) GetRange(name string, off int64, n int) ([]byte, error) {
	bufs, err := s.GetRanges(name, []ByteRange{{Off: off, Len: n}})
	if err != nil {
		return nil, err
	}
	return bufs[0], nil
}

// GetRanges implements RangeBlobStore. The file opens once, and every range
// is checked against its size before any buffer is allocated; maximal runs
// of exactly-adjacent ranges (each starting where the previous ended)
// collapse into a single vectored positional read — one preadv syscall
// scattering a contiguous region across the result buffers on Linux, a
// ReadAt loop elsewhere. Disjoint ranges cost one vectored read each.
func (s *DirStore) GetRanges(name string, ranges []ByteRange) ([][]byte, error) {
	f, err := os.Open(s.path(name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("get range %q: %w", name, ErrNotFound)
		}
		return nil, fmt.Errorf("get range %q: %w", name, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("get range %q: %w", name, err)
	}
	out := make([][]byte, len(ranges))
	for i, r := range ranges {
		if !inBlob(r.Off, r.Len, info.Size()) {
			return nil, fmt.Errorf("get range %q [%d:+%d]: %w", name, r.Off, r.Len, io.ErrUnexpectedEOF)
		}
		out[i] = make([]byte, r.Len)
	}
	for i := 0; i < len(ranges); {
		// Extend the run while the next range starts exactly where this
		// one ends.
		j := i + 1
		end := ranges[i].Off + int64(ranges[i].Len)
		for j < len(ranges) && ranges[j].Off == end {
			end += int64(ranges[j].Len)
			j++
		}
		if err := readVectored(f, ranges[i].Off, out[i:j]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("get range %q [%d:+%d]: %w",
					name, ranges[i].Off, end-ranges[i].Off, io.ErrUnexpectedEOF)
			}
			return nil, fmt.Errorf("get range %q: %w", name, err)
		}
		i = j
	}
	return out, nil
}

// ChunkMeta is the decoded fixed header of a stored chunk blob — everything
// a caller can learn about a chunk without fetching its index or data.
type ChunkMeta struct {
	Version      uint8
	Type         RecordType
	Compression  Compression
	Records      uint32
	FirstOrdinal uint64
	IndexSize    uint64
	DataSize     uint64
}

// ReadChunkMeta fetches and validates just the 40-byte header of a chunk
// blob through RangeOf(store) — an existence + metadata probe that moves 40
// bytes instead of the whole object on a DirStore.
func ReadChunkMeta(store BlobStore, name string) (ChunkMeta, error) {
	hdr, err := RangeOf(store).GetRange(name, 0, chunkHeaderSize)
	if err != nil {
		return ChunkMeta{}, err
	}
	return parseChunkMeta(hdr)
}

// parseChunkMeta decodes and sanity-checks a bare 40-byte header.
func parseChunkMeta(hdr []byte) (ChunkMeta, error) {
	if len(hdr) < chunkHeaderSize {
		return ChunkMeta{}, fmt.Errorf("%w: truncated header", ErrBadMagic)
	}
	if string(hdr[0:4]) != chunkMagic {
		return ChunkMeta{}, ErrBadMagic
	}
	m := ChunkMeta{
		Version:      hdr[4],
		Type:         RecordType(hdr[5]),
		Compression:  Compression(hdr[6]),
		Records:      binary.LittleEndian.Uint32(hdr[8:12]),
		FirstOrdinal: binary.LittleEndian.Uint64(hdr[12:20]),
		IndexSize:    binary.LittleEndian.Uint64(hdr[20:28]),
		DataSize:     binary.LittleEndian.Uint64(hdr[28:36]),
	}
	if m.Version != chunkVersion && m.Version != chunkVersionParallel {
		return ChunkMeta{}, fmt.Errorf("%w: unsupported chunk version %d", ErrCorrupt, m.Version)
	}
	return m, nil
}

var (
	_ RangeBlobStore = (*DirStore)(nil)
	_ RangeBlobStore = rangeAdapter{}
)
