// Package agd implements the Aggregate Genomic Data format (§3 of the
// paper): an extensible, indexed column store for genomic data.
//
// An AGD dataset is a relational table of records. Fields are stored by
// column; columns are divided into large-granularity chunks that live in
// separate blobs ("files"). A JSON manifest describes the columns, chunks
// and record counts, plus reference-genome metadata. Chunk blobs carry a
// fixed header, a relative index (per-record lengths, from which absolute
// offsets are computed by summation — or materialized on the fly for random
// access), and a compressed data block.
//
// Two size optimizations from the paper are implemented: block compression
// (gzip, or none for a dataset read once; the compression byte in the header
// leaves room for other codecs) and base compaction, which packs base
// letters 2 bits each, four to a byte, with the rare other letter kept aside
// as an N. Packed bases are smaller than gzip makes of the letters, so the
// bases column is the one stored without block compression.
//
// The standard columns are "bases", "qual", "metadata" and (after
// alignment) "results"; new columns can be added freely — they are just new
// blobs plus manifest entries (§3: "AGD is extensible").
//
// Datasets are read through one reader, Dataset.Groups, and written through
// one chunk sink that drains a GroupStream: WriteGroups stores a new
// dataset, WriteChunks a partition of one a coordinator stitches
// (StitchManifest), and WriteColumn one column of an existing dataset, which
// AddColumn registers in its manifest.
package agd

import (
	"errors"
	"fmt"
)

// Standard column names used by Persona.
const (
	ColBases    = "bases"
	ColQual     = "qual"
	ColMetadata = "metadata"
	ColResults  = "results"
)

// RecordType tells applications how to parse the records of a chunk (§3:
// "AGD specifies the record type in the chunk header").
type RecordType uint8

const (
	// TypeRaw records are opaque byte strings (qualities, metadata).
	TypeRaw RecordType = iota
	// TypeCompactBases records are base strings packed 3 bits a base, as
	// earlier releases wrote the bases column. Nothing writes them now: a
	// chunk of them decodes as TypePackedBases.
	TypeCompactBases
	// TypeResults records are encoded alignment Results.
	TypeResults
	// TypePackedBases records are base strings packed 2 bits a base, with
	// runs of any letter but A, C, G and T kept aside and read back as N
	// (compact.go). A dataset sink stores a chunk of them CompressNone, and
	// every other record type with gzip (or none, for a raw dataset).
	TypePackedBases
)

func (t RecordType) String() string {
	switch t {
	case TypeRaw:
		return "raw"
	case TypeCompactBases:
		return "compact-bases"
	case TypeResults:
		return "results"
	case TypePackedBases:
		return "packed-bases"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Compression identifies the block compression applied to a chunk's data
// block. It is selectable column-by-column (§3).
type Compression uint8

const (
	// CompressNone stores the data block raw.
	CompressNone Compression = iota
	// CompressGzip applies stdlib gzip; the paper's deployment choice.
	CompressGzip
)

func (c Compression) String() string {
	switch c {
	case CompressNone:
		return "none"
	case CompressGzip:
		return "gzip"
	default:
		return fmt.Sprintf("Compression(%d)", uint8(c))
	}
}

// DefaultChunkSize is the number of records per chunk used throughout the
// paper's evaluation (§5.2).
const DefaultChunkSize = 100_000

// Errors shared across the package.
var (
	ErrBadMagic = errors.New("agd: bad chunk magic")
	ErrCorrupt  = errors.New("agd: corrupt chunk")
	// ErrChecksum reports a chunk blob whose CRC32-C footer does not match
	// the stored bytes: the blob was corrupted in (or under) the store. It
	// wraps ErrCorrupt, so errors.Is(err, ErrCorrupt) still classifies it;
	// resilience layers treat it as permanent — a retry re-reads the same
	// corrupt replica, so the right response is to fail with coordinates,
	// never to decode garbage.
	ErrChecksum   = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	ErrNoColumn   = errors.New("agd: no such column")
	ErrNoChunk    = errors.New("agd: no such chunk")
	ErrRowGroup   = errors.New("agd: column chunking misaligned (not row-grouped)")
	ErrNotFound   = errors.New("agd: blob not found")
	ErrOutOfRange = errors.New("agd: record index out of range")
	// ErrNoRecords is wrapped when a sink or a sort gets a stream without
	// a record, which no retry fills; its text ends the wrapping message.
	ErrNoRecords = errors.New("no records")
)

// BlobStore abstracts the storage system a dataset lives in. Local
// filesystems and the Ceph-like object store both implement it; the AGD API
// simply layers on top (§7: "The AGD API ... can simply be layered on top of
// different storage or file systems").
type BlobStore interface {
	// Put stores data under name, replacing any previous blob. The store
	// keeps no reference to data once Put returns, so the caller may then
	// overwrite it: writers encode each blob into a buffer they reuse.
	Put(name string, data []byte) error
	// Get retrieves the blob stored under name, or ErrNotFound.
	Get(name string) ([]byte, error)
	// Delete removes the blob if present.
	Delete(name string) error
	// List returns the names of blobs with the given prefix, sorted.
	List(prefix string) ([]string, error)
}

// DeletePrefix deletes every blob whose name starts with prefix: one List,
// then a Delete per name, stopping at the first failure.
func DeletePrefix(store BlobStore, prefix string) error {
	names, err := store.List(prefix)
	if err != nil {
		return fmt.Errorf("agd: list %q: %w", prefix, err)
	}
	for _, name := range names {
		if err := store.Delete(name); err != nil {
			return fmt.Errorf("agd: delete %q: %w", name, err)
		}
	}
	return nil
}
