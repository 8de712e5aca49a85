package agd

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
)

// RefSeq records the name and length of one reference contig the dataset was
// aligned against, mirroring the paper's manifest contents ("names and sizes
// of contiguous reference sequences to which the dataset reads have been
// aligned").
type RefSeq struct {
	Name   string `json:"name"`
	Length int64  `json:"length"`
}

// ChunkEntry describes one row-group of chunk files in the manifest.
type ChunkEntry struct {
	// Path is the blob name prefix; column chunks live at Path + "." + col.
	Path string `json:"path"`
	// First is the dataset-wide ordinal of the chunk's first record.
	First uint64 `json:"first"`
	// Records is the number of records in the chunk.
	Records uint32 `json:"records"`
}

// Manifest is the descriptive metadata file of an AGD dataset, stored as
// JSON under "<name>/manifest.json" (Fig. 2 of the paper).
type Manifest struct {
	Name    string       `json:"name"`
	Version int          `json:"version"`
	Columns []string     `json:"columns"`
	Chunks  []ChunkEntry `json:"records"`
	RefSeqs []RefSeq     `json:"ref_seqs,omitempty"`
	// SortedBy records the sort order ("", "location" or "metadata").
	SortedBy string `json:"sorted_by,omitempty"`
}

// manifestPath returns the blob name of a dataset's manifest.
func manifestPath(name string) string { return name + "/manifest.json" }

// chunkPath returns the blob name of one column chunk.
func chunkPath(entry ChunkEntry, col string) string { return entry.Path + "." + col }

// ChunkEntryPath returns the canonical path of chunk idx of a dataset — the
// single definition of the "<name>/chunk-NNNNNN" convention, for the sinks
// and for the cluster coordinator naming the chunks its reduces wrote.
func ChunkEntryPath(dataset string, idx int) string {
	return fmt.Sprintf("%s/chunk-%06d", dataset, idx)
}

// newManifest assembles a manifest in the canonical form WriteGroups and
// StitchManifest store (version, column order from the specs).
func newManifest(name string, cols []ColumnSpec, chunks []ChunkEntry, refSeqs []RefSeq, sortedBy string) *Manifest {
	m := &Manifest{Name: name, Version: 1, Chunks: chunks, RefSeqs: refSeqs, SortedBy: sortedBy}
	for _, c := range cols {
		m.Columns = append(m.Columns, c.Name)
	}
	return m
}

// ChunkBlobPath returns the blob name of column col of chunk i, without
// requiring the column to be listed yet — distributed writers use it to
// store result chunks before the column is registered.
func (m *Manifest) ChunkBlobPath(i int, col string) string {
	return chunkPath(m.Chunks[i], col)
}

// RegisterColumn appends a column name to the manifest (whose chunk blobs
// must already exist, e.g. written by cluster workers) and persists the
// updated manifest. Every chunk blob is probed first, on a bounded worker
// pool, for its 40-byte header through RangeOf(store): the magic, the
// version and the record count the manifest gives that chunk must all hold,
// on every store. A DirStore reads just the header; any other store fetches
// the blob and slices it.
func RegisterColumn(store BlobStore, m *Manifest, col string) (*Manifest, error) {
	if m.HasColumn(col) {
		return nil, fmt.Errorf("agd: dataset %q already has column %q", m.Name, col)
	}
	if err := verifyColumnBlobs(store, m, col); err != nil {
		return nil, err
	}
	updated := *m
	updated.Columns = append(append([]string{}, m.Columns...), col)
	if err := WriteManifest(store, &updated); err != nil {
		return nil, err
	}
	return &updated, nil
}

// registerProbeWorkers bounds concurrent header probes during RegisterColumn.
const registerProbeWorkers = 16

// verifyColumnBlobs checks that every chunk blob of col exists, is a chunk,
// and holds the record count the manifest gives it.
func verifyColumnBlobs(store BlobStore, m *Manifest, col string) error {
	rs := RangeOf(store)
	workers := min(registerProbeWorkers, len(m.Chunks))
	var cursor atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(m.Chunks) {
					errs <- nil
					return
				}
				meta, err := ReadChunkMeta(rs, m.ChunkBlobPath(i, col))
				if err != nil {
					errs <- fmt.Errorf("agd: registering column %q: chunk %d: %w", col, i, err)
					return
				}
				if meta.Records != m.Chunks[i].Records {
					errs <- fmt.Errorf("agd: registering column %q: chunk %d has %d records, manifest says %d",
						col, i, meta.Records, m.Chunks[i].Records)
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumRecords returns the dataset's total record count.
func (m *Manifest) NumRecords() uint64 {
	var n uint64
	for _, c := range m.Chunks {
		n += uint64(c.Records)
	}
	return n
}

// HasColumn reports whether the manifest lists col.
func (m *Manifest) HasColumn(col string) bool {
	for _, c := range m.Columns {
		if c == col {
			return true
		}
	}
	return false
}

// Validate checks manifest invariants: contiguous, row-grouped chunks.
func (m *Manifest) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("agd: manifest has empty name")
	}
	if len(m.Columns) == 0 {
		return fmt.Errorf("agd: manifest %q has no columns", m.Name)
	}
	var next uint64
	for i, c := range m.Chunks {
		if c.First != next {
			return fmt.Errorf("agd: manifest %q chunk %d starts at %d, want %d", m.Name, i, c.First, next)
		}
		if c.Records == 0 {
			return fmt.Errorf("agd: manifest %q chunk %d is empty", m.Name, i)
		}
		next += uint64(c.Records)
	}
	return nil
}

// WriteManifest stores the manifest in the blob store.
func WriteManifest(store BlobStore, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return store.Put(manifestPath(m.Name), data)
}

// ReadManifest loads a dataset's manifest from the blob store.
func ReadManifest(store BlobStore, name string) (*Manifest, error) {
	data, err := store.Get(manifestPath(name))
	if err != nil {
		return nil, fmt.Errorf("agd: reading manifest for %q: %w", name, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("agd: parsing manifest for %q: %w", name, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// ReconstructManifest rebuilds a manifest by listing and inspecting a
// dataset's chunk blobs — the paper notes the manifest "can be reconstructed
// from the set of chunk files it describes".
func ReconstructManifest(store BlobStore, name string) (*Manifest, error) {
	names, err := store.List(name + "/chunk-")
	if err != nil {
		return nil, err
	}
	type chunkInfo struct {
		path    string
		first   uint64
		records uint32
	}
	byPath := make(map[string]*chunkInfo)
	colSet := make(map[string]bool)
	for _, blobName := range names {
		// Blob names look like "<name>/chunk-000042.<col>".
		dot := -1
		for i := len(blobName) - 1; i >= 0; i-- {
			if blobName[i] == '.' {
				dot = i
				break
			}
		}
		if dot < 0 {
			continue
		}
		path, col := blobName[:dot], blobName[dot+1:]
		colSet[col] = true
		blob, err := store.Get(blobName)
		if err != nil {
			return nil, err
		}
		c, err := DecodeChunk(blob)
		if err != nil {
			return nil, fmt.Errorf("agd: reconstructing %q from %q: %w", name, blobName, err)
		}
		info, ok := byPath[path]
		if !ok {
			byPath[path] = &chunkInfo{path: path, first: c.FirstOrdinal, records: uint32(c.NumRecords())}
			continue
		}
		if info.first != c.FirstOrdinal || info.records != uint32(c.NumRecords()) {
			return nil, fmt.Errorf("%w: %q", ErrRowGroup, path)
		}
	}
	if len(byPath) == 0 {
		return nil, fmt.Errorf("agd: no chunks found for dataset %q", name)
	}

	m := &Manifest{Name: name, Version: 1}
	for col := range colSet {
		m.Columns = append(m.Columns, col)
	}
	sort.Strings(m.Columns)
	for _, info := range byPath {
		m.Chunks = append(m.Chunks, ChunkEntry{Path: info.path, First: info.first, Records: info.records})
	}
	sort.Slice(m.Chunks, func(i, j int) bool { return m.Chunks[i].First < m.Chunks[j].First })
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
