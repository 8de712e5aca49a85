package agd

import "fmt"

// StitchManifest assembles one ordered manifest from per-partition chunk
// entry lists: parts[k] holds partition k's chunks in row order, with
// whatever partition-local First values their writer used. The stitched
// manifest renumbers First cumulatively in concatenation order (partition 0
// first), so the result validates as one contiguous dataset; entry Paths
// are kept as given, which is how a dataset's chunks can live under
// per-partition blob prefixes. Empty partitions are skipped.
//
// Readers never check a stored chunk's header ordinal against the manifest
// entry, so partition-local chunk blobs are served unmodified under the
// stitched manifest's global numbering.
func StitchManifest(name string, cols []ColumnSpec, parts [][]ChunkEntry, refSeqs []RefSeq, sortedBy string) (*Manifest, error) {
	var entries []ChunkEntry
	var first uint64
	for _, part := range parts {
		for _, e := range part {
			if e.Records == 0 {
				continue
			}
			e.First = first
			first += uint64(e.Records)
			entries = append(entries, e)
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("agd: stitch %q: no rows", name)
	}
	m := newManifest(name, cols, entries, refSeqs, sortedBy)
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("agd: stitch %q: %w", name, err)
	}
	return m, nil
}
