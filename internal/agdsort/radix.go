package agdsort

import (
	"bytes"
	"slices"

	"persona/internal/agd"
)

// Phase-1 run sorting. The packed sortEntry array is ordered with an LSD
// radix sort: byte-wide counting passes over only the key bytes that
// actually vary across the run (genome locations occupy the low 3–4 bytes,
// read-ID prefixes a similar span, so most of the 8 passes a naive uint64
// radix would make are skipped). Counting sort is stable, so entries with
// equal packed keys keep their row order — exactly the comparison sort's
// row-index tiebreak. ByMetadata keys that collide on the 8-byte prefix are
// resolved afterwards with a full-byte comparison within each equal-prefix
// group.

// radixMinLen is the size below which pdqsort's lower constant factors beat
// the radix passes; small runs fall back to the comparison sort.
const radixMinLen = 96

// sortKeys orders the packed entries, with scratch, grown to len(keys) and
// returned, as the radix passes' second buffer. The paper notes Persona's
// in-memory phase is "currently naive, using std::sort() across chunks"; the
// radix sort moves 12-byte entries in O(varying bytes) passes instead.
func sortKeys(keyArena *agd.RecordArena, keys, scratch []sortEntry, by Key) []sortEntry {
	if len(keys) < radixMinLen {
		comparisonSortKeys(keyArena, keys, by)
		return scratch
	}
	scratch = slices.Grow(scratch[:0], len(keys))[:len(keys)]
	radixSortEntries(keys, scratch)
	if by == ByMetadata {
		resolvePrefixTies(keyArena, keys)
	}
	return scratch
}

// comparisonSortKeys is the slices.SortFunc (pdqsort) path: primary packed
// key, ByMetadata prefix ties on full key bytes, final tie on row index —
// which both reproduces a stable sort's order and resolves equal 8-byte
// prefixes.
func comparisonSortKeys(keyArena *agd.RecordArena, keys []sortEntry, by Key) {
	slices.SortFunc(keys, func(a, b sortEntry) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		if by == ByMetadata {
			if c := bytes.Compare(keyArena.Record(int(a.row)), keyArena.Record(int(b.row))); c != 0 {
				return c
			}
		}
		return int(a.row) - int(b.row)
	})
}

// radixSortEntries sorts keys by the packed key with stable byte-wide LSD
// passes, ping-ponging between keys and scratch (len(scratch) must equal
// len(keys)). Only byte positions where the keys differ get a pass; the
// result always ends up back in keys.
func radixSortEntries(keys, scratch []sortEntry) {
	// One OR-reduction finds the varying byte positions.
	var diff uint64
	first := keys[0].key
	for _, e := range keys {
		diff |= e.key ^ first
	}
	if diff == 0 {
		return // all keys equal: stability keeps row order
	}
	var counts [256]int
	src, dst := keys, scratch
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		for i := range counts {
			counts[i] = 0
		}
		for _, e := range src {
			counts[(e.key>>shift)&0xff]++
		}
		sum := 0
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for _, e := range src {
			d := (e.key >> shift) & 0xff
			dst[counts[d]] = e
			counts[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// resolvePrefixTies finishes a ByMetadata radix sort: runs of entries whose
// 8-byte prefixes collide are re-ordered by their full key bytes (ties on
// row index, preserving stability). Groups are rare — read IDs usually
// diverge within 8 bytes — so the scan is the common cost.
func resolvePrefixTies(keyArena *agd.RecordArena, keys []sortEntry) {
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j].key == keys[i].key {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(keys[i:j], func(a, b sortEntry) int {
				if c := bytes.Compare(keyArena.Record(int(a.row)), keyArena.Record(int(b.row))); c != 0 {
					return c
				}
				return int(a.row) - int(b.row)
			})
		}
		i = j
	}
}
