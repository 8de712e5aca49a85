package agdsort

import (
	"fmt"
	"math/rand"
	"testing"

	"persona/internal/agd"
)

// benchEntries builds n packed entries with location-like keys (a few
// varying low bytes plus the unmapped bit) or metadata-prefix keys.
func benchEntries(n int, metadata bool) ([]sortEntry, *agd.RecordArena) {
	rng := rand.New(rand.NewSource(59))
	arena := agd.NewRecordArena(0, n)
	keys := make([]sortEntry, n)
	for i := range keys {
		if metadata {
			rec := []byte(fmt.Sprintf("sim.%07d", rng.Intn(1<<20)))
			keys[i] = sortEntry{key: prefixKey(rec), row: uint32(i)}
			arena.Append(rec)
			continue
		}
		k := uint64(rng.Intn(200_000))
		if rng.Intn(20) == 0 {
			k = unmappedKey
		}
		keys[i] = sortEntry{key: k, row: uint32(i)}
		arena.Append(nil)
	}
	return keys, arena
}

// BenchmarkKernel_SortEntries compares phase 1's LSD radix passes against
// the slices.SortFunc comparison sort on the same packed entries (the
// Table2_Sorts run-sorting kernel).
func BenchmarkKernel_SortEntries(b *testing.B) {
	const n = 100_000
	for _, mode := range []string{"location", "metadata"} {
		keys, arena := benchEntries(n, mode == "metadata")
		by := ByLocation
		if mode == "metadata" {
			by = ByMetadata
		}
		work := make([]sortEntry, n)
		scratch := make([]sortEntry, n)
		b.Run("radix/by="+mode, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n * 12))
			for i := 0; i < b.N; i++ {
				copy(work, keys)
				radixSortEntries(work, scratch)
				if by == ByMetadata {
					resolvePrefixTies(arena, work)
				}
			}
		})
		b.Run("comparison/by="+mode, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n * 12))
			for i := 0; i < b.N; i++ {
				copy(work, keys)
				comparisonSortKeys(arena, work, by)
			}
		})
	}
}
