// Package snap implements a SNAP-style short-read aligner [Zaharia et al.,
// CoRR 2011]: a hash-based index of fixed-length reference seeds, candidate
// lookup at several read offsets (issued as one wave of independent table
// loads per read, so their cache misses overlap), Landau-Vishkin verification
// of each candidate with best/second-best tracking, and CIGAR recovery for the
// winner alone, read out of the Landau-Vishkin waves at its verified distance
// (align.LVScratch.Align; no dynamic-programming table). The read's seed keys
// are cut from its bases as the AGD bases column stores them, 2 bits a base
// (agd.PackBases), one 64-bit load a seed on either strand; letters are used
// only to verify candidates. This is the high-throughput aligner of the
// paper's evaluation (§4.3, §5); it is optimized for large memory and many
// cores.
package snap

import (
	"fmt"
	"math/bits"

	"persona/internal/genome"
)

// IndexConfig parameterizes index construction.
type IndexConfig struct {
	// SeedLen is the seed length in bases (max 31). Real SNAP uses ~20 for
	// a 3 Gbp genome; smaller synthetic genomes can use 16.
	SeedLen int
	// MaxSeedHits drops seeds occurring at more than this many locations
	// (repeat masking); 0 means 300.
	MaxSeedHits int
}

// Index is the hash-based seed index: seed value → reference locations (the
// "Genome Index: Seed → Ref. Loc" of Fig. 3). A seed's key is its bases as
// 2-bit codes (A, C, G, T as 0–3), first base in the highest bits: BuildIndex
// codes the genome's letters, the aligner cuts a read's keys from its packed
// record (Aligner.sampleSeeds), and Lookup codes the letters it is given. It
// is one open-addressed table
// of slots (linear probing, power-of-two size, load ≤ 0.5) over one contiguous
// array of locations, so the whole index is two heap objects whatever the
// genome size. A seed that occurs once — nearly every seed of a genome that is
// not repetitive — keeps its location in the slot itself, so only a repeated
// seed costs the second, dependent load into the array. A lookup is a
// multiply, a shift and usually one slot, but for any genome worth indexing
// that slot is a cache miss, so neither the aligner nor the builder looks
// seeds up one at a time: both collect a wave of seeds, load every home slot
// of the wave (independent loads, whose misses the core overlaps) and only
// then resolve them in order.
type Index struct {
	gen     *genome.Genome
	seedLen int
	keyMask uint64 // low 2·seedLen bits
	shift   uint   // 64 − log2(len(slots)), for the Fibonacci hash
	slots   []slot
	locs    []int32 // retained locations of the repeated seeds, grouped by seed, ascending within a seed
	seeds   int     // distinct seeds retained
}

// slot is one seed of the table. n == 0 marks an empty slot (a present seed
// has at least one location), n == 1 a seed whose location is loc[0], and a
// seed with more has them at locs[loc[0]:][:n]. loc is an array so that the
// one location can be handed out as a slice like the others.
type slot struct {
	key uint64
	loc [1]int32
	n   uint32
}

// hits returns the locations of the seed in s, none for an empty slot.
func (x *Index) hits(s *slot) []int32 {
	if s.n <= 1 {
		return s.loc[:s.n]
	}
	return x.locs[s.loc[0]:][:s.n]
}

// minSlots floors the table size, so tiny genomes need no special case.
const minSlots = 16

// tableFor returns an empty table of the smallest power-of-two size that
// holds n seeds at load ≤ 0.5, and the hash shift for that size.
func tableFor(n int) ([]slot, uint) {
	size := minSlots
	for size < 2*n {
		size <<= 1
	}
	return make([]slot, size), uint(64 - bits.TrailingZeros(uint(size)))
}

// seedRef is one seed of a lookup wave: its packed key, where it came from
// (a read offset and strand for the aligner, a genome position for the
// builder) and the copy of its home slot the wave's load pass took.
type seedRef struct {
	key  uint64
	home slot
	off  int32
	rc   bool
}

// homeOf returns the index of key's home slot. Packed 2-bit keys carry their
// entropy in the low bits; the Fibonacci multiplier moves it to the high bits
// the shift keeps. The shift is always below 64; masking it tells the compiler
// so, whose guard for an oversized shift otherwise ties each hash to the slot
// load before it (a false register dependency) and serialises loadHomes.
func homeOf(key uint64, shift uint) uint64 { return (key * 0x9E3779B97F4A7C15) >> (shift & 63) }

// loadHomes copies each seed's home slot into the wave. Nothing here depends
// on an earlier iteration, so the slots' cache misses are in flight together.
func loadHomes(slots []slot, shift uint, wave []seedRef) {
	for i := range wave {
		wave[i].home = slots[homeOf(wave[i].key, shift)]
	}
}

// find returns the slot holding key, or the empty slot where key would go,
// probing linearly from slot i.
func find(slots []slot, i, key uint64) *slot {
	for mask := uint64(len(slots) - 1); ; i = (i + 1) & mask {
		if s := &slots[i]; s.n == 0 || s.key == key {
			return s
		}
	}
}

// BuildIndex indexes every seed of the genome. Seeds containing N are
// skipped. Positions are stored as int32 (genomes beyond 2 Gb would need a
// wider type; hg19 contigs fit individually and the paper's datasets do
// too).
func BuildIndex(g *genome.Genome, cfg IndexConfig) (*Index, error) {
	if cfg.SeedLen <= 0 {
		cfg.SeedLen = 16
	}
	if cfg.SeedLen > 31 {
		return nil, fmt.Errorf("snap: seed length %d exceeds 31", cfg.SeedLen)
	}
	if cfg.MaxSeedHits <= 0 {
		cfg.MaxSeedHits = 300
	}
	if g.Len() > 1<<31-1 {
		return nil, fmt.Errorf("snap: genome too large for int32 locations (%d bases)", g.Len())
	}
	if int64(cfg.SeedLen) > g.Len() {
		return nil, fmt.Errorf("snap: seed length %d exceeds genome length %d", cfg.SeedLen, g.Len())
	}
	idx := &Index{
		gen:     g,
		seedLen: cfg.SeedLen,
		keyMask: uint64(1)<<(2*uint(cfg.SeedLen)) - 1,
	}
	seq := g.Seq()

	// Pass 1, count: n becomes each seed's location count, capped at
	// MaxSeedHits (an overflowing repeat seed keeps only its first
	// MaxSeedHits locations). The table is sized for the worst case, every
	// position a distinct seed, and rebuilt smaller if the genome turns out
	// repetitive enough to halve it.
	slots, shift := tableFor(len(seq) - cfg.SeedLen + 1)
	repeated := 0 // locations locs will hold: those of seeds with more than one
	idx.eachSeed(seq, slots, shift, func(s *slot, key uint64, _ int32) {
		if s.n == 0 {
			s.key = key
			idx.seeds++
		}
		if s.n < uint32(cfg.MaxSeedHits) {
			if s.n++; s.n == 2 {
				repeated += 2
			} else if s.n > 2 {
				repeated++
			}
		}
	})
	if small, smallShift := tableFor(idx.seeds); len(small) < len(slots) {
		for _, s := range slots {
			if s.n > 0 {
				*find(small, homeOf(s.key, smallShift), s.key) = s
			}
		}
		slots, shift = small, smallShift
	}

	// Pass 2, prefix sum: loc[0] becomes each repeated seed's start in locs.
	// The seed's last cell — of a seed with one location, the slot's own —
	// starts as its fill cursor, −(k+1) once k locations are in; locations are
	// never negative, so pass 3 tells a full seed from a filling one without
	// a cursor per slot.
	locs := make([]int32, repeated)
	var off int32
	for i := range slots {
		switch s := &slots[i]; {
		case s.n == 1:
			s.loc[0] = -1
		case s.n > 1:
			s.loc[0] = off
			off += int32(s.n)
			locs[off-1] = -1
		}
	}
	idx.slots, idx.shift, idx.locs = slots, shift, locs

	// Pass 3, fill in genome order, so each seed's locations ascend.
	idx.eachSeed(seq, slots, shift, func(s *slot, _ uint64, pos int32) {
		hits := idx.hits(s)
		cursor := &hits[len(hits)-1]
		if *cursor >= 0 {
			return // full: a repeat seed past MaxSeedHits
		}
		k := -*cursor - 1
		*cursor--
		hits[k] = pos // the last location overwrites the cursor
	})
	return idx, nil
}

// eachSeed calls fn, in position order, with every seed of seq that contains
// no ambiguous base: the slot that holds its key or the empty one where the
// key goes, the packed key and the start position. fn may claim the slot.
// Seeds are resolved a wave at a time, after loadHomes has every home slot of
// the wave on its way into the cache.
func (x *Index) eachSeed(seq []byte, slots []slot, shift uint, fn func(s *slot, key uint64, pos int32)) {
	var buf [64]seedRef
	wave := buf[:0]
	resolve := func() {
		loadHomes(slots, shift, wave)
		for i := range wave {
			// An earlier seed of the wave may have claimed this one's home
			// since the copy was taken, but slots only go from empty to
			// claimed: a copy that holds the key still says where it lives,
			// any other copy says nothing and the live table is probed.
			r := &wave[i]
			h := homeOf(r.key, shift)
			s := &slots[h]
			if r.home.n == 0 || r.home.key != r.key {
				s = find(slots, h, r.key)
			}
			fn(s, r.key, r.off)
		}
		wave = wave[:0]
	}
	var key uint64
	valid := 0 // bases since the last N
	for i, b := range seq {
		code := genome.Code(b)
		if code > 3 {
			valid = 0
			continue
		}
		key = (key<<2 | uint64(code)) & x.keyMask
		if valid++; valid >= x.seedLen {
			if wave = append(wave, seedRef{key: key, off: int32(i - x.seedLen + 1)}); len(wave) == cap(wave) {
				resolve()
			}
		}
	}
	resolve()
}

// SeedLen returns the configured seed length.
func (x *Index) SeedLen() int { return x.seedLen }

// Genome returns the indexed genome.
func (x *Index) Genome() *genome.Genome { return x.gen }

// NumSeeds returns the number of distinct seeds retained.
func (x *Index) NumSeeds() int { return x.seeds }

// locations returns the reference locations of the seed r, whose home slot
// loadHomes has copied: the copy answers when it is empty or holds the key,
// and the probe sequence is walked on from the next slot when it does not.
func (x *Index) locations(r *seedRef) []int32 {
	s := &r.home
	if s.n != 0 && s.key != r.key {
		s = find(x.slots, (homeOf(r.key, x.shift)+1)&uint64(len(x.slots)-1), r.key)
	}
	return x.hits(s)
}

// Lookup returns the reference locations of the seed at bases[i:i+seedLen],
// none when the seed is absent or contains an ambiguous base. The returned
// slice is shared with the index; callers must not mutate it.
func (x *Index) Lookup(bases []byte, i int) []int32 {
	var key uint64
	for _, b := range bases[i : i+x.seedLen] {
		code := genome.Code(b)
		if code > 3 {
			return nil
		}
		key = key<<2 | uint64(code)
	}
	return x.hits(find(x.slots, homeOf(key, x.shift), key))
}
