package snap

import (
	"fmt"
	"slices"

	"persona/internal/agd"
	"persona/internal/align"
	"persona/internal/genome"
)

// Config parameterizes alignment.
type Config struct {
	// MaxDist is the maximum edit distance accepted (default 12).
	MaxDist int
	// SeedStride is the spacing between seed sampling offsets within a read
	// (default seedLen/2, minimum 1).
	SeedStride int
	// MaxCandidates caps the verified candidate locations per read
	// direction (default 64). Candidates beyond the cap are counted toward
	// ambiguity but not verified.
	MaxCandidates int
	// MinInsert/MaxInsert bound proper-pair insert sizes (defaults 50/1000).
	MinInsert, MaxInsert int
}

func (c Config) withDefaults(seedLen int) Config {
	if c.MaxDist <= 0 {
		c.MaxDist = 12
	}
	if c.SeedStride <= 0 {
		c.SeedStride = seedLen / 2
		if c.SeedStride < 1 {
			c.SeedStride = 1
		}
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 64
	}
	if c.MinInsert <= 0 {
		c.MinInsert = 50
	}
	if c.MaxInsert <= 0 {
		c.MaxInsert = 1000
	}
	return c
}

// Aligner aligns reads against a SNAP index. Aligners are stateless between
// calls except for scratch buffers, so one Aligner must be used by a single
// goroutine; create one per worker (they share the read-only index).
//
// All per-read state lives in reused scratch buffers, so steady-state
// AlignRead performs no heap allocation (the hot-loop requirement of §6:
// the aligner is core bound, and allocator traffic is pure overhead).
type Aligner struct {
	idx *Index
	cfg Config

	// scratch
	rc       [2][]byte // reverse complements, one per read of a pair
	seeds    []seedRef // the sampled seeds of both strands of one read
	cands    []candidate
	lv       align.LVScratch
	exact    [1]align.CigarElem // the nM CIGAR of a distance-0 hit
	cigarBuf []byte
	cigarTab map[string]string
	scoreBuf [2][]scored
	counts   Stats
}

// maxCigarTab bounds the interned-CIGAR table. Real read sets repeat a small
// set of CIGARs ("101M", one-indel variants, ...), so the table converges and
// steady-state AlignRead allocates nothing; the bound keeps pathological
// inputs from growing it without limit.
const maxCigarTab = 1 << 14

// Stats counts aligner work for the perfmodel instrumentation.
type Stats struct {
	Reads         int64
	SeedLookups   int64
	CandidatesxLV int64 // Landau-Vishkin verifications
	LVCells       int64 // measured LV dependent operations (extends + diagonal updates)
	BytesCompared int64 // reference window bytes touched during verification
	Aligned       int64
}

type candidate struct {
	pos int64
	rc  bool
}

// NewAligner returns an aligner over idx.
func NewAligner(idx *Index, cfg Config) *Aligner {
	c := cfg.withDefaults(idx.seedLen)
	return &Aligner{
		idx:      idx,
		cfg:      c,
		cands:    make([]candidate, 0, c.MaxCandidates*2),
		cigarBuf: make([]byte, 0, 64),
		cigarTab: make(map[string]string, 64),
	}
}

// Stats returns accumulated work counters.
func (a *Aligner) Stats() Stats { return a.counts }

// AlignRead aligns a single read and returns its result record.
func (a *Aligner) AlignRead(bases []byte) agd.Result {
	a.counts.Reads++
	best, second, bestCount, bestCand := a.findBest(bases)
	if bestCand == nil {
		return agd.Result{
			Location:     agd.UnmappedLocation,
			MateLocation: agd.UnmappedLocation,
			Flags:        agd.FlagUnmapped,
			MapQ:         0,
		}
	}
	a.counts.Aligned++
	return a.finish(0, bases, *bestCand, best, second, bestCount)
}

// findBest gathers and verifies candidates for both strands, returning the
// best and second-best edit distances, the count of locations achieving the
// best, and the best candidate.
func (a *Aligner) findBest(bases []byte) (best, second, bestCount int, bestCand *candidate) {
	cfg := a.cfg
	rcBases := a.gatherCandidates(0, bases)
	best, second = cfg.MaxDist+1, -1
	bestCount = 0
	for i := range a.cands {
		c := a.cands[i]
		query := bases
		if c.rc {
			query = rcBases
		}
		// Verify with a bound just past the current best: wide enough to
		// find ties and the second-best distances that set MAPQ, tight
		// enough to cut LV work once a good hit exists.
		d := a.verify(query, c.pos, min(best+6, cfg.MaxDist))
		if d < 0 {
			continue
		}
		switch {
		case d < best:
			if best <= cfg.MaxDist {
				second = best
			}
			best = d
			bestCount = 1
			bestCand = &a.cands[i]
		case d == best:
			bestCount++
			if second < 0 || d < second {
				second = d
			}
		case second < 0 || d < second:
			second = d
		}
	}
	if best > cfg.MaxDist {
		return 0, 0, 0, nil
	}
	return best, second, bestCount, bestCand
}

// gatherCandidates fills a.cands with the distinct candidate positions that
// seeds at every SeedStride-th read offset vote for, forward strand first,
// each strand in offset order, capped at MaxCandidates*2. It works in three
// waves — sample the seed keys of both strands, load all their home slots,
// then probe — so the seed table's cache misses overlap instead of each
// waiting for the previous seed's candidates to be scanned. It returns the
// reverse complement of bases, kept in a.rc[which] until the next call with
// the same which, so verify and finish reuse it.
func (a *Aligner) gatherCandidates(which int, bases []byte) []byte {
	a.cands = a.cands[:0]
	rc := genome.ReverseComplementScratch(a.rc[which], bases)
	a.rc[which] = rc
	a.seeds = a.sampleSeeds(a.sampleSeeds(a.seeds[:0], bases, false), rc, true)
	// Counted per sampled offset of both strands, ambiguous or not, whether
	// or not the candidate cap cuts the probing short.
	if lastOffset := len(bases) - a.idx.seedLen; lastOffset >= 0 {
		a.counts.SeedLookups += 2 * int64(lastOffset/a.cfg.SeedStride+1)
	}
	loadHomes(a.idx.slots, a.idx.shift, a.seeds)
	maxPos := a.idx.gen.Len() + int64(a.cfg.MaxDist) - int64(len(bases))
	for i := range a.seeds {
		s := &a.seeds[i]
		for _, loc := range a.idx.locations(s) {
			// Few candidates survive per read, so scanning those kept so
			// far dedups in first-seen order with no set to maintain.
			c := candidate{pos: int64(loc) - int64(s.off), rc: s.rc}
			if c.pos < 0 || c.pos > maxPos || slices.Contains(a.cands, c) {
				continue
			}
			a.cands = append(a.cands, c)
			if len(a.cands) == a.cfg.MaxCandidates*2 {
				return rc
			}
		}
	}
	return rc
}

// sampleSeeds appends the seed at every SeedStride-th offset of one strand
// that holds no ambiguous base, rolling the 2-bit key across seq so each base
// is encoded once.
func (a *Aligner) sampleSeeds(seeds []seedRef, seq []byte, rc bool) []seedRef {
	seedLen := a.idx.seedLen
	var key uint64
	valid := 0 // bases since the last ambiguous one
	next := 0  // next sampled seed offset
	for i, b := range seq {
		code := genome.Code(b)
		key = key<<2 | uint64(code&3)
		valid++
		if code > 3 {
			valid = 0
		}
		off := i - seedLen + 1
		if off != next {
			continue
		}
		next += a.cfg.SeedStride
		if valid >= seedLen {
			seeds = append(seeds, seedRef{key: key & a.idx.keyMask, off: int32(off), rc: rc})
		}
	}
	return seeds
}

// verify runs bounded Landau-Vishkin of query at pos, returning the edit
// distance or -1.
func (a *Aligner) verify(query []byte, pos int64, maxK int) int {
	if maxK < 0 {
		return -1
	}
	window := a.window(pos, len(query)+maxK)
	if window == nil {
		return -1
	}
	a.counts.CandidatesxLV++
	d, ops := a.lv.DistanceOps(query, window, maxK)
	a.counts.LVCells += int64(ops)
	a.counts.BytesCompared += int64(len(window))
	return d
}

// window slices the reference at [pos, pos+n), truncating at the genome end.
func (a *Aligner) window(pos int64, n int) []byte {
	if pos < 0 || pos >= a.idx.gen.Len() {
		return nil
	}
	end := pos + int64(n)
	if end > a.idx.gen.Len() {
		end = a.idx.gen.Len()
	}
	w, err := a.idx.gen.Slice(pos, int(end-pos))
	if err != nil {
		return nil
	}
	return w
}

// finish recovers the winning candidate's CIGAR and builds the result record.
// best is the distance Landau-Vishkin verified for c, so the waves the CIGAR
// is read from (see LVScratch.Align) are run again to exactly that distance —
// uncounted, as the CIGAR pass always was — and a distance-0 hit needs none.
// which names the a.rc buffer gatherCandidates left bases' reverse complement
// in.
func (a *Aligner) finish(which int, bases []byte, c candidate, best, second, bestCount int) agd.Result {
	a.exact[0] = align.CigarElem{Len: len(bases), Op: align.CigarMatch}
	cigar := align.Cigar(a.exact[:])
	if best > 0 {
		query := bases
		if c.rc {
			query = a.rc[which]
		}
		var dist int
		dist, cigar, _ = a.lv.Align(query, a.window(c.pos, len(query)+best), best)
		if dist < 0 {
			// The LV verification succeeded, so this cannot happen with a
			// consistent implementation; treat defensively as unmapped.
			return agd.Result{Location: agd.UnmappedLocation, MateLocation: agd.UnmappedLocation, Flags: agd.FlagUnmapped}
		}
	}
	var flags uint16
	if c.rc {
		flags |= agd.FlagReverse
	}
	return agd.Result{
		Location:     c.pos,
		MateLocation: agd.UnmappedLocation,
		Score:        int32(best),
		MapQ:         align.MapQ(best, second, bestCount),
		Flags:        flags,
		Cigar:        a.internCigar(cigar),
	}
}

// internCigar renders a CIGAR into the aligner's scratch and interns the
// text in a bounded table, so a repeated CIGAR costs no allocation.
func (a *Aligner) internCigar(c align.Cigar) string {
	a.cigarBuf = c.AppendText(a.cigarBuf[:0])
	if s, ok := a.cigarTab[string(a.cigarBuf)]; ok {
		return s
	}
	if len(a.cigarTab) >= maxCigarTab {
		clear(a.cigarTab)
	}
	s := string(a.cigarBuf)
	a.cigarTab[s] = s
	return s
}

// Validate sanity-checks a configuration against an index.
func (c Config) Validate(idx *Index) error {
	cfg := c.withDefaults(idx.seedLen)
	if cfg.MinInsert >= cfg.MaxInsert {
		return fmt.Errorf("snap: MinInsert %d >= MaxInsert %d", cfg.MinInsert, cfg.MaxInsert)
	}
	return nil
}
