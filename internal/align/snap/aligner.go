package snap

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
// A read comes in two forms: the bases column's packed record (AlignPacked,
// AlignPackedPair), which is what a pipeline holds, or letters (AlignRead,
// AlignPair), which are packed into scratch. Either way the seeds are cut
// from the packed words and the candidates verified against letters: the
// record's, unpacked, or the caller's as given.
//
// All per-read state lives in reused scratch buffers, so steady-state
// AlignRead and AlignPacked perform no heap allocation (the hot-loop
// requirement of §6: the aligner is core bound, and allocator traffic is pure
// overhead).
type Aligner struct {
	idx *Index
	cfg Config

	// scratch
	reads    [2]readScratch // one per read of a pair
	words    []byte         // the packed bases of the read being sampled, zero-padded
	excl     []byte         // its exception runs, as 2-bit groups of ones in the words' layout
	seeds    []seedRef      // the sampled seeds of both strands of one read
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

// readScratch holds one read of a call: its letters, their reverse
// complement once a reverse-strand candidate needs it, and the buffer its
// other form is converted into.
type readScratch struct {
	rec     []byte // the record AlignRead and AlignPair pack letters into
	letters []byte // the letters AlignPacked and AlignPackedPair unpack
	bases   []byte // the letters the candidates are verified against
	rc      []byte // their reverse complement, once rcDone
	rcDone  bool
}

// pack packs the letters bases into the scratch record and returns it.
func (s *readScratch) pack(bases []byte) []byte {
	s.rec = agd.PackBases(s.rec[:0], bases)
	return s.rec
}

// unpack decodes the packed record rec into the scratch letters and returns
// them.
func (s *readScratch) unpack(rec []byte) ([]byte, error) {
	var err error
	s.letters, err = agd.UnpackBases(s.letters[:0], rec)
	return s.letters, err
}

// query returns the letters a candidate on the rc strand is verified
// against, building the reverse complement on first use.
func (s *readScratch) query(rc bool) []byte {
	if !rc {
		return s.bases
	}
	if !s.rcDone {
		s.rc = genome.ReverseComplementScratch(s.rc, s.bases)
		s.rcDone = true
	}
	return s.rc
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

// AlignRead aligns a single read given as letters and returns its result
// record.
func (a *Aligner) AlignRead(bases []byte) agd.Result {
	return a.alignRead(bases, a.reads[0].pack(bases))
}

// AlignPacked aligns a single read given as its packed bases record
// (agd.PackBases), the form the bases column stores it in. A record that does
// not decode is an error, and the read is not counted.
func (a *Aligner) AlignPacked(rec []byte) (agd.Result, error) {
	bases, err := a.reads[0].unpack(rec)
	if err != nil {
		return agd.Result{}, err
	}
	return a.alignRead(bases, rec), nil
}

// alignRead aligns the read whose letters are bases and whose packed record
// is rec.
func (a *Aligner) alignRead(bases, rec []byte) agd.Result {
	a.counts.Reads++
	best, second, bestCount, bestCand := a.findBest(bases, rec)
	if bestCand == nil {
		return agd.Result{
			Location:     agd.UnmappedLocation,
			MateLocation: agd.UnmappedLocation,
			Flags:        agd.FlagUnmapped,
			MapQ:         0,
		}
	}
	a.counts.Aligned++
	return a.finish(0, *bestCand, best, second, bestCount)
}

// findBest gathers and verifies candidates for both strands, returning the
// best and second-best edit distances, the count of locations achieving the
// best, and the best candidate.
func (a *Aligner) findBest(bases, rec []byte) (best, second, bestCount int, bestCand *candidate) {
	cfg := a.cfg
	read := a.gatherCandidates(0, bases, rec)
	best, second = cfg.MaxDist+1, -1
	bestCount = 0
	for i := range a.cands {
		c := a.cands[i]
		// Verify with a bound just past the current best: wide enough to
		// find ties and the second-best distances that set MAPQ, tight
		// enough to cut LV work once a good hit exists.
		d := a.verify(read.query(c.rc), c.pos, min(best+6, cfg.MaxDist))
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
// waiting for the previous seed's candidates to be scanned. bases and rec are
// the read's letters and packed record; it returns a.reads[which], set up to
// hand verify and finish the letters of either strand until the next call
// with the same which.
func (a *Aligner) gatherCandidates(which int, bases, rec []byte) *readScratch {
	a.cands = a.cands[:0]
	read := &a.reads[which]
	read.bases, read.rcDone = bases, false
	a.seeds = a.sampleSeeds(a.seeds[:0], rec)
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
				return read
			}
		}
	}
	return read
}

// sampleSeeds appends the seeds of the read whose well-formed packed record
// is rec: at every SeedStride-th offset of the forward strand, then of the
// reverse strand, the seed that overlaps no exception run (the letters a
// 2-bit code cannot hold). Every key is cut from one 64-bit load of the
// packed words, the 32 bases from the seed's first on, first base lowest:
// reversing the load's 2-bit groups gives the forward key, first base
// highest as the index packs it, and complementing it gives the key of the
// reverse-strand seed over the same bases.
func (a *Aligner) sampleSeeds(seeds []seedRef, rec []byte) []seedRef {
	n, packed, exceptions, _ := agd.SplitPacked(rec)
	seedLen, stride, mask := a.idx.seedLen, a.cfg.SeedStride, a.idx.keyMask
	if n < seedLen {
		return seeds
	}
	// load reads up to 8 bytes past the byte holding a seed's first base.
	a.words = append(append(a.words[:0], packed...), make([]byte, 8)...)
	var excl []byte
	if len(exceptions) > 0 {
		a.excl = markExceptions(a.excl, len(a.words), exceptions)
		excl = a.excl
	}
	for off := 0; off+seedLen <= n; off += stride {
		if excl == nil || load(excl, off)&mask == 0 {
			seeds = append(seeds, seedRef{key: grev(load(a.words, off)) >> (64 - 2*seedLen), off: int32(off)})
		}
	}
	// The reverse strand's seed at offset off covers the forward bases from
	// n-seedLen-off on.
	for off := 0; off+seedLen <= n; off += stride {
		if p := n - seedLen - off; excl == nil || load(excl, p)&mask == 0 {
			seeds = append(seeds, seedRef{key: ^load(a.words, p) & mask, off: int32(off), rc: true})
		}
	}
	return seeds
}

// load returns the 32 bases of the packed words w from base p on, first base
// in the low bits. w holds at least 9 bytes from base p's.
func load(w []byte, p int) uint64 {
	i, s := p>>2, uint(p&3)*2
	return binary.LittleEndian.Uint64(w[i:])>>s | uint64(w[i+8])<<(64-s)
}

// grev reverses the order of the 32 2-bit groups of x.
func grev(x uint64) uint64 {
	x = bits.ReverseBytes64(x)
	x = x>>4&0x0F0F0F0F0F0F0F0F | x&0x0F0F0F0F0F0F0F0F<<4
	return x>>2&0x3333333333333333 | x&0x3333333333333333<<2
}

// markExceptions returns dst resized to size zeroed bytes, with the bases of
// the exception runs runs (well formed, as agd.PackBases writes them) set to
// 3, in the packed words' layout.
func markExceptions(dst []byte, size int, runs []byte) []byte {
	dst = slices.Grow(dst[:0], size)[:size]
	clear(dst)
	pos := 0
	for len(runs) > 0 {
		gap, a := binary.Uvarint(runs)
		n, b := binary.Uvarint(runs[a:])
		runs = runs[a+b:]
		pos += int(gap)
		for end := pos + int(n); pos < end; pos++ {
			dst[pos>>2] |= 3 << (pos & 3 * 2)
		}
	}
	return dst
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
// which names the a.reads entry gatherCandidates set up for the read.
func (a *Aligner) finish(which int, c candidate, best, second, bestCount int) agd.Result {
	read := &a.reads[which]
	a.exact[0] = align.CigarElem{Len: len(read.bases), Op: align.CigarMatch}
	cigar := align.Cigar(a.exact[:])
	if best > 0 {
		query := read.query(c.rc)
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
