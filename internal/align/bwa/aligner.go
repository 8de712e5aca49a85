package bwa

import (
	"sort"

	"persona/internal/agd"
	"persona/internal/align"
	"persona/internal/genome"
)

// BWA-MEM's defaults: the aligner's one configuration.
const (
	// minSeedLen is the minimum maximal-exact-match length used as a seed.
	minSeedLen = 19
	// maxOcc skips seeds occurring more often than this.
	maxOcc = 64
	// maxChains bounds how many candidate chains are extended per strand.
	maxChains = 8
	// pad is the reference window padding around a chain during extension.
	pad = 16
	// minScore is the minimum accepted Smith-Waterman score.
	minScore = 30
)

// Stats counts aligner work for the perfmodel instrumentation.
type Stats struct {
	Reads    int64
	Seeds    int64
	FMProbes int64 // rank queries (random memory accesses)
	SWCells  int64 // Smith-Waterman cells filled (compute)
	Aligned  int64
}

// Aligner aligns reads using an FM-index. Like the SNAP aligner, each
// Aligner is single-goroutine; workers share the read-only index.
type Aligner struct {
	idx     *FMIndex
	gen     *genome.Genome
	scoring align.Scoring
	counts  Stats
	rcBuf   []byte
}

// NewAligner returns an aligner over the index of g.
func NewAligner(idx *FMIndex, g *genome.Genome) *Aligner {
	return &Aligner{idx: idx, gen: g, scoring: align.DefaultScoring()}
}

// Stats returns accumulated work counters (including FM probes, which are
// index-wide across all aligners sharing it).
func (a *Aligner) Stats() Stats {
	s := a.counts
	s.FMProbes = a.idx.Probes.Load()
	return s
}

// seed is a maximal exact match of read[qBeg:qEnd) with an SA interval.
type seed struct {
	qBeg, qEnd int
	lo, hi     int32
}

// maximalSeeds finds greedy right-to-left maximal exact matches of at least
// minSeedLen bases (backward-search seeding).
func (a *Aligner) maximalSeeds(enc []byte) []seed {
	var seeds []seed
	end := len(enc)
	for end > 0 {
		lo, hi := int32(0), int32(a.idx.n)
		start := end
		for start > 0 {
			s := enc[start-1]
			if s < 1 || s > 4 {
				break
			}
			nlo, nhi := a.idx.extend(lo, hi, s)
			if nlo >= nhi {
				break
			}
			lo, hi = nlo, nhi
			start--
		}
		if end-start >= minSeedLen {
			seeds = append(seeds, seed{qBeg: start, qEnd: end, lo: lo, hi: hi})
			a.counts.Seeds++
		}
		if start == end {
			end-- // no progress (ambiguous base or immediate mismatch)
		} else {
			end = start
		}
	}
	return seeds
}

// chain accumulates seed coverage on one diagonal.
type chain struct {
	diag   int64 // refPos - qBeg
	weight int   // total seeded bases
	qBeg   int
	refPos int64
}

// candidateChains maps seeds to diagonals and returns the strongest chains.
func (a *Aligner) candidateChains(seeds []seed) []chain {
	byDiag := make(map[int64]*chain)
	for _, s := range seeds {
		if s.hi-s.lo > maxOcc {
			continue // repeat seed
		}
		for _, refPos := range a.idx.Locate(s.lo, s.hi, maxOcc) {
			diag := int64(refPos) - int64(s.qBeg)
			c, ok := byDiag[diag]
			if !ok {
				byDiag[diag] = &chain{diag: diag, weight: s.qEnd - s.qBeg, qBeg: s.qBeg, refPos: int64(refPos)}
				continue
			}
			c.weight += s.qEnd - s.qBeg
			if s.qBeg < c.qBeg {
				c.qBeg = s.qBeg
				c.refPos = int64(refPos)
			}
		}
	}
	chains := make([]chain, 0, len(byDiag))
	for _, c := range byDiag {
		chains = append(chains, *c)
	}
	sort.Slice(chains, func(i, j int) bool {
		if chains[i].weight != chains[j].weight {
			return chains[i].weight > chains[j].weight
		}
		return chains[i].diag < chains[j].diag
	})
	if len(chains) > maxChains {
		chains = chains[:maxChains]
	}
	return chains
}

// extension is a scored candidate alignment.
type extension struct {
	score int32
	pos   int64
	rc    bool
	cigar align.Cigar
}

// extendChain Smith-Watermans the read against the chain's reference window
// and converts the local alignment into a soft-clipped candidate.
func (a *Aligner) extendChain(read []byte, c chain, rc bool) (extension, bool) {
	winStart := c.diag - pad
	winLen := len(read) + 2*pad
	if winStart < 0 {
		winLen += int(winStart)
		winStart = 0
	}
	if winStart+int64(winLen) > a.gen.Len() {
		winLen = int(a.gen.Len() - winStart)
	}
	if winLen <= 0 {
		return extension{}, false
	}
	window, err := a.gen.Slice(winStart, winLen)
	if err != nil {
		return extension{}, false
	}
	a.counts.SWCells += int64(len(read) * winLen)
	res := align.SmithWaterman(read, window, a.scoring)
	if res.Score < minScore {
		return extension{}, false
	}
	cigar := res.Cigar
	if res.QueryBeg > 0 {
		cigar = append(align.Cigar{{Len: res.QueryBeg, Op: align.CigarSoftClip}}, cigar...)
	}
	if tail := len(read) - res.QueryEnd; tail > 0 {
		cigar = append(cigar, align.CigarElem{Len: tail, Op: align.CigarSoftClip})
	}
	return extension{
		score: res.Score,
		pos:   winStart + int64(res.RefBeg),
		rc:    rc,
		cigar: cigar,
	}, true
}

// bestExtensions aligns the read on both strands and returns all accepted
// extensions sorted by score (best first).
func (a *Aligner) bestExtensions(bases []byte) []extension {
	var out []extension
	for _, dir := range [2]struct {
		seq []byte
		rc  bool
	}{{bases, false}, {a.reverseComplement(bases), true}} {
		enc := EncodeQuery(dir.seq)
		seeds := a.maximalSeeds(enc)
		for _, c := range a.candidateChains(seeds) {
			if ext, ok := a.extendChain(dir.seq, c, dir.rc); ok {
				out = append(out, ext)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].pos < out[j].pos
	})
	// Deduplicate identical positions (same alignment found via different
	// chains).
	dedup := out[:0]
	for _, e := range out {
		if len(dedup) > 0 {
			last := dedup[len(dedup)-1]
			if last.pos == e.pos && last.rc == e.rc {
				continue
			}
		}
		dedup = append(dedup, e)
	}
	return dedup
}

// AlignRead aligns a single read.
func (a *Aligner) AlignRead(bases []byte) agd.Result {
	a.counts.Reads++
	exts := a.bestExtensions(bases)
	if len(exts) == 0 {
		return agd.Result{Location: agd.UnmappedLocation, MateLocation: agd.UnmappedLocation, Flags: agd.FlagUnmapped}
	}
	a.counts.Aligned++
	best := exts[0]
	second := int32(-1 << 30)
	bestCount := 1
	for _, e := range exts[1:] {
		if e.score == best.score {
			bestCount++
		}
		if e.score > second && e.score < best.score {
			second = e.score
		}
		if e.score == best.score {
			second = e.score
		}
	}
	var flags uint16
	if best.rc {
		flags |= agd.FlagReverse
	}
	return agd.Result{
		Location:     best.pos,
		MateLocation: agd.UnmappedLocation,
		Score:        best.score,
		MapQ:         align.MapQFromScores(best.score, second, bestCount, a.scoring.Match),
		Flags:        flags,
		Cigar:        best.cigar.String(),
	}
}

func (a *Aligner) reverseComplement(bases []byte) []byte {
	if cap(a.rcBuf) < len(bases) {
		a.rcBuf = make([]byte, len(bases))
	}
	a.rcBuf = a.rcBuf[:len(bases)]
	return genome.ReverseComplement(a.rcBuf, bases)
}
