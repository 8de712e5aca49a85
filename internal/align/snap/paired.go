package snap

import (
	"persona/internal/agd"
	"persona/internal/align"
)

// scored is a verified candidate.
type scored struct {
	pos  int64
	rc   bool
	dist int
}

// scoreCandidates verifies every gathered candidate of a read and returns
// those within MaxDist. The result is backed by the aligner's scratch slice
// `which` (0 or 1, so a pair's two reads keep separate results) and is valid
// until that scratch is reused.
func (a *Aligner) scoreCandidates(which int, bases, rec []byte) []scored {
	read := a.gatherCandidates(which, bases, rec)
	out := a.scoreBuf[which][:0]
	for _, c := range a.cands {
		d := a.verify(read.query(c.rc), c.pos, a.cfg.MaxDist)
		if d >= 0 {
			out = append(out, scored{pos: c.pos, rc: c.rc, dist: d})
		}
	}
	a.scoreBuf[which] = out
	return out
}

// AlignPair aligns a read pair given as letters, preferring proper pairs
// (opposite strands, forward read leftmost, insert within configured bounds)
// by combined edit distance, falling back to independent single-end
// alignment when no proper pair exists.
func (a *Aligner) AlignPair(bases1, bases2 []byte) (agd.Result, agd.Result) {
	return a.alignPair(bases1, a.reads[0].pack(bases1), bases2, a.reads[1].pack(bases2))
}

// AlignPackedPair is AlignPair over the pair's packed bases records
// (agd.PackBases). A record that does not decode is an error, and the pair is
// not counted.
func (a *Aligner) AlignPackedPair(rec1, rec2 []byte) (agd.Result, agd.Result, error) {
	bases1, err := a.reads[0].unpack(rec1)
	if err != nil {
		return agd.Result{}, agd.Result{}, err
	}
	bases2, err := a.reads[1].unpack(rec2)
	if err != nil {
		return agd.Result{}, agd.Result{}, err
	}
	r1, r2 := a.alignPair(bases1, rec1, bases2, rec2)
	return r1, r2, nil
}

// alignPair aligns the pair whose letters are bases1 and bases2 and whose
// packed records are rec1 and rec2.
func (a *Aligner) alignPair(bases1, rec1, bases2, rec2 []byte) (agd.Result, agd.Result) {
	a.counts.Reads += 2
	s1 := a.scoreCandidates(0, bases1, rec1)
	s2 := a.scoreCandidates(1, bases2, rec2)

	type combo struct {
		c1, c2   scored
		combined int
	}
	bestCombined, secondCombined := 1<<30, -1
	bestCount := 0
	var best combo
	for _, c1 := range s1 {
		for _, c2 := range s2 {
			if c1.rc == c2.rc {
				continue // proper pairs sit on opposite strands
			}
			// The forward-strand read must be leftmost.
			fwd, rev, revLen := c1, c2, len(bases2)
			if c1.rc {
				fwd, rev, revLen = c2, c1, len(bases1)
			}
			insert := rev.pos + int64(revLen) - fwd.pos
			if fwd.pos > rev.pos || insert < int64(a.cfg.MinInsert) || insert > int64(a.cfg.MaxInsert) {
				continue
			}
			combined := c1.dist + c2.dist
			switch {
			case combined < bestCombined:
				if bestCount > 0 {
					secondCombined = bestCombined
				}
				bestCombined = combined
				bestCount = 1
				best = combo{c1: c1, c2: c2, combined: combined}
			case combined == bestCombined:
				// A tie at a different location pair counts as ambiguity.
				if c1.pos != best.c1.pos || c2.pos != best.c2.pos {
					bestCount++
					if secondCombined < 0 || combined < secondCombined {
						secondCombined = combined
					}
				}
			case secondCombined < 0 || combined < secondCombined:
				secondCombined = combined
			}
		}
	}

	if bestCount == 0 {
		// No proper pair: fall back to independent alignment.
		r1 := a.alignRead(bases1, rec1)
		r2 := a.alignRead(bases2, rec2)
		pairFlags(&r1, &r2)
		pairFlags(&r2, &r1)
		r1.Flags |= agd.FlagFirstInPair
		r2.Flags |= agd.FlagSecondInPair
		return r1, r2
	}

	a.counts.Aligned += 2
	mapq := align.MapQ(bestCombined, secondCombined, bestCount)
	r1 := a.finish(0, candidate{pos: best.c1.pos, rc: best.c1.rc}, best.c1.dist, -1, 1)
	r2 := a.finish(1, candidate{pos: best.c2.pos, rc: best.c2.rc}, best.c2.dist, -1, 1)
	r1.MapQ, r2.MapQ = mapq, mapq
	r1.Flags |= agd.FlagPaired | agd.FlagProperPair | agd.FlagFirstInPair
	r2.Flags |= agd.FlagPaired | agd.FlagProperPair | agd.FlagSecondInPair
	if best.c2.rc {
		r1.Flags |= agd.FlagMateReverse
	}
	if best.c1.rc {
		r2.Flags |= agd.FlagMateReverse
	}
	r1.MateLocation, r2.MateLocation = r2.Location, r1.Location

	// Signed template length: leftmost start to rightmost end.
	left, right := r1.Location, r2.Location+int64(len(bases2))
	if r2.Location < r1.Location {
		left, right = r2.Location, r1.Location+int64(len(bases1))
	}
	tlen := int32(right - left)
	if r1.Location <= r2.Location {
		r1.TemplateLen, r2.TemplateLen = tlen, -tlen
	} else {
		r1.TemplateLen, r2.TemplateLen = -tlen, tlen
	}
	return r1, r2
}

// pairFlags sets the paired-read bookkeeping flags of r given its mate.
func pairFlags(r, mate *agd.Result) {
	r.Flags |= agd.FlagPaired
	if mate.IsUnmapped() {
		r.Flags |= agd.FlagMateUnmapped
	} else {
		r.MateLocation = mate.Location
		if mate.IsReverse() {
			r.Flags |= agd.FlagMateReverse
		}
	}
}
