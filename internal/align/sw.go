package align

// Smith-Waterman kernels: the seed-extension scoring BWA-MEM uses. Scores
// follow BWA-MEM's defaults (match +1, mismatch -4, gap open -6, gap
// extend -1).

// Scoring holds affine-gap alignment parameters.
type Scoring struct {
	Match     int32 // added per matching base (positive)
	Mismatch  int32 // added per mismatching base (negative)
	GapOpen   int32 // cost to open a gap (negative)
	GapExtend int32 // cost to extend a gap by one base (negative)
}

// DefaultScoring returns BWA-MEM's default scoring.
func DefaultScoring() Scoring {
	return Scoring{Match: 1, Mismatch: -4, GapOpen: -6, GapExtend: -1}
}

func (s Scoring) sub(a, b byte) int32 {
	if a == b && a != 'N' && a != 'n' {
		return s.Match
	}
	return s.Mismatch
}

// SWResult is the outcome of a local alignment.
type SWResult struct {
	Score    int32
	QueryBeg int // first aligned query index
	QueryEnd int // one past last aligned query index
	RefBeg   int // first aligned ref index
	RefEnd   int // one past last aligned ref index
	Cigar    Cigar
}

const swNeg = int32(-1 << 29)

// swMatrices fills the Smith-Waterman affine-gap DP matrices for query x
// ref: H is floored at 0 and the boundary row and column stay 0.
func swMatrices(query, ref []byte, sc Scoring) (h, e, f []int32) {
	m, n := len(query), len(ref)
	width := n + 1
	h = make([]int32, (m+1)*width)
	e = make([]int32, (m+1)*width)
	f = make([]int32, (m+1)*width)
	for i := range e {
		e[i], f[i] = swNeg, swNeg
	}
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			idx := i*width + j
			eo := h[idx-1] + sc.GapOpen + sc.GapExtend
			ee := e[idx-1] + sc.GapExtend
			if eo >= ee {
				e[idx] = eo
			} else {
				e[idx] = ee
			}
			fo := h[idx-width] + sc.GapOpen + sc.GapExtend
			fe := f[idx-width] + sc.GapExtend
			if fo >= fe {
				f[idx] = fo
			} else {
				f[idx] = fe
			}
			v := h[idx-width-1] + sc.sub(query[i-1], ref[j-1])
			if e[idx] > v {
				v = e[idx]
			}
			if f[idx] > v {
				v = f[idx]
			}
			if v < 0 {
				v = 0
			}
			h[idx] = v
		}
	}
	return h, e, f
}

// traceback recovers the alignment path ending at (bi, bj) by walking the
// three matrices with an explicit state machine (state H, in-E-gap,
// in-F-gap), which is required for correct multi-base affine gaps. The walk
// stops where H reaches 0, the start of the local alignment.
func traceback(query, ref []byte, sc Scoring, h, e, f []int32, bi, bj int) (Cigar, int, int) {
	width := len(ref) + 1
	var rev Cigar
	i, j := bi, bj
	const (
		stH = iota
		stE
		stF
	)
	state := stH
	for i > 0 || j > 0 {
		idx := i*width + j
		switch state {
		case stH:
			if h[idx] == 0 {
				return reverseCigar(rev), i, j
			}
			if i > 0 && j > 0 && h[idx] == h[idx-width-1]+sc.sub(query[i-1], ref[j-1]) {
				rev = append(rev, CigarElem{Len: 1, Op: CigarMatch})
				i, j = i-1, j-1
				continue
			}
			if h[idx] == e[idx] {
				state = stE
				continue
			}
			if h[idx] == f[idx] {
				state = stF
				continue
			}
			return reverseCigar(rev), i, j
		case stE:
			rev = append(rev, CigarElem{Len: 1, Op: CigarDel})
			if j > 0 && e[idx] == h[idx-1]+sc.GapOpen+sc.GapExtend {
				state = stH
			}
			j--
		case stF:
			rev = append(rev, CigarElem{Len: 1, Op: CigarIns})
			if i > 0 && f[idx] == h[idx-width]+sc.GapOpen+sc.GapExtend {
				state = stH
			}
			i--
		}
	}
	return reverseCigar(rev), i, j
}

func reverseCigar(rev Cigar) Cigar {
	out := make(Cigar, 0, len(rev))
	for k := len(rev) - 1; k >= 0; k-- {
		out = append(out, rev[k])
	}
	return out.Canonical()
}

// SmithWaterman computes an affine-gap local alignment of query against ref
// with full DP and traceback. O(m·n) time and space — used on seed-extension
// windows (hundreds of bases), not whole genomes.
func SmithWaterman(query, ref []byte, sc Scoring) SWResult {
	m, n := len(query), len(ref)
	if m == 0 || n == 0 {
		return SWResult{}
	}
	h, e, f := swMatrices(query, ref, sc)
	width := n + 1
	var best int32
	bi, bj := 0, 0
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			if v := h[i*width+j]; v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	if best <= 0 {
		return SWResult{}
	}
	cigar, qi, ri := traceback(query, ref, sc, h, e, f, bi, bj)
	return SWResult{
		Score:    best,
		QueryBeg: qi, QueryEnd: bi,
		RefBeg: ri, RefEnd: bj,
		Cigar: cigar,
	}
}
