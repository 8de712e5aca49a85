package align

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Edit-distance kernels. SNAP verifies each candidate location with a
// bounded edit-distance computation — the "short but frequent calls to a
// local alignment edit distance function" that make it core-bound (§6). The
// hot path uses the Landau-Vishkin diagonal algorithm (distance only); the
// winning candidate's CIGAR is read back out of the waves of one more
// Landau-Vishkin run at the verified distance (LVScratch.Align), so no
// dynamic-programming table is filled anywhere on the read path.

// EditDistance computes the unbounded Levenshtein distance between query
// and ref with full dynamic programming. O(len(query)·len(ref)); used as
// the reference implementation in tests and for tiny inputs.
func EditDistance(query, ref []byte) int {
	m, n := len(query), len(ref)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n; j++ {
		prev[j] = j
	}
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			cost := 1
			if query[i-1] == ref[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if d := prev[j] + 1; d < best {
				best = d
			}
			if d := cur[j-1] + 1; d < best {
				best = d
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// LandauVishkin computes the edit distance between query and ref if it is
// at most maxK, or -1 otherwise. The ref should be a window of at least
// len(query) bases (len(query)+maxK to allow trailing deletions); trailing
// unconsumed ref is free, i.e. the query is aligned globally against a ref
// prefix. O((maxK+1)²) time beyond the furthest-reach scans.
func LandauVishkin(query, ref []byte, maxK int) int {
	dist, _ := LandauVishkinOps(query, ref, maxK)
	return dist
}

// LandauVishkinOps is LandauVishkin plus a count of the serially dependent
// operations performed (diagonal updates and exact-match extension
// comparisons). The count feeds the Fig. 8 workload analysis: these short
// data-dependent loops are what make SNAP core bound (§6).
func LandauVishkinOps(query, ref []byte, maxK int) (dist, ops int) {
	var s LVScratch
	return s.DistanceOps(query, ref, maxK)
}

// LVScratch carries the waves of the Landau-Vishkin kernel and the CIGAR
// buffer of Align, so a long-lived caller (an aligner verifying thousands of
// candidates per chunk) performs no per-call allocation. The zero value is
// ready to use; an LVScratch must not be shared between goroutines.
type LVScratch struct {
	// Wave e is waves[e*(e+4):][:2*e+5]: cell e+2+d holds, for the diagonal d
	// in [-e, e] (ref index = query index + d), the furthest query index
	// reached with e edits, and the two cells past each end are unreachable,
	// so the next wave reads its three neighbours without a bounds test.
	waves []int
	cigar Cigar
}

// unreachable marks a diagonal no path has got to. It is low enough that one
// more step along it still compares below every real reach.
const unreachable = -2

// wave returns wave e with its border cells set.
func (s *LVScratch) wave(e int) []int {
	w := s.waves[e*(e+4):][:2*e+5]
	w[0], w[1], w[2*e+3], w[2*e+4] = unreachable, unreachable, unreachable, unreachable
	return w
}

// reach returns the furthest query index wave e reached on diagonal d, for
// |d| <= e+2. It is at least i exactly when query[:i] and ref[:i+d] are
// within e edits of each other.
func (s *LVScratch) reach(e, d int) int { return s.waves[e*(e+4)+e+2+d] }

// DistanceOps is LandauVishkinOps computing into the scratch.
func (s *LVScratch) DistanceOps(query, ref []byte, maxK int) (dist, ops int) {
	dist, _, ops = s.run(query, ref, maxK)
	return dist, ops
}

// run computes waves until one reaches the end of the query and returns its
// number, the diagonal that got there — the lowest of that wave that does —
// and the operation count of LandauVishkinOps; dist is -1 when maxK waves do
// not get there. Every wave before the last is left whole in the scratch.
func (s *LVScratch) run(query, ref []byte, maxK int) (dist, diag, ops int) {
	m := len(query)
	if m == 0 {
		return 0, 0, 0
	}
	if maxK < 0 {
		return -1, 0, 0
	}
	// 0 edits: only diagonal 0, extend exact match.
	reach := extend(query, ref)
	ops = reach + 1
	if reach == m {
		return 0, 0, ops
	}
	if need := (maxK + 1) * (maxK + 5); len(s.waves) < need {
		s.waves = make([]int, need)
	}
	cur := s.wave(0)
	cur[2] = reach
	for e := 1; e <= maxK; e++ {
		prev := cur // prev[e+1+d] is diagonal d
		cur = s.wave(e)
		for d := -e; d <= e; d++ {
			// Best query index reachable on diagonal d with e edits: deletion
			// (ref base consumed) from (d-1, e-1), substitution from (d, e-1),
			// insertion (query base consumed) from (d+1, e-1). One neighbour
			// at least is reachable, and best+d >= 0 holds inductively (j
			// never goes negative along any edit path), as does best <= m.
			best := max(prev[e+d], prev[e+1+d]+1, prev[e+2+d]+1)
			// Extend along the diagonal with free exact matches; a diagonal
			// that has run off a truncated ref extends by nothing.
			ext := extend(query[best:], ref[min(best+d, len(ref)):])
			ops += ext + 3 // the extension scan plus the diagonal update
			if best += ext; best == m {
				return e, d, ops
			}
			cur[e+2+d] = best
		}
	}
	return -1, 0, ops
}

// extend counts the leading bytes on which a and b agree, eight a step.
func extend(a, b []byte) int {
	if len(a) > len(b) {
		a = a[:len(b)]
	}
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

// Align aligns query globally against a prefix of ref with at most maxK
// edits, returning the distance, the CIGAR and the number of reference bases
// consumed. It returns dist = -1 if no alignment within maxK exists. ref may
// be a window cut short by the end of the genome.
//
// Of the alignments at that distance it returns the one a full table of
// D(i, j), the distance of query[:i] from ref[:j], gives when the earliest
// reference end wins and the traceback prefers the diagonal, then an
// insertion, then a deletion — for any maxK at or above the distance, so a
// caller that knows the distance (SNAP's verification pass) passes it as
// maxK. No table is filled: D(i, j) <= e exactly when wave e reaches row i on
// diagonal j-i, so each question the traceback asks is one comparison against
// a kept wave, and a run of matches, which always takes the diagonal, is one
// scan. O(len(query) + dist²) time.
//
// The Cigar aliases scratch storage: it is valid only until the next call,
// and callers that keep it must copy (or render it to text) first.
func (s *LVScratch) Align(query, ref []byte, maxK int) (dist int, cigar Cigar, refUsed int) {
	// Diagonals are swept upwards, so d is the earliest end at this distance.
	dist, d, _ := s.run(query, ref, maxK)
	if dist < 0 || len(query) == 0 {
		return dist, nil, 0
	}
	i := len(query)
	refUsed = i + d
	rev := s.cigar[:0] // the CIGAR from its end
	for v := dist; v > 0; v-- {
		// D(i, i+d) = v. Matches leave D as it is, so the run of them that
		// ends here begins above the row that wave v-1 reaches, after the last
		// mismatch from there up.
		lo := max(s.reach(v-1, d)+1, 0, -d)
		for p := lo; p < i; p++ {
			if p += extend(query[p:i], ref[p+d:]); p < i {
				lo = p + 1
			}
		}
		rev, i = rev.add(CigarMatch, i-lo), lo
		// One edit back, to a cell that wave v-1 reaches.
		switch {
		case i > 0 && i+d > 0 && s.reach(v-1, d) >= i-1: // substitution
			rev, i = rev.add(CigarMatch, 1), i-1
		case i > 0 && s.reach(v-1, d+1) >= i-1:
			rev, i, d = rev.add(CigarIns, 1), i-1, d+1
		default:
			rev, d = rev.add(CigarDel, 1), d-1
		}
	}
	// D(i, i+d) = 0: d is 0 and what is left matches.
	rev = rev.add(CigarMatch, i)
	slices.Reverse(rev)
	s.cigar = rev
	return dist, rev, refUsed
}
