package align

// Edit-distance kernels. SNAP verifies each candidate location with a
// bounded edit-distance computation — the "short but frequent calls to a
// local alignment edit distance function" that make it core-bound (§6). The
// hot path uses the Landau-Vishkin diagonal algorithm (distance only); the
// winning candidate's CIGAR is recovered by a banded DP no wider than the
// distance Landau-Vishkin verified.

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

// LVScratch carries the two diagonal rows of the Landau-Vishkin kernel so a
// long-lived caller (an aligner verifying thousands of candidates per chunk)
// performs no per-call allocation. The zero value is ready to use; an
// LVScratch must not be shared between goroutines.
type LVScratch struct {
	cur, next []int
}

// DistanceOps is LandauVishkinOps computing into the scratch rows.
func (s *LVScratch) DistanceOps(query, ref []byte, maxK int) (dist, ops int) {
	m := len(query)
	if m == 0 {
		return 0, 0
	}
	if maxK < 0 {
		return -1, 0
	}
	// L[d] = furthest query index reached on diagonal d (ref index =
	// query index + d) with the current number of edits. Diagonals are
	// offset by maxK to index the slice.
	size := 2*maxK + 1
	if cap(s.cur) < size {
		s.cur = make([]int, size)
		s.next = make([]int, size)
	}
	cur, next := s.cur[:size], s.next[:size]
	for i := range cur {
		cur[i] = -2 // unreachable
	}
	for i := range next {
		next[i] = -2 // unreachable until written by the band sweep
	}
	// 0 edits: only diagonal 0, extend exact match.
	reach := extend(query, ref, 0, 0)
	ops += reach + 1
	if reach == m {
		return 0, ops
	}
	cur[maxK] = reach

	for e := 1; e <= maxK; e++ {
		lo, hi := -e, e
		if lo < -maxK {
			lo = -maxK
		}
		if hi > maxK {
			hi = maxK
		}
		for d := lo; d <= hi; d++ {
			// Best query index reachable on diagonal d with e edits:
			// substitution from (d, e-1), insertion (query base consumed)
			// from (d+1, e-1), deletion (ref base consumed) from (d-1, e-1).
			best := -1
			if v := get(cur, maxK, d); v >= 0 && v+1 > best {
				best = v + 1
			}
			if v := get(cur, maxK, d+1); v >= 0 && v+1 > best {
				best = v + 1
			}
			if v := get(cur, maxK, d-1); v >= 0 && v > best {
				best = v
			}
			if best < 0 {
				next[maxK+d] = -2 // diagonal still unreachable
				continue
			}
			if best > m {
				best = m
			}
			// Extend along the diagonal with free exact matches. The
			// invariant best+d >= 0 holds inductively (j never goes
			// negative along any edit path).
			ext := extend(query[best:], ref, best+d, 0)
			ops += ext + 3 // the extension scan plus the diagonal update
			best += ext
			if best >= m {
				return e, ops
			}
			next[maxK+d] = best
		}
		cur, next = next, cur
		for i := range next {
			next[i] = -2
		}
	}
	return -1, ops
}

// get fetches the furthest reach for diagonal d, or -2 when out of band.
func get(row []int, maxK, d int) int {
	if d < -maxK || d > maxK {
		return -2
	}
	return row[maxK+d]
}

// extend counts exact matches of query[qi:] against ref[ri:].
func extend(query, ref []byte, ri, qi int) int {
	n := 0
	for qi+n < len(query) && ri+n < len(ref) && query[qi+n] == ref[ri+n] {
		n++
	}
	return n
}

// BoundedAlign aligns query globally against a prefix of ref with at most
// maxK edits, returning the distance, the CIGAR and the number of reference
// bases consumed. It returns dist = -1 if no alignment within maxK exists.
// Banded DP, O(len(query)·(2maxK+1)) time and space.
func BoundedAlign(query, ref []byte, maxK int) (dist int, cigar Cigar, refUsed int) {
	var s BandedScratch
	return s.BoundedAlign(query, ref, maxK)
}

// BandedScratch carries the DP table and CIGAR buffers of BoundedAlign so a
// long-lived caller performs no per-call allocation. The zero value is ready
// to use; a BandedScratch must not be shared between goroutines.
//
// The Cigar returned by its BoundedAlign aliases scratch storage: it is valid
// only until the next call, and callers that keep it must copy (or render it
// to text) first.
type BandedScratch struct {
	dp       []int32
	rev, out Cigar
}

// BoundedAlign is the package-level BoundedAlign computing into the scratch.
//
// Every cell on an alignment path of cost c lies within c of the main
// diagonal, so for any maxK at or above the true distance the distance, the
// chosen reference end and the traceback are the same: a caller that already
// knows the distance (SNAP's Landau-Vishkin pass) passes it as maxK and pays
// for a band that wide, not for its configured maximum.
func (s *BandedScratch) BoundedAlign(query, ref []byte, maxK int) (dist int, cigar Cigar, refUsed int) {
	m := len(query)
	if m == 0 {
		return 0, nil, 0
	}
	if maxK < 0 {
		return -1, nil, 0
	}
	w := 2*maxK + 1
	const inf = 1 << 29
	// Row i holds dp[i][j] = distance aligning query[:i] with ref[:j] at band
	// index d = j-i+maxK. Within a row only d in [dLo, dHi] (0 <= j <=
	// len(ref)) is written, and a cell reads only written neighbours or the
	// band edge (taken as inf), so the table is never pre-filled.
	need := (m + 1) * w
	if cap(s.dp) < need {
		s.dp = make([]int32, need)
	}
	dp := s.dp[:need]
	for d := maxK; d < w && d-maxK <= len(ref); d++ {
		dp[d] = int32(d - maxK) // row 0: leading deletions
	}
	dLo, dHi := 0, 0
	for i := 1; i <= m; i++ {
		prev, cur := dp[(i-1)*w:i*w], dp[i*w:(i+1)*w]
		dLo, dHi = max(0, maxK-i), min(w-1, len(ref)-i+maxK)
		for d := dLo; d <= dHi; d++ {
			best := int32(inf)
			if j := i + d - maxK; j > 0 {
				best = prev[d] // diagonal: match or substitution
				if query[i-1] != ref[j-1] {
					best++
				}
				if d > 0 && cur[d-1]+1 < best { // deletion (ref consumed)
					best = cur[d-1] + 1
				}
			}
			if d+1 < w && prev[d+1]+1 < best { // insertion (query consumed)
				best = prev[d+1] + 1
			}
			cur[d] = best
		}
	}
	// Answer: best dp[m][j] over the band; trailing ref is free.
	last := dp[m*w:]
	bestD, bestAt := int32(inf), -1
	for d := dLo; d <= dHi; d++ {
		if last[d] < bestD {
			bestD, bestAt = last[d], d
		}
	}
	if bestD > int32(maxK) {
		return -1, nil, 0
	}
	bestJ := m + bestAt - maxK

	// Traceback, preferring diagonal, then insertion, then deletion.
	rev := s.rev[:0]
	i, d := m, bestAt
	for j := bestJ; i > 0 || j > 0; {
		v := dp[i*w+d]
		if i > 0 && j > 0 {
			cost := int32(1)
			if query[i-1] == ref[j-1] {
				cost = 0
			}
			if dp[(i-1)*w+d]+cost == v {
				rev = append(rev, CigarElem{Len: 1, Op: CigarMatch})
				i, j = i-1, j-1
				continue
			}
		}
		if i > 0 && d+1 < w && dp[(i-1)*w+d+1]+1 == v {
			rev = append(rev, CigarElem{Len: 1, Op: CigarIns})
			i, d = i-1, d+1
			continue
		}
		if j > 0 && d > 0 && dp[i*w+d-1]+1 == v {
			rev = append(rev, CigarElem{Len: 1, Op: CigarDel})
			j, d = j-1, d-1
			continue
		}
		// Unreachable given a consistent DP table.
		break
	}
	s.rev = rev
	// Reverse and run-length merge in one pass (Canonical without the copy).
	out := s.out[:0]
	for k := len(rev) - 1; k >= 0; k-- {
		e := rev[k]
		if e.Len == 0 {
			continue
		}
		if len(out) > 0 && out[len(out)-1].Op == e.Op {
			out[len(out)-1].Len += e.Len
			continue
		}
		out = append(out, e)
	}
	s.out = out
	return int(bestD), out, bestJ
}
