package align

import (
	"math/rand"
	"slices"
	"testing"
)

// fullAlign is the reference for BoundedAlign: the same semi-global
// alignment (query against a prefix of ref, trailing ref free) over the full
// DP table with no band, choosing the first minimal reference end and
// tracing back diagonal, then insertion, then deletion.
func fullAlign(query, ref []byte) (dist int, cigar Cigar, refUsed int) {
	m, n := len(query), len(ref)
	dp := make([][]int, m+1)
	for i := range dp {
		dp[i] = make([]int, n+1)
		dp[i][0] = i
	}
	for j := range dp[0] {
		dp[0][j] = j
	}
	cost := func(i, j int) int {
		if query[i-1] == ref[j-1] {
			return 0
		}
		return 1
	}
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			dp[i][j] = min(dp[i-1][j-1]+cost(i, j), dp[i-1][j]+1, dp[i][j-1]+1)
		}
	}
	refUsed = slices.Index(dp[m], slices.Min(dp[m]))
	for i, j := m, refUsed; i > 0 || j > 0; {
		switch {
		case i > 0 && j > 0 && dp[i-1][j-1]+cost(i, j) == dp[i][j]:
			cigar = append(cigar, CigarElem{Len: 1, Op: CigarMatch})
			i, j = i-1, j-1
		case i > 0 && dp[i-1][j]+1 == dp[i][j]:
			cigar = append(cigar, CigarElem{Len: 1, Op: CigarIns})
			i--
		default:
			cigar = append(cigar, CigarElem{Len: 1, Op: CigarDel})
			j--
		}
	}
	slices.Reverse(cigar)
	return dp[m][refUsed], cigar.Canonical(), refUsed
}

// The banded DP below is the reference that LVScratch.Align, which recovers
// SNAP's CIGARs, is compared with (lvalign_test.go); the tests of this file
// hold it to fullAlign in turn.

// BoundedAlign aligns query globally against a prefix of ref with at most
// maxK edits, returning the distance, the CIGAR and the number of reference
// bases consumed. It returns dist = -1 if no alignment within maxK exists.
// Banded DP, O(len(query)·(2maxK+1)) time and space.
func BoundedAlign(query, ref []byte, maxK int) (dist int, cigar Cigar, refUsed int) {
	var s BandedScratch
	return s.BoundedAlign(query, ref, maxK)
}

// BandedScratch carries the DP table and CIGAR buffers of BoundedAlign across
// calls. The zero value is ready to use.
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
// chosen reference end and the traceback are the same.
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

// checkBand asserts that the band does not show: at every band from the true
// distance up, BoundedAlign returns the unbanded reference's distance, CIGAR
// and reference end; below it, no alignment. One scratch is reused across
// bands, so a cell left over from a wider band must never be read.
func checkBand(t *testing.T, s *BandedScratch, query, ref []byte, maxK int) {
	t.Helper()
	if len(query) == 0 {
		return
	}
	want, wantCigar, wantUsed := fullAlign(query, ref)
	for _, k := range []int{maxK, want, want - 1} {
		if k < 0 {
			continue
		}
		d, cig, used := s.BoundedAlign(query, ref, k)
		if k < want {
			if d != -1 {
				t.Fatalf("BoundedAlign(%q, %q, %d) = %d, want -1 (distance %d)", query, ref, k, d, want)
			}
			continue
		}
		if d != want || used != wantUsed || cig.String() != wantCigar.String() {
			t.Fatalf("BoundedAlign(%q, %q, %d) = %d %s %d, want %d %s %d",
				query, ref, k, d, cig, used, want, wantCigar, wantUsed)
		}
	}
}

func TestBoundedAlignBandInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var s BandedScratch
	for trial := 0; trial < 2000; trial++ {
		q := randSeq(rng, 1+rng.Intn(70))
		ref := mutateSeq(rng, q, rng.Intn(7))
		switch rng.Intn(4) {
		case 0:
			ref = append(ref, randSeq(rng, rng.Intn(12))...)
		case 1:
			ref = ref[:rng.Intn(len(ref)+1)] // a window cut short by the genome end
		case 2:
			ref = randSeq(rng, rng.Intn(80)) // unrelated
		}
		checkBand(t, &s, q, ref, rng.Intn(16))
	}
}

func FuzzBoundedAlignBand(f *testing.F) {
	f.Add([]byte("ACGTACGTAC"), []byte("ACGTTACGTACGG"), uint8(4))
	f.Add([]byte("AAAA"), []byte("TTTTTTT"), uint8(2))
	f.Add([]byte("ACGT"), []byte(""), uint8(5))
	f.Add([]byte("GATTACAGATTACA"), []byte("GATACAGATTTACA"), uint8(12))
	f.Fuzz(func(t *testing.T, query, ref []byte, maxK uint8) {
		if len(query) > 96 || len(ref) > 128 {
			return
		}
		// Fold to four letters (into copies: the fuzzer owns its inputs) so
		// that inputs align at small distances.
		fold := func(s []byte) []byte {
			out := make([]byte, len(s))
			for i, b := range s {
				out[i] = "ACGT"[b&3]
			}
			return out
		}
		checkBand(t, new(BandedScratch), fold(query), fold(ref), int(maxK%24))
	})
}
