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

// checkBand asserts what lets SNAP recover a CIGAR in a band only as wide as
// the distance it has verified: at every band from the true distance up,
// BoundedAlign returns the unbanded reference's distance, CIGAR and
// reference end; below it, no alignment. One scratch is reused across bands,
// so a cell left over from a wider band must never be read.
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
