package align

import (
	"math/rand"
	"testing"
)

func TestSmithWatermanExact(t *testing.T) {
	sc := DefaultScoring()
	res := SmithWaterman([]byte("ACGTACGT"), []byte("TTTACGTACGTTTT"), sc)
	if res.Score != 8 {
		t.Fatalf("score = %d, want 8", res.Score)
	}
	if res.RefBeg != 3 || res.RefEnd != 11 {
		t.Fatalf("ref span = [%d,%d), want [3,11)", res.RefBeg, res.RefEnd)
	}
	if res.Cigar.String() != "8M" {
		t.Fatalf("cigar = %s", res.Cigar)
	}
}

func TestSmithWatermanMismatchAndGap(t *testing.T) {
	sc := DefaultScoring()
	// One mismatch in the middle: local alignment may clip or absorb it.
	res := SmithWaterman([]byte("AAAATAAAA"), []byte("AAAACAAAA"), sc)
	if res.Score < 4 {
		t.Fatalf("score = %d", res.Score)
	}
	// A deletion from ref.
	res = SmithWaterman([]byte("AACCGGTT"), []byte("AACCAGGTT"), sc)
	if res.Score <= 0 {
		t.Fatal("no alignment found across gap")
	}
	if res.Cigar.ReadLen() != res.QueryEnd-res.QueryBeg {
		t.Fatalf("cigar read len %d vs span %d", res.Cigar.ReadLen(), res.QueryEnd-res.QueryBeg)
	}
	if res.Cigar.RefLen() != res.RefEnd-res.RefBeg {
		t.Fatalf("cigar ref len %d vs span %d", res.Cigar.RefLen(), res.RefEnd-res.RefBeg)
	}
}

func TestSmithWatermanNoAlignment(t *testing.T) {
	res := SmithWaterman([]byte("AAAA"), []byte("TTTT"), DefaultScoring())
	if res.Score != 0 || len(res.Cigar) != 0 {
		t.Fatalf("res = %+v, want empty", res)
	}
	res = SmithWaterman(nil, []byte("ACGT"), DefaultScoring())
	if res.Score != 0 {
		t.Fatal("empty query scored")
	}
}

func TestSmithWatermanCigarSpansConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := DefaultScoring()
	for trial := 0; trial < 200; trial++ {
		q := randSeq(rng, 20+rng.Intn(40))
		r := mutateSeq(rng, q, rng.Intn(5))
		r = append(randSeq(rng, rng.Intn(10)), append(r, randSeq(rng, rng.Intn(10))...)...)
		res := SmithWaterman(q, r, sc)
		if res.Score == 0 {
			continue
		}
		if res.Cigar.ReadLen() != res.QueryEnd-res.QueryBeg {
			t.Fatalf("query span mismatch: %+v", res)
		}
		if res.Cigar.RefLen() != res.RefEnd-res.RefBeg {
			t.Fatalf("ref span mismatch: %+v", res)
		}
		// Recompute the score from the cigar.
		var score int32
		qi, ri := res.QueryBeg, res.RefBeg
		for _, e := range res.Cigar {
			switch e.Op {
			case CigarMatch:
				for x := 0; x < e.Len; x++ {
					score += sc.sub(q[qi], r[ri])
					qi++
					ri++
				}
			case CigarIns:
				score += sc.GapOpen + int32(e.Len)*sc.GapExtend
				qi += e.Len
			case CigarDel:
				score += sc.GapOpen + int32(e.Len)*sc.GapExtend
				ri += e.Len
			}
		}
		if score != res.Score {
			t.Fatalf("cigar %s implies score %d, reported %d", res.Cigar, score, res.Score)
		}
	}
}

// TestSmithWatermanEndsOnMatches: a local alignment starts and ends on an
// aligned base — opening or closing with a gap would only lower its score.
func TestSmithWatermanEndsOnMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sc := DefaultScoring()
	for trial := 0; trial < 200; trial++ {
		q := randSeq(rng, 20+rng.Intn(40))
		r := mutateSeq(rng, q, rng.Intn(8))
		r = append(randSeq(rng, rng.Intn(10)), append(r, randSeq(rng, rng.Intn(10))...)...)
		res := SmithWaterman(q, r, sc)
		if res.Score == 0 {
			continue
		}
		if first, last := res.Cigar[0], res.Cigar[len(res.Cigar)-1]; first.Op != CigarMatch || last.Op != CigarMatch {
			t.Fatalf("trial %d: cigar %s does not start and end on matches", trial, res.Cigar)
		}
		if q[res.QueryBeg] != r[res.RefBeg] || q[res.QueryEnd-1] != r[res.RefEnd-1] {
			t.Fatalf("trial %d: %+v starts or ends on a mismatch", trial, res)
		}
	}
}

func TestParseCigarRoundTrip(t *testing.T) {
	for _, s := range []string{"101M", "50M1I50M", "10S80M11S", "3M2D5M", "*"} {
		c, err := ParseCigar(s)
		if err != nil {
			t.Fatal(err)
		}
		got := c.String()
		if s == "*" {
			if got != "*" {
				t.Fatalf("* → %s", got)
			}
			continue
		}
		if got != s {
			t.Fatalf("%s → %s", s, got)
		}
	}
	for _, bad := range []string{"M", "10", "10Z", "1-M"} {
		if _, err := ParseCigar(bad); err == nil {
			t.Errorf("bad cigar %q accepted", bad)
		}
	}
}

func TestCigarCanonical(t *testing.T) {
	c := Cigar{{2, CigarMatch}, {3, CigarMatch}, {0, CigarIns}, {1, CigarDel}}
	if got := c.Canonical().String(); got != "5M1D" {
		t.Fatalf("canonical = %s", got)
	}
}

func TestMapQ(t *testing.T) {
	if q := MapQ(0, -1, 1); q != 60 {
		t.Fatalf("unique = %d", q)
	}
	if q := MapQ(1, 1, 5); q > 3 {
		t.Fatalf("ambiguous = %d", q)
	}
	if q := MapQ(0, 4, 1); q != 40 {
		t.Fatalf("gap 4 = %d", q)
	}
	if MapQ(2, 2, 1) > 3 {
		t.Fatal("tied second best should give low mapq")
	}
	if MapQ(0, 0, 20) != 0 {
		t.Fatal("many placements should give mapq 0")
	}
	if q := MapQFromScores(50, -1<<30, 1, 1); q != 60 {
		t.Fatalf("score unique = %d", q)
	}
}
