package align

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkAlign demands of LVScratch.Align what the banded DP returns —
// distance, CIGAR and reference end — over every window length from m-k to
// m+k that ref can fill (a window cut short by the genome end is any of the
// shorter ones), at the bound k and again at the distance itself, which is
// how SNAP calls it. Both scratches are reused across calls, so a wave or a
// cell left over from an earlier one must never be read.
func checkAlign(t *testing.T, lv *LVScratch, banded *BandedScratch, query, ref []byte, k int) {
	t.Helper()
	m := len(query)
	for n := max(0, m-k); n <= min(m+k, len(ref)); n++ {
		window := ref[:n]
		want, wantCigar, wantUsed := banded.BoundedAlign(query, window, k)
		wantText := wantCigar.String() // the next call reuses wantCigar's storage
		for _, bound := range []int{k, want} {
			d, cigar, used := lv.Align(query, window, bound)
			if d != want || used != wantUsed || (want >= 0 && cigar.String() != wantText) {
				t.Fatalf("Align(%q, %q, %d) = %d %s %d, banded DP %d %s %d",
					query, window, bound, d, cigar, used, want, wantText, wantUsed)
			}
		}
	}
}

// foldTo maps s onto the first letters of ACGT, into a copy. Few letters make
// alignments of equal cost common, which is where a traceback's order of
// preference shows.
func foldTo(s []byte, letters int) []byte {
	out := make([]byte, len(s))
	for i, b := range s {
		out[i] = "ACGT"[int(b)%letters]
	}
	return out
}

func TestAlignMatchesBandedDP(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var lv LVScratch
	var banded BandedScratch
	for trial := 0; trial < 3000; trial++ {
		letters := 2 + rng.Intn(3)
		q := foldTo(randSeq(rng, 1+rng.Intn(110)), letters)
		ref := foldTo(mutateSeq(rng, q, rng.Intn(9)), letters)
		if rng.Intn(8) == 0 {
			ref = foldTo(randSeq(rng, len(q)+12), letters) // unrelated
		}
		ref = append(ref, foldTo(randSeq(rng, 12), letters)...)
		checkAlign(t, &lv, &banded, q, ref, 1+rng.Intn(12))
	}
}

func TestAlignEmptyAndUnbounded(t *testing.T) {
	var lv LVScratch
	if d, c, used := lv.Align(nil, []byte("ACGT"), 3); d != 0 || c != nil || used != 0 {
		t.Fatalf("empty query: %d %v %d", d, c, used)
	}
	if d, c, used := lv.Align([]byte("ACGT"), []byte("ACGT"), -1); d != -1 || c != nil || used != 0 {
		t.Fatalf("negative bound: %d %v %d", d, c, used)
	}
	if d, c, used := lv.Align([]byte("ACGT"), nil, 4); d != 4 || c.String() != "4I" || used != 0 {
		t.Fatalf("empty ref: %d %v %d", d, c, used)
	}
}

// FuzzAlignMatchesBanded is the differential test of the CIGAR recovery
// against the banded DP it replaced on the read path.
func FuzzAlignMatchesBanded(f *testing.F) {
	f.Add([]byte("ACGTACGTAC"), []byte("ACGTTACGTACGG"), uint8(4), uint8(2))
	f.Add([]byte("AAAA"), []byte("TTTTTTT"), uint8(2), uint8(0))
	f.Add([]byte("ACGT"), []byte(""), uint8(5), uint8(1))
	f.Add([]byte("GATTACAGATTACA"), []byte("GATACAGATTTACAGATTACA"), uint8(11), uint8(2))
	f.Add([]byte("ABABABABABABABABABBA"), []byte("BABABABABABABAABABABABAB"), uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, query, ref []byte, k, letters uint8) {
		if len(query) == 0 || len(query) > 128 {
			return
		}
		n := 2 + int(letters)%3
		checkAlign(t, new(LVScratch), new(BandedScratch), foldTo(query, n), foldTo(ref, n), 1+int(k)%12)
	})
}

// TestExtend pins the eight-byte scan against a byte loop at every length
// and first mismatch around its word and tail boundaries.
func TestExtend(t *testing.T) {
	a := make([]byte, 40)
	for i := range a {
		a[i] = byte(i)
	}
	for la := 0; la <= len(a); la++ {
		for lb := 0; lb <= len(a); lb++ {
			for miss := 0; miss <= len(a); miss++ {
				b := append([]byte{}, a[:lb]...)
				if miss < lb {
					b[miss] ^= 0x80
				}
				if got, want := extend(a[:la], b), min(la, lb, miss); got != want {
					t.Fatalf("extend(len %d, len %d, mismatch at %d) = %d, want %d", la, lb, miss, got, want)
				}
			}
		}
	}
}

var benchCigar Cigar

// BenchmarkRecoverCigar times what SNAP pays for the winner's CIGAR: Align of
// a 101-base read at the distance verification found.
func BenchmarkRecoverCigar(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ref := randSeq(rng, 101+12)
	for _, k := range []int{1, 2, 4} {
		// k edits spread over the read: two substitutions, then a deleted and
		// an inserted base.
		other := func(b byte) byte {
			if b == 'A' {
				return 'C'
			}
			return 'A'
		}
		q := append([]byte{}, ref[:101]...)
		for e := 0; e < k; e++ {
			p := (e + 1) * 101 / (k + 1)
			switch {
			case e < 2:
				q[p] = other(q[p])
			case e == 2:
				q = append(q[:p], q[p+1:]...)
			default:
				q = append(q[:p], append([]byte{other(q[p])}, q[p:]...)...)
			}
		}
		var lv LVScratch
		if d, _, _ := lv.Align(q, ref[:len(q)+k], k); d != k {
			b.Fatalf("k=%d: distance %d", k, d)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, benchCigar, _ = lv.Align(q, ref[:len(q)+k], k)
			}
		})
	}
}
