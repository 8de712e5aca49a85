package bwa

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"

	"persona/internal/align"
	"persona/internal/genome"
	"persona/internal/reads"
)

func TestSuffixArraySortedProperty(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		// Map into a small alphabet to generate repeats.
		text := make([]byte, len(raw))
		for i, b := range raw {
			text[i] = 'a' + b%4
		}
		sa := BuildSuffixArray(text)
		if len(sa) != len(text) {
			return false
		}
		seen := make([]bool, len(text))
		for _, p := range sa {
			if p < 0 || int(p) >= len(text) || seen[p] {
				return false
			}
			seen[p] = true
		}
		for i := 1; i < len(sa); i++ {
			if bytes.Compare(text[sa[i-1]:], text[sa[i]:]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSuffixArrayMatchesNaive(t *testing.T) {
	texts := []string{"banana", "mississippi", "aaaaaa", "abcabcabc", "x"}
	for _, s := range texts {
		sa := BuildSuffixArray([]byte(s))
		naive := make([]int, len(s))
		for i := range naive {
			naive[i] = i
		}
		sort.Slice(naive, func(a, b int) bool { return s[naive[a]:] < s[naive[b]:] })
		for i := range naive {
			if int(sa[i]) != naive[i] {
				t.Fatalf("%q: sa = %v, naive = %v", s, sa, naive)
			}
		}
	}
}

func testGenome(t testing.TB, size int, seed int64) *genome.Genome {
	t.Helper()
	g, err := genome.Synthesize(genome.DefaultSyntheticConfig(size, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFMIndexCountMatchesNaive(t *testing.T) {
	g := testGenome(t, 30_000, 31)
	idx, err := NewFMIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	seq := g.Seq()
	// The encoded text replaces N, so count against the encoded text.
	enc := encodeRef(g)
	enc = enc[:len(enc)-1] // drop sentinel
	for _, plen := range []int{1, 3, 8, 15} {
		for trial := 0; trial < 30; trial++ {
			start := (trial * 997) % (len(seq) - plen)
			pattern := enc[start : start+plen]
			naive := 0
			for i := 0; i+plen <= len(enc); i++ {
				if bytes.Equal(enc[i:i+plen], pattern) {
					naive++
				}
			}
			if got := int(idx.Count(pattern)); got != naive {
				t.Fatalf("Count(len %d @%d) = %d, naive = %d", plen, start, got, naive)
			}
		}
	}
}

func TestFMIndexLocateFindsAllOccurrences(t *testing.T) {
	g := testGenome(t, 20_000, 32)
	idx, err := NewFMIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeRef(g)
	enc = enc[:len(enc)-1]
	pattern := enc[500:516]
	lo, hi := idx.Search(pattern)
	if lo >= hi {
		t.Fatal("pattern from the genome not found")
	}
	locs := idx.Locate(lo, hi, 1<<30)
	found := false
	for _, p := range locs {
		if !bytes.Equal(enc[p:int(p)+16], pattern) {
			t.Fatalf("located %d does not match pattern", p)
		}
		if p == 500 {
			found = true
		}
	}
	if !found {
		t.Fatal("origin position not located")
	}
}

func TestFMIndexSearchAbsent(t *testing.T) {
	g := testGenome(t, 10_000, 33)
	idx, err := NewFMIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	// A pattern with an unsearchable symbol.
	lo, hi := idx.Search([]byte{1, 2, 0, 3})
	if lo != hi {
		t.Fatal("pattern with sentinel symbol matched")
	}
}

func buildAligner(t testing.TB, size int, seed int64) (*Aligner, *genome.Genome) {
	t.Helper()
	g := testGenome(t, size, seed)
	idx, err := NewFMIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	return NewAligner(idx, g), g
}

func TestAlignExactReads(t *testing.T) {
	a, g := buildAligner(t, 120_000, 34)
	for pos := int64(200); pos < g.Len()-200; pos += 9973 {
		ref, err := g.Slice(pos, 100)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.ContainsRune(ref, 'N') {
			continue
		}
		res := a.AlignRead(ref)
		if res.IsUnmapped() {
			t.Fatalf("exact read at %d unmapped", pos)
		}
		if res.Location != pos {
			// Accept exact repeat copies.
			got, err := g.Slice(res.Location, 100)
			if err != nil || !bytes.Equal(got, ref) {
				t.Fatalf("read from %d mapped to %d (not an exact copy)", pos, res.Location)
			}
		}
		if res.Score != 100 {
			t.Fatalf("exact read score = %d, want 100", res.Score)
		}
	}
}

func TestAlignSimulatedAccuracy(t *testing.T) {
	a, g := buildAligner(t, 300_000, 35)
	sim, err := reads.NewSimulator(g, reads.SimConfig{Seed: 9, N: 800, ReadLen: 101, ErrorRate: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	rs, origins := sim.All()
	mapped, correct := 0, 0
	for i := range rs {
		res := a.AlignRead(rs[i].Bases)
		if res.IsUnmapped() {
			continue
		}
		mapped++
		diff := res.Location - origins[i].Pos
		if diff < 0 {
			diff = -diff
		}
		if diff <= 8 && res.IsReverse() == origins[i].Reverse {
			correct++
		}
	}
	if frac := float64(mapped) / float64(len(rs)); frac < 0.95 {
		t.Fatalf("mapped fraction %.3f < 0.95", frac)
	}
	if frac := float64(correct) / float64(mapped); frac < 0.93 {
		t.Fatalf("correct fraction %.3f < 0.93", frac)
	}
	stats := a.Stats()
	if stats.FMProbes == 0 || stats.SWCells == 0 {
		t.Fatalf("stats not accumulated: %+v", stats)
	}
}

func TestAlignSoftClipsDamagedEnds(t *testing.T) {
	a, g := buildAligner(t, 80_000, 36)
	ref, err := g.Slice(5000, 80)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(ref, 'N') {
		t.Skip("window contains N")
	}
	read := append([]byte("GGGGGGGGGG"), ref...) // 10 junk bases at head
	res := a.AlignRead(read)
	if res.IsUnmapped() {
		t.Fatal("damaged read unmapped")
	}
	cig, err := align.ParseCigar(res.Cigar)
	if err != nil {
		t.Fatal(err)
	}
	if cig.ReadLen() != len(read) {
		t.Fatalf("cigar %s consumes %d, read is %d", res.Cigar, cig.ReadLen(), len(read))
	}
	if cig[0].Op != align.CigarSoftClip && cig[len(cig)-1].Op != align.CigarSoftClip {
		t.Fatalf("no soft clip in cigar %s", res.Cigar)
	}
}

func TestAlignUnmappable(t *testing.T) {
	a, _ := buildAligner(t, 60_000, 38)
	res := a.AlignRead(bytes.Repeat([]byte("N"), 60))
	if !res.IsUnmapped() {
		t.Fatal("N read mapped")
	}
}
