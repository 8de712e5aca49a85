package snap

import (
	"errors"
	"slices"
	"testing"

	"persona/internal/agd"
	"persona/internal/align"
	"persona/internal/genome"
	"persona/internal/reads"
)

func testGenome(t testing.TB, size int, seed int64) *genome.Genome {
	t.Helper()
	g, err := genome.Synthesize(genome.DefaultSyntheticConfig(size, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testIndex(t testing.TB, g *genome.Genome) *Index {
	t.Helper()
	idx, err := BuildIndex(g, IndexConfig{SeedLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestBuildIndexProperties(t *testing.T) {
	g := testGenome(t, 100_000, 21)
	idx := testIndex(t, g)
	if idx.NumSeeds() == 0 {
		t.Fatal("empty index")
	}
	if idx.SeedLen() != 16 {
		t.Fatalf("seed len = %d", idx.SeedLen())
	}
	// Every indexed location must actually contain its seed.
	seq := g.Seq()
	checked := 0
	for i := 0; i+16 <= len(seq) && checked < 2000; i += 97 {
		locs := idx.Lookup(seq, i)
		window := seq[i : i+16]
		hasN := false
		for _, b := range window {
			if b == 'N' {
				hasN = true
			}
		}
		if hasN {
			if locs != nil {
				t.Fatalf("seed with N indexed at %d", i)
			}
			continue
		}
		found := false
		for _, loc := range locs {
			if int(loc) == i {
				found = true
			}
			got, err := g.Slice(int64(loc), 16)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(window) {
				t.Fatalf("location %d does not contain seed from %d", loc, i)
			}
		}
		if !found {
			t.Fatalf("position %d missing from its own seed's locations", i)
		}
		checked++
	}
}

func TestBuildIndexValidation(t *testing.T) {
	g := testGenome(t, 10_000, 1)
	if _, err := BuildIndex(g, IndexConfig{SeedLen: 40}); err == nil {
		t.Fatal("seed length 40 accepted")
	}
}

func TestAlignExactReads(t *testing.T) {
	g := testGenome(t, 200_000, 22)
	idx := testIndex(t, g)
	a := NewAligner(idx, Config{MaxDist: 8})
	for pos := int64(100); pos < g.Len()-200; pos += 7919 {
		ref, err := g.Slice(pos, 100)
		if err != nil {
			t.Fatal(err)
		}
		hasN := false
		for _, b := range ref {
			if b == 'N' {
				hasN = true
			}
		}
		if hasN {
			continue
		}
		res := a.AlignRead(ref)
		if res.IsUnmapped() {
			t.Fatalf("exact read at %d unmapped", pos)
		}
		if res.Score != 0 {
			t.Fatalf("exact read at %d has distance %d", pos, res.Score)
		}
		// Repeats may legitimately map elsewhere with distance 0; require
		// either the origin or another exact copy.
		if res.Location != pos {
			got, err := g.Slice(res.Location, 100)
			if err != nil || string(got) != string(ref) {
				t.Fatalf("read from %d mapped to %d which is not an exact copy", pos, res.Location)
			}
		}
		if res.Cigar != "100M" {
			t.Fatalf("exact read cigar = %s", res.Cigar)
		}
	}
}

func TestAlignSimulatedReadsAccuracy(t *testing.T) {
	g := testGenome(t, 400_000, 23)
	idx := testIndex(t, g)
	a := NewAligner(idx, Config{MaxDist: 10})
	sim, err := reads.NewSimulator(g, reads.SimConfig{Seed: 5, N: 1500, ReadLen: 101, ErrorRate: 0.003})
	if err != nil {
		t.Fatal(err)
	}
	rs, origins := sim.All()
	mapped, correct, confident, confidentWrong := 0, 0, 0, 0
	for i := range rs {
		res := a.AlignRead(rs[i].Bases)
		if res.IsUnmapped() {
			continue
		}
		mapped++
		if res.IsReverse() != origins[i].Reverse {
			continue
		}
		diff := res.Location - origins[i].Pos
		if diff < 0 {
			diff = -diff
		}
		if diff <= 5 {
			correct++
		}
		if res.MapQ >= 30 {
			confident++
			if diff > 5 {
				confidentWrong++
			}
		}
	}
	if frac := float64(mapped) / float64(len(rs)); frac < 0.97 {
		t.Fatalf("mapped fraction %.3f < 0.97", frac)
	}
	if frac := float64(correct) / float64(mapped); frac < 0.95 {
		t.Fatalf("correct fraction %.3f < 0.95", frac)
	}
	// High-MAPQ alignments should rarely be wrong.
	if confident > 0 {
		if frac := float64(confidentWrong) / float64(confident); frac > 0.02 {
			t.Fatalf("confident-wrong fraction %.4f > 0.02", frac)
		}
	}
	stats := a.Stats()
	if stats.Reads != int64(len(rs)) || stats.CandidatesxLV == 0 {
		t.Fatalf("stats not accumulated: %+v", stats)
	}
}

func TestAlignReverseComplementReads(t *testing.T) {
	g := testGenome(t, 100_000, 24)
	idx := testIndex(t, g)
	a := NewAligner(idx, Config{MaxDist: 6})
	found := 0
	for pos := int64(500); pos < g.Len()-200 && found < 50; pos += 1009 {
		ref, err := g.Slice(pos, 80)
		if err != nil {
			t.Fatal(err)
		}
		skip := false
		for _, b := range ref {
			if b == 'N' {
				skip = true
			}
		}
		if skip {
			continue
		}
		rc := genome.ReverseComplement(make([]byte, 80), ref)
		res := a.AlignRead(rc)
		if res.IsUnmapped() {
			t.Fatalf("rc read from %d unmapped", pos)
		}
		if !res.IsReverse() {
			t.Fatalf("rc read from %d not flagged reverse", pos)
		}
		found++
	}
	if found == 0 {
		t.Fatal("no rc reads tested")
	}
}

func TestAlignUnalignableRead(t *testing.T) {
	g := testGenome(t, 50_000, 25)
	idx := testIndex(t, g)
	a := NewAligner(idx, Config{MaxDist: 4})
	// A read of Ns can't be seeded.
	res := a.AlignRead([]byte("NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN"))
	if !res.IsUnmapped() {
		t.Fatal("N read mapped")
	}
	// Too-short reads can't be seeded either.
	res = a.AlignRead([]byte("ACGT"))
	if !res.IsUnmapped() {
		t.Fatal("4bp read mapped")
	}
	// Nor, as packed records, can those, a read of 0 bases or one a base
	// short of a seed.
	short, err := g.Slice(1000, idx.SeedLen()-1)
	if err != nil {
		t.Fatal(err)
	}
	for _, read := range []string{"NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN", "ACGT", "", string(short)} {
		res, err := a.AlignPacked(agd.PackBases(nil, []byte(read)))
		if err != nil || !res.IsUnmapped() {
			t.Fatalf("AlignPacked(%q) = %+v, %v; want unmapped", read, res, err)
		}
	}
}

// TestAlignPackedCorrupt: a record that does not decode is an error, not a
// read, for either entry point.
func TestAlignPackedCorrupt(t *testing.T) {
	g := testGenome(t, 50_000, 25)
	a := NewAligner(testIndex(t, g), Config{})
	read, err := g.Slice(2000, 60)
	if err != nil {
		t.Fatal(err)
	}
	good := agd.PackBases(nil, read)
	for _, bad := range [][]byte{nil, {0x80}, good[:len(good)-1], append(slices.Clip(good), 70, 1)} {
		if _, err := a.AlignPacked(bad); !errors.Is(err, agd.ErrCorrupt) {
			t.Errorf("AlignPacked(%v) err = %v, want ErrCorrupt", bad, err)
		}
		if _, _, err := a.AlignPackedPair(good, bad); !errors.Is(err, agd.ErrCorrupt) {
			t.Errorf("AlignPackedPair(good, %v) err = %v, want ErrCorrupt", bad, err)
		}
	}
	if s := a.Stats(); s.Reads != 0 {
		t.Errorf("%d reads counted, want none", s.Reads)
	}
}

func TestAlignPairProper(t *testing.T) {
	g := testGenome(t, 300_000, 26)
	idx := testIndex(t, g)
	a := NewAligner(idx, Config{MaxDist: 10, MinInsert: 100, MaxInsert: 800})
	sim, err := reads.NewSimulator(g, reads.SimConfig{
		Seed: 6, N: 400, ReadLen: 90, Paired: true, InsertMean: 350, InsertStd: 30, ErrorRate: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, origins := sim.All()
	proper, correct := 0, 0
	for i := 0; i < len(rs); i += 2 {
		r1, r2 := a.AlignPair(rs[i].Bases, rs[i+1].Bases)
		if r1.Flags&agd.FlagPaired == 0 || r2.Flags&agd.FlagPaired == 0 {
			t.Fatal("pair flags missing")
		}
		if r1.Flags&agd.FlagFirstInPair == 0 || r2.Flags&agd.FlagSecondInPair == 0 {
			t.Fatal("pair order flags missing")
		}
		if r1.Flags&agd.FlagProperPair == 0 {
			continue
		}
		proper++
		if r1.MateLocation != r2.Location || r2.MateLocation != r1.Location {
			t.Fatal("mate locations inconsistent")
		}
		if r1.TemplateLen != -r2.TemplateLen {
			t.Fatalf("TLEN not antisymmetric: %d %d", r1.TemplateLen, r2.TemplateLen)
		}
		d1 := r1.Location - origins[i].Pos
		if d1 < 0 {
			d1 = -d1
		}
		d2 := r2.Location - origins[i+1].Pos
		if d2 < 0 {
			d2 = -d2
		}
		if d1 <= 5 && d2 <= 5 {
			correct++
		}
	}
	if frac := float64(proper) / float64(len(rs)/2); frac < 0.9 {
		t.Fatalf("proper-pair fraction %.3f < 0.9", frac)
	}
	if frac := float64(correct) / float64(proper); frac < 0.95 {
		t.Fatalf("pair-correct fraction %.3f < 0.95", frac)
	}
}

func TestAlignPairFallback(t *testing.T) {
	g := testGenome(t, 100_000, 27)
	idx := testIndex(t, g)
	a := NewAligner(idx, Config{MaxDist: 6})
	ref, err := g.Slice(1000, 80)
	if err != nil {
		t.Fatal(err)
	}
	junk := []byte("NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN")
	r1, r2 := a.AlignPair(ref, junk)
	if r1.IsUnmapped() {
		t.Fatal("mappable end unmapped")
	}
	if !r2.IsUnmapped() {
		t.Fatal("junk end mapped")
	}
	if r1.Flags&agd.FlagMateUnmapped == 0 {
		t.Fatal("mate-unmapped flag missing")
	}
}

func TestCigarMatchesReadLength(t *testing.T) {
	g := testGenome(t, 150_000, 28)
	idx := testIndex(t, g)
	a := NewAligner(idx, Config{MaxDist: 10})
	sim, err := reads.NewSimulator(g, reads.SimConfig{Seed: 8, N: 300, ReadLen: 75, ErrorRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := sim.All()
	for i := range rs {
		res := a.AlignRead(rs[i].Bases)
		if res.IsUnmapped() {
			continue
		}
		cig, err := align.ParseCigar(res.Cigar)
		if err != nil {
			t.Fatal(err)
		}
		if cig.ReadLen() != len(rs[i].Bases) {
			t.Fatalf("cigar %s consumes %d bases, read is %d", res.Cigar, cig.ReadLen(), len(rs[i].Bases))
		}
	}
}

func TestConfigValidate(t *testing.T) {
	g := testGenome(t, 50_000, 29)
	idx := testIndex(t, g)
	if err := (Config{MinInsert: 500, MaxInsert: 100}).Validate(idx); err == nil {
		t.Fatal("inverted insert bounds accepted")
	}
	if err := (Config{}).Validate(idx); err != nil {
		t.Fatal(err)
	}
}
