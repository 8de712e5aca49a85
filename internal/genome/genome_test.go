package genome

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestCodeLetterRoundTrip(t *testing.T) {
	for _, b := range []byte{'A', 'C', 'G', 'T', 'N'} {
		if got := Letter(Code(b)); got != b {
			t.Errorf("Letter(Code(%c)) = %c", b, got)
		}
	}
	if Code('a') != Code('A') || Code('x') != Code('N') {
		t.Error("case folding / unknown mapping broken")
	}
}

func TestComplement(t *testing.T) {
	pairs := map[byte]byte{'A': 'T', 'T': 'A', 'C': 'G', 'G': 'C', 'N': 'N'}
	for b, want := range pairs {
		if got := Complement(b); got != want {
			t.Errorf("Complement(%c) = %c, want %c", b, got, want)
		}
	}
}

// TestCodeComplementEveryByte holds the lookup tables behind Code and
// Complement to their definition over all 256 byte values: the four bases in
// either case, everything else ambiguous.
func TestCodeComplementEveryByte(t *testing.T) {
	for i := 0; i < 256; i++ {
		b := byte(i)
		wantCode, wantComp := uint8(4), BaseN
		switch b {
		case 'A', 'a':
			wantCode, wantComp = 0, BaseT
		case 'C', 'c':
			wantCode, wantComp = 1, BaseG
		case 'G', 'g':
			wantCode, wantComp = 2, BaseC
		case 'T', 't':
			wantCode, wantComp = 3, BaseA
		}
		if Code(b) != wantCode || Complement(b) != wantComp {
			t.Errorf("byte %#x: Code %d Complement %c, want %d %c", b, Code(b), Complement(b), wantCode, wantComp)
		}
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		// Map arbitrary bytes into base space first.
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = Letter(b % 5)
		}
		rc := ReverseComplement(make([]byte, len(seq)), seq)
		rcrc := ReverseComplement(make([]byte, len(rc)), rc)
		return bytes.Equal(rcrc, seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewGenomeCoordinates(t *testing.T) {
	g, err := New([]Contig{
		{Name: "c1", Seq: []byte("ACGTACGT")},
		{Name: "c2", Seq: []byte("TTTT")},
		{Name: "c3", Seq: []byte("GGGGGG")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 18 {
		t.Fatalf("Len = %d, want 18", g.Len())
	}
	name, off, err := g.Locate(9)
	if err != nil || name != "c2" || off != 1 {
		t.Fatalf("Locate(9) = %s,%d,%v want c2,1", name, off, err)
	}
	pos, err := g.GlobalPos("c3", 2)
	if err != nil || pos != 14 {
		t.Fatalf("GlobalPos(c3,2) = %d,%v want 14", pos, err)
	}
	if _, err := g.GlobalPos("nope", 0); err == nil {
		t.Fatal("GlobalPos on unknown contig succeeded")
	}
	if _, err := g.At(-1); err == nil {
		t.Fatal("At(-1) succeeded")
	}
	if _, err := g.Slice(16, 5); err == nil {
		t.Fatal("Slice past end succeeded")
	}
	b, err := g.At(8)
	if err != nil || b != 'T' {
		t.Fatalf("At(8) = %c,%v want T", b, err)
	}
}

func TestLocateGlobalPosInverse(t *testing.T) {
	g, err := Synthesize(DefaultSyntheticConfig(50_000, 7))
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint32) bool {
		pos := int64(raw) % g.Len()
		name, off, err := g.Locate(pos)
		if err != nil {
			return false
		}
		back, err := g.GlobalPos(name, off)
		return err == nil && back == pos
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewGenomeRejectsBadInput(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) succeeded")
	}
	if _, err := New([]Contig{{Name: "", Seq: []byte("A")}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New([]Contig{{Name: "x", Seq: nil}}); err == nil {
		t.Fatal("empty contig accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := DefaultSyntheticConfig(100_000, 42)
	g1, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g1.Seq(), g2.Seq()) {
		t.Fatal("same seed produced different genomes")
	}
	g3, err := Synthesize(DefaultSyntheticConfig(100_000, 43))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(g1.Seq(), g3.Seq()) {
		t.Fatal("different seeds produced identical genomes")
	}
}

func TestSynthesizeProperties(t *testing.T) {
	g, err := Synthesize(DefaultSyntheticConfig(200_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 200_000 {
		t.Fatalf("Len = %d, want 200000", g.Len())
	}
	if g.NumContigs() < 2 {
		t.Fatalf("NumContigs = %d, want >= 2", g.NumContigs())
	}
	var counts [256]int
	for _, b := range g.Seq() {
		counts[b]++
	}
	for _, b := range g.Seq() {
		switch b {
		case 'A', 'C', 'G', 'T', 'N':
		default:
			t.Fatalf("unexpected base %q", b)
		}
	}
	gc := float64(counts['G']+counts['C']) / float64(g.Len())
	if gc < 0.35 || gc > 0.47 {
		t.Fatalf("GC = %.3f, want ≈0.41", gc)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := Synthesize(SyntheticConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Synthesize(SyntheticConfig{ContigLengths: []int{0}}); err == nil {
		t.Fatal("zero-length contig accepted")
	}
}

func TestGenomeString(t *testing.T) {
	g, _ := New([]Contig{{Name: "c1", Seq: []byte("ACGT")}})
	if s := g.String(); s == "" {
		t.Fatal("empty String()")
	}
}
