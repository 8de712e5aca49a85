// Package genome models reference genomes: named contigs of bases, global
// coordinates, and deterministic synthetic genome generation.
//
// The paper aligns against hg19 (≈3 Gbp). hg19 is not redistributable inside
// this repository and would not fit the test environment, so benchmarks and
// tests use synthetic genomes drawn from a seeded PRNG with hg19-like
// properties (multiple contigs, ~41% GC, occasional N runs and repeated
// segments so aligners see both unique and ambiguous seeds). All code paths
// are sequence-agnostic.
package genome

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Base codes. Persona stores bases 3 bits each (AGD base compaction), which
// leaves room for the ambiguous base N alongside A, C, G, T.
const (
	BaseA = byte('A')
	BaseC = byte('C')
	BaseG = byte('G')
	BaseT = byte('T')
	BaseN = byte('N')
)

// codeTab, letterTab and complementTab back Code, Letter and Complement: the
// aligners and the base codec call them once per base of every read, so each
// is a single table load.
var codeTab, letterTab, complementTab = func() (code, letter, comp [256]byte) {
	for i := range code {
		code[i], letter[i], comp[i] = 4, BaseN, BaseN
	}
	for c, b := range []byte("ACGT") {
		lower := b | 0x20
		code[b], code[lower] = byte(c), byte(c)
		letter[c] = b
		comp[b], comp[lower] = "TGCA"[c], "TGCA"[c]
	}
	return code, letter, comp
}()

// Code converts a base letter to its 3-bit code (0..4). Lower-case letters
// are accepted. Unknown letters map to N's code.
func Code(b byte) uint8 { return codeTab[b] }

// Letter converts a 3-bit code back to its base letter; every code above 3
// reads as N.
func Letter(code uint8) byte { return letterTab[code] }

// Complement returns the Watson-Crick complement of a base letter; N maps to
// N.
func Complement(b byte) byte { return complementTab[b] }

// ReverseComplement writes the reverse complement of src into dst, which
// must have len(src) capacity available; it returns dst resliced.
func ReverseComplement(dst, src []byte) []byte {
	dst = dst[:len(src)]
	for i, b := range src {
		dst[len(src)-1-i] = Complement(b)
	}
	return dst
}

// ReverseComplementScratch is ReverseComplement over a reusable scratch:
// dst's backing array is grown as needed and reused otherwise, so hot loops
// (SAM import/export, pileup) flip strands without allocating.
func ReverseComplementScratch(dst, src []byte) []byte {
	if cap(dst) < len(src) {
		dst = make([]byte, len(src))
	}
	return ReverseComplement(dst[:0], src)
}

// ReverseScratch copies src reversed into a reusable scratch (the quality
// string of a reverse-strand read, flipped alongside its bases).
func ReverseScratch(dst, src []byte) []byte {
	dst = append(dst[:0], src...)
	for i, j := 0, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// Contig is a named contiguous reference sequence (a chromosome in hg19
// terms). Offset is the contig's start in the genome's global coordinate
// space, which is how AGD results store positions.
type Contig struct {
	Name   string
	Offset int64
	Seq    []byte
}

// Len returns the contig length in bases.
func (c *Contig) Len() int { return len(c.Seq) }

// Genome is a reference genome: an ordered list of contigs plus the
// concatenated sequence for global addressing.
type Genome struct {
	contigs []Contig
	seq     []byte // concatenation of all contig sequences
	total   int64
}

// ErrOutOfRange is returned for positions outside the genome.
var ErrOutOfRange = errors.New("genome: position out of range")

// New assembles a genome from named sequences in order. Sequences are
// retained (not copied); callers must not mutate them afterwards.
func New(contigs []Contig) (*Genome, error) {
	g := &Genome{}
	var off int64
	for _, c := range contigs {
		if c.Name == "" {
			return nil, errors.New("genome: contig with empty name")
		}
		if len(c.Seq) == 0 {
			return nil, fmt.Errorf("genome: contig %q is empty", c.Name)
		}
		c.Offset = off
		g.contigs = append(g.contigs, c)
		g.seq = append(g.seq, c.Seq...)
		off += int64(len(c.Seq))
	}
	if len(g.contigs) == 0 {
		return nil, errors.New("genome: no contigs")
	}
	g.total = off
	return g, nil
}

// Len returns total bases across all contigs.
func (g *Genome) Len() int64 { return g.total }

// NumContigs returns the number of contigs.
func (g *Genome) NumContigs() int { return len(g.contigs) }

// Contigs returns the contig descriptors in genome order.
func (g *Genome) Contigs() []Contig { return g.contigs }

// Seq returns the full concatenated sequence. Callers must not mutate it.
func (g *Genome) Seq() []byte { return g.seq }

// At returns the base at global position pos.
func (g *Genome) At(pos int64) (byte, error) {
	if pos < 0 || pos >= g.total {
		return 0, ErrOutOfRange
	}
	return g.seq[pos], nil
}

// Slice returns the subsequence [pos, pos+n) in global coordinates. The
// returned slice aliases the genome; callers must not mutate it.
func (g *Genome) Slice(pos int64, n int) ([]byte, error) {
	if pos < 0 || pos+int64(n) > g.total {
		return nil, ErrOutOfRange
	}
	return g.seq[pos : pos+int64(n)], nil
}

// Locate translates a global position to (contig name, 0-based offset within
// the contig).
func (g *Genome) Locate(pos int64) (string, int64, error) {
	if pos < 0 || pos >= g.total {
		return "", 0, ErrOutOfRange
	}
	i := sort.Search(len(g.contigs), func(i int) bool {
		return g.contigs[i].Offset+int64(len(g.contigs[i].Seq)) > pos
	})
	c := &g.contigs[i]
	return c.Name, pos - c.Offset, nil
}

// GlobalPos translates (contig name, offset) to a global position.
func (g *Genome) GlobalPos(contig string, off int64) (int64, error) {
	for i := range g.contigs {
		if g.contigs[i].Name == contig {
			if off < 0 || off >= int64(len(g.contigs[i].Seq)) {
				return 0, ErrOutOfRange
			}
			return g.contigs[i].Offset + off, nil
		}
	}
	return 0, fmt.Errorf("genome: unknown contig %q", contig)
}

// String summarizes the genome.
func (g *Genome) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "genome{%d contigs, %d bases:", len(g.contigs), g.total)
	for _, c := range g.contigs {
		fmt.Fprintf(&sb, " %s=%d", c.Name, len(c.Seq))
	}
	sb.WriteByte('}')
	return sb.String()
}

// SyntheticConfig parameterizes synthetic genome generation.
type SyntheticConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// ContigLengths gives the length of each generated contig, in order.
	ContigLengths []int
	// GC is the GC content in [0,1]; hg19 is ≈0.41. Zero means 0.41.
	GC float64
	// RepeatFraction is the fraction of each contig rewritten as copies of
	// earlier segments, creating the ambiguous (multi-mapping) regions real
	// genomes have. Zero means 0.05.
	RepeatFraction float64
	// NRunEvery inserts a short run of N every approximately this many
	// bases (0 disables). Real references contain N gaps.
	NRunEvery int
}

// DefaultSyntheticConfig returns an hg19-flavoured configuration with the
// given total size split over a few contigs.
func DefaultSyntheticConfig(totalBases int, seed int64) SyntheticConfig {
	// Split roughly like the first human chromosomes: a few contigs of
	// decreasing size.
	weights := []float64{0.35, 0.25, 0.2, 0.12, 0.08}
	lengths := make([]int, 0, len(weights))
	remaining := totalBases
	for i, w := range weights {
		n := int(float64(totalBases) * w)
		if i == len(weights)-1 {
			n = remaining
		}
		if n <= 0 {
			break
		}
		lengths = append(lengths, n)
		remaining -= n
	}
	return SyntheticConfig{
		Seed:           seed,
		ContigLengths:  lengths,
		GC:             0.41,
		RepeatFraction: 0.05,
		NRunEvery:      1 << 20,
	}
}

// Synthesize generates a deterministic synthetic genome.
func Synthesize(cfg SyntheticConfig) (*Genome, error) {
	if len(cfg.ContigLengths) == 0 {
		return nil, errors.New("genome: no contig lengths")
	}
	if cfg.GC == 0 {
		cfg.GC = 0.41
	}
	if cfg.RepeatFraction == 0 {
		cfg.RepeatFraction = 0.05
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	contigs := make([]Contig, 0, len(cfg.ContigLengths))
	for i, n := range cfg.ContigLengths {
		if n <= 0 {
			return nil, fmt.Errorf("genome: contig %d has length %d", i, n)
		}
		seq := make([]byte, n)
		for j := range seq {
			seq[j] = randomBase(rng, cfg.GC)
		}
		applyRepeats(rng, seq, cfg.RepeatFraction)
		if cfg.NRunEvery > 0 {
			applyNRuns(rng, seq, cfg.NRunEvery)
		}
		contigs = append(contigs, Contig{Name: fmt.Sprintf("chr%d", i+1), Seq: seq})
	}
	return New(contigs)
}

func randomBase(rng *rand.Rand, gc float64) byte {
	if rng.Float64() < gc {
		if rng.Intn(2) == 0 {
			return BaseG
		}
		return BaseC
	}
	if rng.Intn(2) == 0 {
		return BaseA
	}
	return BaseT
}

// applyRepeats copies earlier segments over later positions so a fraction of
// the contig is (near-)duplicated, as in real genomes.
func applyRepeats(rng *rand.Rand, seq []byte, fraction float64) {
	if len(seq) < 1000 || fraction <= 0 {
		return
	}
	target := int(float64(len(seq)) * fraction)
	for copied := 0; copied < target; {
		segLen := 200 + rng.Intn(800)
		src := rng.Intn(len(seq) - segLen)
		dst := rng.Intn(len(seq) - segLen)
		if src == dst {
			continue
		}
		copy(seq[dst:dst+segLen], seq[src:src+segLen])
		// Sprinkle a few mutations so repeats are near-exact, not exact.
		for m := 0; m < segLen/100; m++ {
			seq[dst+rng.Intn(segLen)] = randomBase(rng, 0.5)
		}
		copied += segLen
	}
}

func applyNRuns(rng *rand.Rand, seq []byte, every int) {
	for pos := every; pos+64 < len(seq); pos += every {
		runLen := 8 + rng.Intn(56)
		for i := 0; i < runLen; i++ {
			seq[pos+i] = BaseN
		}
	}
}
