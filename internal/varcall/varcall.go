// Package varcall implements a pileup-based SNP caller with VCF output —
// the variant-calling stage the paper names as the pipeline's destination
// (§1, §2.1) and reports as under active integration (§8: "work ongoing to
// integrate comprehensive data filtering and variant calling"). The
// algorithm is the classic frequency caller: pile up aligned bases per
// reference position, then call positions where the alternate-allele
// fraction clears a threshold, emitting VCF 4.2 records (§2.2 cites VCF as
// the standard variant format).
package varcall

import (
	"context"
	"fmt"
	"io"
	"math"

	"persona/internal/agd"
	"persona/internal/align"
	"persona/internal/genome"
)

// Options parameterizes calling.
type Options struct {
	// MinDepth is the minimum pileup depth to consider a site (default 4).
	MinDepth int
	// MinAltFraction is the minimum alternate-allele fraction to call a
	// variant (default 0.25).
	MinAltFraction float64
	// HomFraction is the fraction above which a call is homozygous
	// (default 0.75).
	HomFraction float64
	// MinBaseQual drops pileup bases below this Phred quality (default 10).
	MinBaseQual int
	// MinMapQ drops reads below this mapping quality (default 10).
	MinMapQ uint8
	// SkipDuplicates ignores reads flagged as duplicates (default true via
	// NewOptions).
	SkipDuplicates bool
}

// NewOptions returns the default calling options.
func NewOptions() Options {
	return Options{
		MinDepth:       4,
		MinAltFraction: 0.25,
		HomFraction:    0.75,
		MinBaseQual:    10,
		MinMapQ:        10,
		SkipDuplicates: true,
	}
}

func (o Options) withDefaults() Options {
	d := NewOptions()
	if o.MinDepth <= 0 {
		o.MinDepth = d.MinDepth
	}
	if o.MinAltFraction <= 0 {
		o.MinAltFraction = d.MinAltFraction
	}
	if o.HomFraction <= 0 {
		o.HomFraction = d.HomFraction
	}
	if o.MinBaseQual <= 0 {
		o.MinBaseQual = d.MinBaseQual
	}
	return o
}

// Variant is one called SNP.
type Variant struct {
	Contig   string
	Pos      int64 // 0-based within the contig
	Ref, Alt byte
	Depth    int
	AltDepth int
	Qual     float64
	// Genotype is "0/1" (het) or "1/1" (hom alt).
	Genotype string
}

// Pileup holds per-position base counts over the genome's global space.
type Pileup struct {
	gen    *genome.Genome
	counts [][4]int32 // indexed by global position, then base code
	depth  []int32
	reads  int64
	used   int64

	// Reused per-read scratch: parsed CIGAR, reverse-complemented sequence
	// and reversed qualities. Piling up allocates nothing per read.
	cigar  align.Cigar
	rcSeq  []byte
	rcQual []byte
}

// NewPileup allocates a pileup over the whole genome. Memory is
// 20 bytes/base; for the synthetic scales this package targets that is
// megabytes. (A windowed pileup would replace this for 3-Gbp references.)
func NewPileup(g *genome.Genome) *Pileup {
	return &Pileup{
		gen:    g,
		counts: make([][4]int32, g.Len()),
		depth:  make([]int32, g.Len()),
	}
}

// AddDataset piles up every eligible read of an aligned dataset, streaming
// the three columns it needs through a prefetching agd.ChunkStream.
// Cancellation and deadline of ctx are checked per chunk.
func (p *Pileup) AddDataset(ctx context.Context, ds *agd.Dataset, opts Options) error {
	opts = opts.withDefaults()
	m := ds.Manifest
	if !m.HasColumn(agd.ColResults) {
		return fmt.Errorf("varcall: dataset %q has no results column", m.Name)
	}
	stream, err := ds.Stream(agd.StreamOptions{
		Columns:     []string{agd.ColBases, agd.ColQual, agd.ColResults},
		ShardedPool: agd.NewChunkPool(3 * agd.PoolGroups),
	})
	if err != nil {
		return err
	}
	defer stream.Close()
	var scratch []byte
	for {
		sc, err := stream.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		chunks := sc.Chunks()
		basesChunk, qualChunk, resChunk := chunks[0], chunks[1], chunks[2]
		for r := 0; r < basesChunk.NumRecords(); r++ {
			res, err := resChunk.DecodeResultViewRecord(r)
			if err != nil {
				return err
			}
			p.reads++
			if res.IsUnmapped() || res.MapQ < opts.MinMapQ {
				continue
			}
			if opts.SkipDuplicates && res.IsDuplicate() {
				continue
			}
			bases, err := basesChunk.ExpandBasesRecord(scratch[:0], r)
			if err != nil {
				return err
			}
			scratch = bases
			qual, err := qualChunk.Record(r)
			if err != nil {
				return err
			}
			if err := p.addRead(bases, qual, &res, opts); err != nil {
				return err
			}
			p.used++
		}
		sc.Release()
	}
}

// addRead walks one read's CIGAR, attributing aligned bases to reference
// positions. Stored reads are in as-sequenced orientation; reverse-strand
// CIGARs refer to the reverse complement, so the read is flipped first
// (into the pileup's reused scratch).
func (p *Pileup) addRead(bases, qual []byte, res *agd.ResultView, opts Options) error {
	cigar, err := align.ParseCigarBytes(p.cigar[:0], res.Cigar)
	p.cigar = cigar
	if err != nil {
		return err
	}
	seq := bases
	quals := qual
	if res.IsReverse() {
		p.rcSeq = genome.ReverseComplementScratch(p.rcSeq, bases)
		p.rcQual = genome.ReverseScratch(p.rcQual, qual)
		seq, quals = p.rcSeq, p.rcQual
	}
	qi, ref := 0, res.Location
	for _, e := range cigar {
		switch e.Op {
		case align.CigarMatch, align.CigarEqual, align.CigarDiff:
			for k := 0; k < e.Len; k++ {
				if ref >= 0 && ref < p.gen.Len() && int(quals[qi]-'!') >= opts.MinBaseQual {
					code := genome.Code(seq[qi])
					if code <= 3 {
						p.counts[ref][code]++
						p.depth[ref]++
					}
				}
				qi++
				ref++
			}
		case align.CigarIns, align.CigarSoftClip:
			qi += e.Len
		case align.CigarDel, align.CigarSkip:
			ref += int64(e.Len)
		case align.CigarHardClip, align.CigarPad:
			// consume nothing
		}
	}
	return nil
}

// Stats reports pileup accounting.
func (p *Pileup) Stats() (reads, used int64) { return p.reads, p.used }

// Depth returns the pileup depth at a global position.
func (p *Pileup) Depth(pos int64) int {
	if pos < 0 || pos >= int64(len(p.depth)) {
		return 0
	}
	return int(p.depth[pos])
}

// Call scans the pileup and returns SNP calls in genome order.
func (p *Pileup) Call(opts Options) ([]Variant, error) {
	opts = opts.withDefaults()
	var out []Variant
	seq := p.gen.Seq()
	for pos := int64(0); pos < p.gen.Len(); pos++ {
		depth := int(p.depth[pos])
		if depth < opts.MinDepth {
			continue
		}
		refBase := seq[pos]
		refCode := genome.Code(refBase)
		// Best non-reference allele.
		altCode, altCount := -1, int32(0)
		for c := 0; c < 4; c++ {
			if uint8(c) == refCode {
				continue
			}
			if p.counts[pos][c] > altCount {
				altCode, altCount = c, p.counts[pos][c]
			}
		}
		if altCode < 0 || altCount == 0 {
			continue
		}
		frac := float64(altCount) / float64(depth)
		if frac < opts.MinAltFraction {
			continue
		}
		contig, off, err := p.gen.Locate(pos)
		if err != nil {
			return nil, err
		}
		genotype := "0/1"
		if frac >= opts.HomFraction {
			genotype = "1/1"
		}
		out = append(out, Variant{
			Contig:   contig,
			Pos:      off,
			Ref:      refBase,
			Alt:      genome.Letter(uint8(altCode)),
			Depth:    depth,
			AltDepth: int(altCount),
			Qual:     variantQual(int(altCount), depth),
			Genotype: genotype,
		})
	}
	return out, nil
}

// variantQual is a Phred-scaled confidence from a binomial error model: the
// probability of altDepth reads all being miscalls at ~1% error.
func variantQual(altDepth, depth int) float64 {
	q := float64(altDepth) * 20 // -10·log10(0.01) per supporting read
	if q > 3000 {
		q = 3000
	}
	_ = depth
	return math.Round(q*10) / 10
}

// CallDataset piles up a dataset and calls variants in one step.
func CallDataset(ctx context.Context, ds *agd.Dataset, g *genome.Genome, opts Options) ([]Variant, error) {
	p := NewPileup(g)
	if err := p.AddDataset(ctx, ds, opts); err != nil {
		return nil, err
	}
	return p.Call(opts)
}

// WriteVCF renders calls as a minimal VCF 4.2 stream.
func WriteVCF(w io.Writer, refs []agd.RefSeq, variants []Variant) error {
	if _, err := fmt.Fprintf(w, "##fileformat=VCFv4.2\n##source=persona\n"); err != nil {
		return err
	}
	for _, r := range refs {
		if _, err := fmt.Fprintf(w, "##contig=<ID=%s,length=%d>\n", r.Name, r.Length); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "##INFO=<ID=DP,Number=1,Type=Integer,Description=\"Total Depth\">\n"+
		"##INFO=<ID=AD,Number=1,Type=Integer,Description=\"Alt Depth\">\n"+
		"##FORMAT=<ID=GT,Number=1,Type=String,Description=\"Genotype\">\n"+
		"#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tsample\n"); err != nil {
		return err
	}
	for _, v := range variants {
		if _, err := fmt.Fprintf(w, "%s\t%d\t.\t%c\t%c\t%.1f\tPASS\tDP=%d;AD=%d\tGT\t%s\n",
			v.Contig, v.Pos+1, v.Ref, v.Alt, v.Qual, v.Depth, v.AltDepth, v.Genotype); err != nil {
			return err
		}
	}
	return nil
}

// refsOf is a convenience for VCF emission from a genome.
func RefsOf(g *genome.Genome) []agd.RefSeq { return agd.RefSeqsFromGenome(g) }
