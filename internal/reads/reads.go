// Package reads models sequencer reads and provides an Illumina-like read
// simulator.
//
// The paper's evaluation dataset is half of Illumina ERR174324: 223 million
// single-end 101-base reads. That dataset cannot ship with this repository,
// so the simulator generates reads with the same statistical structure:
// fixed read length, positionally increasing error rate with Phred-scaled
// quality strings, arbitrary read order, optional paired-end reads with a
// normally distributed insert size, and a configurable PCR-duplicate
// fraction (needed by the duplicate-marking experiments).
package reads

import (
	"fmt"
	"math"
	"math/rand"

	"persona/internal/genome"
)

// Read is one sequencer read: the three fields a FASTQ record carries (§2.1
// of the paper: bases, per-base quality, unique metadata).
type Read struct {
	// Meta uniquely identifies the read (FASTQ name line without '@').
	Meta string
	// Bases holds the base letters (A,C,G,T,N), one per position.
	Bases []byte
	// Quals holds Phred+33 quality letters, len(Quals) == len(Bases).
	Quals []byte
}

// Len returns the read length in bases.
func (r *Read) Len() int { return len(r.Bases) }

// Validate checks structural invariants.
func (r *Read) Validate() error {
	if len(r.Bases) == 0 {
		return fmt.Errorf("reads: %q has no bases", r.Meta)
	}
	if len(r.Bases) != len(r.Quals) {
		return fmt.Errorf("reads: %q has %d bases but %d quals", r.Meta, len(r.Bases), len(r.Quals))
	}
	return nil
}

// Origin records where a simulated read was drawn from, for alignment
// accuracy measurement. It is carried in the read metadata.
type Origin struct {
	Pos     int64 // global reference position of the leftmost base
	Reverse bool  // read was reverse-complemented
}

// SimConfig parameterizes read simulation.
type SimConfig struct {
	// Seed makes simulation deterministic.
	Seed int64
	// N is the number of reads (for paired mode, N must be even and counts
	// individual reads, i.e. N/2 pairs).
	N int
	// ReadLen is the read length; the paper's dataset uses 101.
	ReadLen int
	// Paired selects paired-end simulation.
	Paired bool
	// InsertMean and InsertStd parameterize the outer distance between
	// paired reads. Defaults: 400 / 50.
	InsertMean, InsertStd float64
	// ErrorRate is the per-base substitution probability at the 5' end;
	// the rate triples along the read as on real Illumina machines.
	// Default 0.002.
	ErrorRate float64
	// DuplicateFraction is the fraction of reads that are PCR duplicates of
	// an earlier read (same origin, independent errors). Default 0.
	DuplicateFraction float64
	// NamePrefix prefixes read names; default "sim".
	NamePrefix string
}

// Simulator draws reads from a reference genome.
type Simulator struct {
	cfg SimConfig
	gen *genome.Genome
	rng *rand.Rand
}

// NewSimulator validates cfg and returns a simulator over g.
func NewSimulator(g *genome.Genome, cfg SimConfig) (*Simulator, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("reads: N = %d", cfg.N)
	}
	if cfg.ReadLen <= 0 {
		cfg.ReadLen = 101
	}
	if int64(cfg.ReadLen) > g.Len() {
		return nil, fmt.Errorf("reads: read length %d exceeds genome length %d", cfg.ReadLen, g.Len())
	}
	if cfg.Paired && cfg.N%2 != 0 {
		return nil, fmt.Errorf("reads: paired simulation needs even N, got %d", cfg.N)
	}
	if cfg.InsertMean == 0 {
		cfg.InsertMean = 400
	}
	if cfg.InsertStd == 0 {
		cfg.InsertStd = 50
	}
	if cfg.ErrorRate == 0 {
		cfg.ErrorRate = 0.002
	}
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "sim"
	}
	return &Simulator{cfg: cfg, gen: g, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// All generates the full configured read set. Reads come back in arbitrary
// (non-positional) order, as from a sequencer. The parallel Origin slice
// reports ground truth for accuracy measurements.
func (s *Simulator) All() ([]Read, []Origin) {
	out := make([]Read, 0, s.cfg.N)
	origins := make([]Origin, 0, s.cfg.N)
	if s.cfg.Paired {
		for len(out) < s.cfg.N {
			r1, r2, o1, o2 := s.pair(len(out))
			out = append(out, r1, r2)
			origins = append(origins, o1, o2)
		}
	} else {
		for len(out) < s.cfg.N {
			if s.cfg.DuplicateFraction > 0 && len(out) > 0 && s.rng.Float64() < s.cfg.DuplicateFraction {
				// Duplicate an earlier read's origin with fresh errors.
				i := s.rng.Intn(len(out))
				r, o := s.fromOrigin(origins[i], fmt.Sprintf("%s.%d.dup", s.cfg.NamePrefix, len(out)))
				out = append(out, r)
				origins = append(origins, o)
				continue
			}
			r, o := s.single(fmt.Sprintf("%s.%d", s.cfg.NamePrefix, len(out)))
			out = append(out, r)
			origins = append(origins, o)
		}
	}
	return out, origins
}

// single draws one read from a uniformly random genome position and strand.
func (s *Simulator) single(name string) (Read, Origin) {
	o := Origin{
		Pos:     s.randPos(s.cfg.ReadLen),
		Reverse: s.rng.Intn(2) == 1,
	}
	r, o := s.fromOrigin(o, name)
	return r, o
}

// fromOrigin materializes a read from an origin with fresh sequencing
// errors.
func (s *Simulator) fromOrigin(o Origin, name string) (Read, Origin) {
	n := s.cfg.ReadLen
	ref, err := s.gen.Slice(o.Pos, n)
	if err != nil {
		// randPos guarantees validity; reaching here is a bug.
		panic(err)
	}
	bases := make([]byte, n)
	if o.Reverse {
		genome.ReverseComplement(bases, ref)
	} else {
		copy(bases, ref)
	}
	quals := make([]byte, n)
	for i := 0; i < n; i++ {
		rate := s.errorRateAt(i, n)
		quals[i] = phred(rate, s.rng)
		if s.rng.Float64() < rate {
			bases[i] = mutate(bases[i], s.rng)
		}
	}
	return Read{Meta: name, Bases: bases, Quals: quals}, o
}

// pair draws a proper pair: R1 forward / R2 reverse on opposite strands with
// a normally distributed outer distance.
func (s *Simulator) pair(serial int) (Read, Read, Origin, Origin) {
	n := s.cfg.ReadLen
	for {
		insert := int(s.rng.NormFloat64()*s.cfg.InsertStd + s.cfg.InsertMean)
		if insert < 2*n {
			insert = 2 * n
		}
		start := s.randPos(insert)
		o1 := Origin{Pos: start, Reverse: false}
		o2 := Origin{Pos: start + int64(insert) - int64(n), Reverse: true}
		name := fmt.Sprintf("%s.p%d", s.cfg.NamePrefix, serial/2)
		r1, o1 := s.fromOrigin(o1, name+"/1")
		r2, o2 := s.fromOrigin(o2, name+"/2")
		return r1, r2, o1, o2
	}
}

// randPos returns a global position with span bases of room after it.
func (s *Simulator) randPos(span int) int64 {
	return int64(s.rng.Int63n(s.gen.Len() - int64(span) + 1))
}

// errorRateAt models Illumina's rising error rate along the read: base rate
// at the 5' end rising to ~3x at the 3' end.
func (s *Simulator) errorRateAt(i, n int) float64 {
	frac := float64(i) / float64(n-1)
	return s.cfg.ErrorRate * (1 + 2*frac)
}

// phred converts an error rate to a Phred+33 quality letter with a little
// jitter, clamped to [2, 41] as on Illumina machines.
func phred(rate float64, rng *rand.Rand) byte {
	q := -10 * math.Log10(rate)
	q += rng.NormFloat64() * 2
	if q < 2 {
		q = 2
	}
	if q > 41 {
		q = 41
	}
	return byte('!' + int(q))
}

// mutate returns a random base different from b.
func mutate(b byte, rng *rand.Rand) byte {
	letters := []byte{'A', 'C', 'G', 'T'}
	for {
		nb := letters[rng.Intn(4)]
		if nb != b {
			return nb
		}
	}
}
