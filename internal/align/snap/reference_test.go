package snap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"persona/internal/agd"
	"persona/internal/align"
	"persona/internal/genome"
	"persona/internal/reads"
)

// The reference aligner: the same algorithm written the plain way, which
// the production kernel must match result for result and counter for
// counter. Its index is a map of per-seed slices, every seed is packed from
// its bases, candidates are deduplicated through a set, and the CIGAR comes
// from a full edit-distance table over the MaxDist-wide window.

type refAligner struct {
	gen     *genome.Genome
	seedLen int
	table   map[uint64][]int32
	cfg     Config
	counts  Stats
}

// refSeedKey packs bases[:seedLen]; ok is false on an ambiguous base.
func refSeedKey(bases []byte) (key uint64, ok bool) {
	for _, b := range bases {
		var code uint64
		switch b {
		case 'A', 'a':
			code = 0
		case 'C', 'c':
			code = 1
		case 'G', 'g':
			code = 2
		case 'T', 't':
			code = 3
		default:
			return 0, false
		}
		key = key<<2 | code
	}
	return key, true
}

func newRefAligner(g *genome.Genome, icfg IndexConfig, cfg Config) *refAligner {
	if icfg.MaxSeedHits <= 0 {
		icfg.MaxSeedHits = 300
	}
	r := &refAligner{gen: g, seedLen: icfg.SeedLen, table: map[uint64][]int32{}, cfg: cfg.withDefaults(icfg.SeedLen)}
	seq := g.Seq()
	for i := 0; i+r.seedLen <= len(seq); i++ {
		key, ok := refSeedKey(seq[i : i+r.seedLen])
		if ok && len(r.table[key]) < icfg.MaxSeedHits {
			r.table[key] = append(r.table[key], int32(i))
		}
	}
	return r
}

func (r *refAligner) gather(bases []byte) (cands []candidate, rc []byte) {
	rc = genome.ReverseComplement(make([]byte, len(bases)), bases)
	seen := map[candidate]bool{}
	for _, strand := range []struct {
		seq []byte
		rc  bool
	}{{bases, false}, {rc, true}} {
		for off := 0; off+r.seedLen <= len(strand.seq); off += r.cfg.SeedStride {
			r.counts.SeedLookups++
			key, ok := refSeedKey(strand.seq[off : off+r.seedLen])
			if !ok {
				continue
			}
			for _, loc := range r.table[key] {
				c := candidate{pos: int64(loc) - int64(off), rc: strand.rc}
				if c.pos < 0 || c.pos+int64(len(bases)) > r.gen.Len()+int64(r.cfg.MaxDist) || seen[c] {
					continue
				}
				seen[c] = true
				cands = append(cands, c)
			}
		}
	}
	return cands[:min(len(cands), r.cfg.MaxCandidates*2)], rc
}

func (r *refAligner) window(pos int64, n int) []byte {
	if pos < 0 || pos >= r.gen.Len() {
		return nil
	}
	return r.gen.Seq()[pos:min(pos+int64(n), r.gen.Len())]
}

func (r *refAligner) verify(query []byte, pos int64, maxK int) int {
	window := r.window(pos, len(query)+maxK)
	if maxK < 0 || window == nil {
		return -1
	}
	r.counts.CandidatesxLV++
	d, ops := align.LandauVishkinOps(query, window, maxK)
	r.counts.LVCells += int64(ops)
	r.counts.BytesCompared += int64(len(window))
	return d
}

func (r *refAligner) finish(bases []byte, c candidate, best, second, bestCount int) agd.Result {
	query := bases
	var flags uint16
	if c.rc {
		query = genome.ReverseComplement(make([]byte, len(bases)), bases)
		flags = agd.FlagReverse
	}
	cigar := refCigar(query, r.window(c.pos, len(query)+r.cfg.MaxDist))
	return agd.Result{
		Location:     c.pos,
		MateLocation: agd.UnmappedLocation,
		Score:        int32(best),
		MapQ:         align.MapQ(best, second, bestCount),
		Flags:        flags,
		Cigar:        cigar.String(),
	}
}

// refCigar aligns query against a prefix of window over the full table of
// D(i, j), the edit distance of query[:i] from window[:j]: the earliest of
// the closest reference ends, traced back preferring the diagonal, then an
// insertion, then a deletion.
func refCigar(query, window []byte) align.Cigar {
	m, n := len(query), len(window)
	dp := make([][]int, m+1)
	for i := range dp {
		dp[i] = make([]int, n+1)
		dp[i][0] = i
	}
	for j := range dp[0] {
		dp[0][j] = j
	}
	cost := func(i, j int) int {
		if query[i-1] == window[j-1] {
			return 0
		}
		return 1
	}
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			dp[i][j] = min(dp[i-1][j-1]+cost(i, j), dp[i-1][j]+1, dp[i][j-1]+1)
		}
	}
	var cigar align.Cigar
	for i, j := m, slices.Index(dp[m], slices.Min(dp[m])); i > 0 || j > 0; {
		switch {
		case i > 0 && j > 0 && dp[i-1][j-1]+cost(i, j) == dp[i][j]:
			cigar = append(cigar, align.CigarElem{Len: 1, Op: align.CigarMatch})
			i, j = i-1, j-1
		case i > 0 && dp[i-1][j]+1 == dp[i][j]:
			cigar = append(cigar, align.CigarElem{Len: 1, Op: align.CigarIns})
			i--
		default:
			cigar = append(cigar, align.CigarElem{Len: 1, Op: align.CigarDel})
			j--
		}
	}
	slices.Reverse(cigar)
	return cigar.Canonical()
}

func (r *refAligner) alignRead(bases []byte) agd.Result {
	r.counts.Reads++
	cands, rc := r.gather(bases)
	best, second, bestCount, bestAt := r.cfg.MaxDist+1, -1, 0, -1
	for i, c := range cands {
		query := bases
		if c.rc {
			query = rc
		}
		d := r.verify(query, c.pos, min(best+6, r.cfg.MaxDist))
		switch {
		case d < 0:
		case d < best:
			if best <= r.cfg.MaxDist {
				second = best
			}
			best, bestCount, bestAt = d, 1, i
		case d == best:
			bestCount++
			second = d
		case second < 0 || d < second:
			second = d
		}
	}
	if bestAt < 0 {
		return agd.Result{Location: agd.UnmappedLocation, MateLocation: agd.UnmappedLocation, Flags: agd.FlagUnmapped}
	}
	r.counts.Aligned++
	return r.finish(bases, cands[bestAt], best, second, bestCount)
}

func (r *refAligner) score(bases []byte) []scored {
	cands, rc := r.gather(bases)
	var out []scored
	for _, c := range cands {
		query := bases
		if c.rc {
			query = rc
		}
		if d := r.verify(query, c.pos, r.cfg.MaxDist); d >= 0 {
			out = append(out, scored{pos: c.pos, rc: c.rc, dist: d})
		}
	}
	return out
}

func (r *refAligner) alignPair(bases1, bases2 []byte) (agd.Result, agd.Result) {
	r.counts.Reads += 2
	s1, s2 := r.score(bases1), r.score(bases2)
	bestCombined, secondCombined, bestCount := 1<<30, -1, 0
	var b1, b2 scored
	for _, c1 := range s1 {
		for _, c2 := range s2 {
			fwd, rev, revLen := c1, c2, len(bases2)
			if c1.rc {
				fwd, rev, revLen = c2, c1, len(bases1)
			}
			insert := rev.pos + int64(revLen) - fwd.pos
			if c1.rc == c2.rc || fwd.pos > rev.pos || insert < int64(r.cfg.MinInsert) || insert > int64(r.cfg.MaxInsert) {
				continue
			}
			switch combined := c1.dist + c2.dist; {
			case combined < bestCombined:
				if bestCount > 0 {
					secondCombined = bestCombined
				}
				bestCombined, bestCount, b1, b2 = combined, 1, c1, c2
			case combined == bestCombined:
				if c1.pos != b1.pos || c2.pos != b2.pos {
					bestCount++
					secondCombined = combined
				}
			case secondCombined < 0 || combined < secondCombined:
				secondCombined = combined
			}
		}
	}
	if bestCount == 0 {
		r1, r2 := r.alignRead(bases1), r.alignRead(bases2)
		pairFlags(&r1, &r2)
		pairFlags(&r2, &r1)
		r1.Flags |= agd.FlagFirstInPair
		r2.Flags |= agd.FlagSecondInPair
		return r1, r2
	}
	r.counts.Aligned += 2
	r1 := r.finish(bases1, candidate{pos: b1.pos, rc: b1.rc}, b1.dist, -1, 1)
	r2 := r.finish(bases2, candidate{pos: b2.pos, rc: b2.rc}, b2.dist, -1, 1)
	mapq := align.MapQ(bestCombined, secondCombined, bestCount)
	r1.MapQ, r2.MapQ = mapq, mapq
	r1.Flags |= agd.FlagPaired | agd.FlagProperPair | agd.FlagFirstInPair
	r2.Flags |= agd.FlagPaired | agd.FlagProperPair | agd.FlagSecondInPair
	if b2.rc {
		r1.Flags |= agd.FlagMateReverse
	} else {
		r2.Flags |= agd.FlagMateReverse
	}
	r1.MateLocation, r2.MateLocation = r2.Location, r1.Location
	if r2.Location < r1.Location {
		tlen := int32(r1.Location + int64(len(bases1)) - r2.Location)
		r1.TemplateLen, r2.TemplateLen = -tlen, tlen
	} else {
		tlen := int32(r2.Location + int64(len(bases2)) - r1.Location)
		r1.TemplateLen, r2.TemplateLen = tlen, -tlen
	}
	return r1, r2
}

// refGenomes are the genomes the differential tests run over: synthetic ones
// with N runs and near-exact repeats, a low-complexity one whose seeds
// overflow MaxSeedHits, and one shorter than the table's minimum size.
func refGenomes(t testing.TB) map[string]*genome.Genome {
	t.Helper()
	out := map[string]*genome.Genome{}
	for name, cfg := range map[string]genome.SyntheticConfig{
		"synthetic": {Seed: 31, ContigLengths: []int{60_000, 25_000, 9_000}, NRunEvery: 7_000, RepeatFraction: 0.1},
		"small":     {Seed: 32, ContigLengths: []int{3_000}, NRunEvery: 700},
	} {
		g, err := genome.Synthesize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	rng := rand.New(rand.NewSource(33))
	lowComplexity := make([]byte, 0, 12_000)
	for len(lowComplexity) < 12_000 {
		unit := []string{"A", "AC", "ACGTTG", "GATTACAGATTACATT"}[rng.Intn(4)]
		for n := 20 + rng.Intn(200); n > 0; n-- {
			lowComplexity = append(lowComplexity, unit...)
		}
		lowComplexity = append(lowComplexity, "NNNN"[:rng.Intn(4)]...)
	}
	for name, seq := range map[string][]byte{"repeats": lowComplexity, "tiny": []byte("ACGTTGCANACGTTGCAAGGCTTACGGATC")} {
		g, err := genome.New([]genome.Contig{{Name: name, Seq: seq}})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	return out
}

// TestIndexMatchesReference checks the index against the reference's map on
// genomes that between them hold seeds of every kind — with one location
// (kept in the slot), with several, with more than MaxSeedHits — and on one
// that fits the smallest table: NumSeeds, Lookup of every seed and of absent
// ones, locations through a lookup wave's copy of the home slot, ascending
// order, and that locs holds the locations of repeated seeds and no others.
func TestIndexMatchesReference(t *testing.T) {
	var single, repeated, capped, smallest int
	for name, g := range refGenomes(t) {
		for _, seedLen := range []int{8, 16, 20, 31} {
			for _, maxHits := range []int{0, 1, 3} {
				if int64(seedLen) > g.Len() {
					continue
				}
				icfg := IndexConfig{SeedLen: seedLen, MaxSeedHits: maxHits}
				idx, err := BuildIndex(g, icfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefAligner(g, icfg, Config{})
				if idx.NumSeeds() != len(ref.table) {
					t.Fatalf("%s/%d/%d: %d seeds, reference %d", name, seedLen, maxHits, idx.NumSeeds(), len(ref.table))
				}
				if load := float64(idx.NumSeeds()) / float64(len(idx.slots)); load > 0.5 || (load < 0.25 && len(idx.slots) > minSlots) {
					t.Fatalf("%s/%d/%d: %d seeds in %d slots", name, seedLen, maxHits, idx.NumSeeds(), len(idx.slots))
				}
				if len(idx.slots) == minSlots {
					smallest++
				}
				inLocs, singles := 0, 0
				for _, locs := range ref.table {
					if len(locs) > 1 {
						inLocs += len(locs)
						repeated++
					} else {
						singles++
					}
				}
				if len(idx.locs) != inLocs {
					t.Fatalf("%s/%d/%d: locs holds %d locations, repeated seeds have %d", name, seedLen, maxHits, len(idx.locs), inLocs)
				}
				single += singles
				seq := g.Seq()
				rng := rand.New(rand.NewSource(int64(seedLen)))
				probe := make([]byte, seedLen)
				occurrences := map[uint64]int{}
				for i := 0; i+seedLen <= len(seq); i++ {
					// Every seed of the genome, and a random one that is
					// most likely absent.
					for _, bases := range [][]byte{seq[i : i+seedLen], randomBases(rng, probe)} {
						key, ok := refSeedKey(bases)
						want := ref.table[key]
						if !ok {
							want = nil
						}
						if got := idx.Lookup(bases, 0); !slices.Equal(got, want) || !slices.IsSorted(got) {
							t.Fatalf("%s/%d/%d: Lookup(%s) = %v, reference %v", name, seedLen, maxHits, bases, got, want)
						}
						if !ok {
							continue
						}
						wave := []seedRef{{key: key}}
						loadHomes(idx.slots, idx.shift, wave)
						if got := idx.locations(&wave[0]); !slices.Equal(got, want) {
							t.Fatalf("%s/%d/%d: locations(%s) = %v, reference %v", name, seedLen, maxHits, bases, got, want)
						}
					}
					if key, ok := refSeedKey(seq[i : i+seedLen]); ok {
						if occurrences[key]++; occurrences[key] == len(ref.table[key])+1 {
							capped++
						}
					}
				}
			}
		}
	}
	if single == 0 || repeated == 0 || capped == 0 || smallest == 0 {
		t.Fatalf("seeds with one location %d, with several %d, past MaxSeedHits %d, tables of minSlots %d: every kind must occur",
			single, repeated, capped, smallest)
	}
}

func randomBases(rng *rand.Rand, dst []byte) []byte {
	for i := range dst {
		dst[i] = "ACGT"[rng.Intn(4)]
	}
	return dst
}

// refReads draws reads that exercise every path of the kernel: simulated
// reads at 0.3–8 % error on both strands, then per read one of a 1–3 bp
// deletion, a 1–3 bp insertion, an embedded N, a cut below the seed length,
// an N every 24 bases (so a seed wave has gaps: runs of sampled offsets with
// no valid seed between runs that have one), or nothing; plus reads hanging
// off the genome end on both strands.
func refReads(t testing.TB, g *genome.Genome, seed int64, paired bool) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out [][]byte
	for _, errRate := range []float64{0.003, 0.02, 0.08} {
		sim, err := reads.NewSimulator(g, reads.SimConfig{
			Seed: seed, N: 240, ReadLen: 70, ErrorRate: errRate,
			Paired: paired, InsertMean: 300, InsertStd: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs, _ := sim.All()
		for i := range rs {
			b := slices.Clone(rs[i].Bases)
			p, n := 5+rng.Intn(len(b)-10), 1+rng.Intn(3)
			switch rng.Intn(8) {
			case 0:
				b = slices.Delete(b, p, p+n)
			case 1:
				b = slices.Insert(b, p, randomBases(rng, make([]byte, n))...)
			case 2:
				b[p] = 'N'
			case 3:
				b = b[:4+rng.Intn(20)]
			case 4:
				for q := 12; q < len(b); q += 24 {
					b[q] = 'N'
				}
			}
			out = append(out, b)
		}
	}
	seq := g.Seq()
	for over := 1; over <= 14; over++ {
		b := slices.Clone(seq[len(seq)-70+over:])
		b = append(b, randomBases(rng, make([]byte, over))...)
		out = append(out, b, genome.ReverseComplement(make([]byte, len(b)), b))
	}
	return out
}

// refConfigs pair an index with an aligner configuration; the second one's
// low MaxCandidates and MaxSeedHits make the candidate cap and the repeat
// mask bite, the third samples a seed at every offset and, on the repetitive
// genomes, fills its cap of two from the forward strand's first seeds, so the
// reverse strand's are sampled and loaded but never probed.
var refConfigs = []struct {
	icfg IndexConfig
	cfg  Config
}{
	{IndexConfig{SeedLen: 16}, Config{}},
	{IndexConfig{SeedLen: 11, MaxSeedHits: 5}, Config{MaxDist: 7, SeedStride: 3, MaxCandidates: 3}},
	{IndexConfig{SeedLen: 12, MaxSeedHits: 8}, Config{MaxDist: 9, SeedStride: 1, MaxCandidates: 1}},
}

// displacedSeeds counts the seeds that do not live in their home slot: the
// ones a lookup wave cannot answer from its copy of the home slot and has to
// probe on for.
func displacedSeeds(idx *Index) (n int) {
	for i, s := range idx.slots {
		if s.n > 0 && homeOf(s.key, idx.shift) != uint64(i) {
			n++
		}
	}
	return n
}

func TestAlignMatchesReference(t *testing.T) {
	for _, name := range []string{"synthetic", "small", "repeats"} {
		g := refGenomes(t)[name]
		for ci, rc := range refConfigs {
			t.Run(fmt.Sprintf("%s/%d", name, ci), func(t *testing.T) {
				idx, err := BuildIndex(g, rc.icfg)
				if err != nil {
					t.Fatal(err)
				}
				if displacedSeeds(idx) == 0 {
					t.Fatal("no seed is displaced from its home slot: the probe past a copied slot is not exercised")
				}
				// One aligner per entry point: letters, and the packed record.
				a, p, ref := NewAligner(idx, rc.cfg), NewAligner(idx, rc.cfg), newRefAligner(g, rc.icfg, rc.cfg)
				aligned := 0
				for i, b := range refReads(t, g, 40, false) {
					want := ref.alignRead(b)
					if got := a.AlignRead(b); got != want {
						t.Fatalf("read %d %s:\n got  %+v\n want %+v", i, b, got, want)
					}
					got, err := p.AlignPacked(agd.PackBases(nil, b))
					if err != nil || got != want {
						t.Fatalf("packed read %d %s:\n got  %+v, %v\n want %+v", i, b, got, err, want)
					}
					if !got.IsUnmapped() {
						aligned++
					}
				}
				if a.Stats() != ref.counts || p.Stats() != ref.counts {
					t.Fatalf("stats:\n got  %+v\n packed %+v\n want %+v", a.Stats(), p.Stats(), ref.counts)
				}
				if aligned == 0 {
					t.Fatal("no read aligned")
				}
			})
		}
	}
}

func TestAlignPairMatchesReference(t *testing.T) {
	for _, name := range []string{"synthetic", "repeats"} {
		g := refGenomes(t)[name]
		for ci, rc := range refConfigs {
			t.Run(fmt.Sprintf("%s/%d", name, ci), func(t *testing.T) {
				idx, err := BuildIndex(g, rc.icfg)
				if err != nil {
					t.Fatal(err)
				}
				a, p, ref := NewAligner(idx, rc.cfg), NewAligner(idx, rc.cfg), newRefAligner(g, rc.icfg, rc.cfg)
				rs := refReads(t, g, 41, true)
				proper := 0
				for i := 0; i+1 < len(rs); i += 2 {
					want1, want2 := ref.alignPair(rs[i], rs[i+1])
					got1, got2 := a.AlignPair(rs[i], rs[i+1])
					if got1 != want1 || got2 != want2 {
						t.Fatalf("pair %d:\n got  %+v %+v\n want %+v %+v", i/2, got1, got2, want1, want2)
					}
					got1, got2, err := p.AlignPackedPair(agd.PackBases(nil, rs[i]), agd.PackBases(nil, rs[i+1]))
					if err != nil || got1 != want1 || got2 != want2 {
						t.Fatalf("packed pair %d:\n got  %+v %+v, %v\n want %+v %+v", i/2, got1, got2, err, want1, want2)
					}
					if got1.Flags&agd.FlagProperPair != 0 {
						proper++
					}
				}
				if a.Stats() != ref.counts || p.Stats() != ref.counts {
					t.Fatalf("stats:\n got  %+v\n packed %+v\n want %+v", a.Stats(), p.Stats(), ref.counts)
				}
				if proper == 0 && name == "synthetic" {
					t.Fatal("no proper pair")
				}
			})
		}
	}
}

// TestKernelAllocations pins the allocation discipline of the hot path (§6:
// the aligner is core bound, allocator traffic is pure overhead): a warm
// AlignRead or AlignPacked allocates nothing, and BuildIndex makes a fixed
// handful of allocations whatever the number of seeds.
func TestKernelAllocations(t *testing.T) {
	g := testGenome(t, 200_000, 35)
	idx := testIndex(t, g)
	a := NewAligner(idx, Config{})
	sim, err := reads.NewSimulator(g, reads.SimConfig{Seed: 36, N: 64, ReadLen: 101, ErrorRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := sim.All()
	recs := make([][]byte, len(rs))
	for i := range rs {
		recs[i] = agd.PackBases(nil, rs[i].Bases)
		a.AlignRead(rs[i].Bases) // warm the scratch buffers and the CIGAR table
		a.AlignPacked(recs[i])
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		a.AlignRead(rs[i%len(rs)].Bases)
		i++
	}); allocs != 0 {
		t.Errorf("AlignRead: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		a.AlignPacked(recs[i%len(recs)])
		i++
	}); allocs != 0 {
		t.Errorf("AlignPacked: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(2, func() {
		if _, err := BuildIndex(g, IndexConfig{SeedLen: 16}); err != nil {
			t.Fatal(err)
		}
	}); allocs > 8 {
		t.Errorf("BuildIndex: %v allocs for %d seeds, want a handful", allocs, idx.NumSeeds())
	}
}
