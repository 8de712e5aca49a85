package snap

import (
	"bytes"
	"slices"
	"testing"

	"persona/internal/agd"
	"persona/internal/genome"
)

// letterSeeds is the seed sampler the packed one replaced, kept as its
// oracle: it appends the seed at every SeedStride-th offset of one strand's
// letters that holds no ambiguous base, rolling the 2-bit key across seq so
// each base is coded once.
func (a *Aligner) letterSeeds(seeds []seedRef, seq []byte, rc bool) []seedRef {
	seedLen := a.idx.seedLen
	var key uint64
	valid := 0 // bases since the last ambiguous one
	next := 0  // next sampled seed offset
	for i, b := range seq {
		code := genome.Code(b)
		key = key<<2 | uint64(code&3)
		valid++
		if code > 3 {
			valid = 0
		}
		off := i - seedLen + 1
		if off != next {
			continue
		}
		next += a.cfg.SeedStride
		if valid >= seedLen {
			seeds = append(seeds, seedRef{key: key & a.idx.keyMask, off: int32(off), rc: rc})
		}
	}
	return seeds
}

// samplerAligner is an aligner with just what the seed sampler reads.
func samplerAligner(seedLen, stride int) *Aligner {
	return &Aligner{
		idx: &Index{seedLen: seedLen, keyMask: uint64(1)<<(2*uint(seedLen)) - 1},
		cfg: Config{SeedStride: stride},
	}
}

// FuzzPackedSeeds holds the packed seed sampler to the letter one on
// arbitrary letters (lower case, N and every other byte included), every seed
// length and strides from 1 up past the read: the same keys at the same
// offsets on the same strands in the same order. It also checks the letters
// each entry point verifies candidates against: AlignRead's as given,
// AlignPacked's as the record unpacks, and on the reverse strand their
// reverse complement.
func FuzzPackedSeeds(f *testing.F) {
	f.Add([]byte("ACGTTGCAAGGCTTACGGATCCATGACGTACGATCGATCGGATTACA"), uint8(16), uint8(8))
	f.Add([]byte("acgtTGCANNNNAGGCTTACGGATCCRYKMATGACGTACGATCNGATCGGATTACAacgt"), uint8(11), uint8(3))
	f.Add([]byte("GATTACAGATTACAGATTACAGATTACAGATTACAGATTACAGATTACAN"), uint8(31), uint8(1))
	f.Add([]byte("ACGTN"), uint8(1), uint8(1))
	f.Add(bytes.Repeat([]byte("ACGTACGTTGCANACGTTGCAAGGCTTACGGATC"), 9), uint8(20), uint8(10))
	f.Add([]byte{}, uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, letters []byte, seedLen, stride uint8) {
		letters = letters[:min(len(letters), 300)]
		a := samplerAligner(1+int(seedLen)%31, 1+int(stride)%40)
		rec := agd.PackBases(nil, letters)
		rc := genome.ReverseComplement(make([]byte, len(letters)), letters)
		want := a.letterSeeds(a.letterSeeds(nil, letters, false), rc, true)
		if got := a.sampleSeeds(nil, rec); !slices.Equal(got, want) {
			t.Fatalf("seed length %d, stride %d, %q:\n got  %+v\n want %+v", a.idx.seedLen, a.cfg.SeedStride, letters, got, want)
		}

		unpacked, err := agd.UnpackBases(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, entry := range []struct {
			name    string
			letters []byte
		}{{"AlignRead", letters}, {"AlignPacked", unpacked}} {
			read := &readScratch{bases: entry.letters}
			if got := read.query(false); !bytes.Equal(got, entry.letters) {
				t.Fatalf("%s forward letters = %q, want %q", entry.name, got, entry.letters)
			}
			want := genome.ReverseComplement(make([]byte, len(entry.letters)), entry.letters)
			if got := read.query(true); !bytes.Equal(got, want) {
				t.Fatalf("%s reverse complement = %q, want %q", entry.name, got, want)
			}
		}
	})
}
