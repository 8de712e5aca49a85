package agd

import (
	"encoding/binary"
	"fmt"
	"slices"

	"persona/internal/genome"
)

// Base compaction (§3). The bases column holds TypePackedBases records: the
// uvarint base count, the bases 2 bits each (A, C, G, T as 0–3), four to a
// byte with the first base in the low bits and the last byte zero-padded,
// then, for a read holding any other letter, its exception runs up to the end
// of the record: per run a uvarint gap (bases since the previous run's end)
// and a uvarint length, at least 1. Lower-case acgt pack as upper case; every
// other letter is an exception and decodes as N, which is what the 3-bit
// codes give back. A 101-base read without an N is 27 bytes: smaller than
// deflate makes of its letters, so the column is stored without deflate.
//
// Decoding is one table load per packed byte, four letters at a time; a read
// without exceptions never looks for them.
//
// Earlier releases wrote TypeCompactBases records: 3 bits a base, 21 bases to
// a 64-bit word (63 bits used, top bit spare), after the uvarint base count.
// Decoding a chunk of them transcodes it to packed records (packCompacted),
// so only the chunk decoder and the §3 ablation ever see the 3-bit layout.

// packLetters maps one packed byte to its four letters, first base in the low
// byte.
var packLetters = func() (t [256]uint32) {
	for i := range t {
		for j := 0; j < 4; j++ {
			t[i] |= uint32("ACGT"[i>>(2*j)&3]) << (8 * j)
		}
	}
	return t
}()

// PackBases appends the packed record of bases to dst and returns the
// extended slice.
func PackBases(dst, bases []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(bases)))
	start := len(dst)
	dst = slices.Grow(dst, (len(bases)+3)/4)[:start+(len(bases)+3)/4]
	packed := dst[start:]
	var codes uint8 // every code or'ed: bit 2 is set by an exception
	i := 0
	for ; i+4 <= len(bases); i += 4 {
		c0, c1, c2, c3 := genome.Code(bases[i]), genome.Code(bases[i+1]), genome.Code(bases[i+2]), genome.Code(bases[i+3])
		codes |= c0 | c1 | c2 | c3
		packed[i/4] = c0&3 | (c1&3)<<2 | (c2&3)<<4 | (c3&3)<<6
	}
	if i < len(bases) {
		var b uint8
		for j, l := range bases[i:] {
			c := genome.Code(l)
			codes |= c
			b |= (c & 3) << (2 * j)
		}
		packed[i/4] = b
	}
	if codes&4 == 0 {
		return dst
	}
	prev := 0
	for i := 0; i < len(bases); i++ {
		if genome.Code(bases[i]) < 4 {
			continue
		}
		end := i + 1
		for end < len(bases) && genome.Code(bases[end]) >= 4 {
			end++
		}
		dst = binary.AppendUvarint(dst, uint64(i-prev))
		dst = binary.AppendUvarint(dst, uint64(end-i))
		prev, i = end, end // the loop steps past bases[end], a base
	}
	return dst
}

// SplitPacked parses a packed record's base count and splits the rest into
// the packed bytes, (n+3)/4 of them, and the exception runs, empty for a read
// without any. It checks the count against the record's length, not the runs.
func SplitPacked(rec []byte) (n int, packed, exceptions []byte, err error) {
	count, h := binary.Uvarint(rec)
	if h <= 0 {
		return 0, nil, nil, fmt.Errorf("%w: bad base count varint", ErrCorrupt)
	}
	// Comparing in bases, not bytes, keeps a corrupt count from overflowing.
	if have := len(rec) - h; count > uint64(have)*4 {
		return 0, nil, nil, fmt.Errorf("%w: packed record truncated (%d bases in %d bytes)", ErrCorrupt, count, have)
	}
	n = int(count)
	body := rec[h:]
	return n, body[:(n+3)/4], body[(n+3)/4:], nil
}

// PackedBaseCount returns the number of bases in the packed record rec.
func PackedBaseCount(rec []byte) (int, error) {
	n, _, _, err := SplitPacked(rec)
	return n, err
}

// UnpackBases decodes the packed record rec, which must be exactly one
// record, appending its letters to dst.
func UnpackBases(dst, rec []byte) ([]byte, error) {
	n, packed, exceptions, err := SplitPacked(rec)
	if err != nil {
		return dst, err
	}
	start := len(dst)
	// The last byte's four letters may run up to three past the read: they
	// land in dst's spare capacity, past its length.
	dst = slices.Grow(dst, 4*len(packed))
	out := dst[start : start+4*len(packed)]
	le := binary.LittleEndian
	for len(packed) >= 4 {
		w, o := le.Uint32(packed), (*[16]byte)(out)
		le.PutUint64(o[0:], uint64(packLetters[w&0xff])|uint64(packLetters[w>>8&0xff])<<32)
		le.PutUint64(o[8:], uint64(packLetters[w>>16&0xff])|uint64(packLetters[w>>24])<<32)
		packed, out = packed[4:], out[16:]
	}
	for i, b := range packed {
		le.PutUint32(out[4*i:], packLetters[b])
	}
	dst = dst[:start+n]
	if len(exceptions) > 0 {
		if err := unpackExceptions(dst[start:], exceptions); err != nil {
			return dst[:start], err
		}
	}
	return dst, nil
}

// unpackExceptions writes N over out's exception runs.
func unpackExceptions(out, runs []byte) error {
	pos := 0
	for len(runs) > 0 {
		gap, a := binary.Uvarint(runs)
		if a <= 0 {
			return fmt.Errorf("%w: bad exception gap varint", ErrCorrupt)
		}
		n, b := binary.Uvarint(runs[a:])
		if b <= 0 {
			return fmt.Errorf("%w: bad exception run varint", ErrCorrupt)
		}
		runs = runs[a+b:]
		left := uint64(len(out) - pos)
		if n == 0 || gap > left || n > left-gap {
			return fmt.Errorf("%w: exception run of %d after %d bases overruns a %d-base read", ErrCorrupt, n, gap, len(out))
		}
		run := out[pos+int(gap) : pos+int(gap)+int(n)]
		for i := range run {
			run[i] = genome.BaseN
		}
		pos += int(gap) + int(n)
	}
	return nil
}

// basesPerWord is the number of 3-bit bases in one word of a TypeCompactBases
// record.
const basesPerWord = 21

// CompactBases appends the 3-bit TypeCompactBases record of bases to dst.
// The writer no longer produces it: the §3 ablation measures it, and tests
// build the records earlier releases stored with it.
func CompactBases(dst, bases []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(bases)))
	for i := 0; i < len(bases); i += basesPerWord {
		end := min(i+basesPerWord, len(bases))
		var word uint64
		for j, b := range bases[i:end] {
			word |= uint64(genome.Code(b)) << (3 * uint(j))
		}
		dst = binary.LittleEndian.AppendUint64(dst, word)
	}
	return dst
}

// quadLetters maps four 3-bit codes (12 bits) to their four letters, first
// base in the low byte. Codes 4–7 all read as N, like genome.Letter.
var quadLetters = func() (t [1 << 12]uint32) {
	for i := range t {
		for j := 0; j < 4; j++ {
			t[i] |= uint32(genome.Letter(uint8(i>>(3*j))&7)) << (8 * j)
		}
	}
	return t
}()

// expandWord writes the 21 letters of one 3-bit word to b[:21]; b[21:24]
// receives three letters of padding.
func expandWord(b *[24]byte, word uint64) {
	le := binary.LittleEndian
	le.PutUint32(b[0:4], quadLetters[word&0xFFF])
	le.PutUint32(b[4:8], quadLetters[word>>12&0xFFF])
	le.PutUint32(b[8:12], quadLetters[word>>24&0xFFF])
	le.PutUint32(b[12:16], quadLetters[word>>36&0xFFF])
	le.PutUint32(b[16:20], quadLetters[word>>48&0xFFF])
	le.PutUint32(b[20:24], quadLetters[word>>60])
}

// expandCompactBases decodes one 3-bit TypeCompactBases record from the
// front of src, appending the base letters to dst. It returns the extended dst
// and the number of source bytes consumed.
func expandCompactBases(dst, src []byte) ([]byte, int, error) {
	count, n := binary.Uvarint(src)
	if n <= 0 {
		return dst, 0, fmt.Errorf("%w: bad base count varint", ErrCorrupt)
	}
	// Comparing in bases, not bytes, keeps a corrupt count from overflowing.
	if have := (len(src) - n) / 8; count > uint64(have)*basesPerWord {
		return dst, 0, fmt.Errorf("%w: compacted record truncated (%d bases in %d words)", ErrCorrupt, count, have)
	}
	start := len(dst)
	dst = slices.Grow(dst, int(count))[:start+int(count)]
	out, off := dst[start:], n
	for o := 0; o < len(out); o += basesPerWord {
		word := binary.LittleEndian.Uint64(src[off:])
		off += 8
		if o+24 <= len(out) {
			// The padding lands on bases the next word overwrites.
			expandWord((*[24]byte)(out[o:]), word)
			continue
		}
		var tail [24]byte
		expandWord(&tail, word)
		copy(out[o:], tail[:])
	}
	return dst, off, nil
}

// packCompacted transcodes the 3-bit records of data, whose byte lengths are
// lengths, to packed records in a new data block, rewriting lengths to match.
// Bytes a 3-bit record holds past its last word are dropped, as its decoder
// ignores them.
func packCompacted(lengths []uint32, data []byte) ([]byte, error) {
	// A packed read without exceptions is under two thirds of its 3-bit form.
	out := make([]byte, 0, len(data)*2/3+len(lengths))
	var letters []byte
	for i, l := range lengths {
		var err error
		if letters, _, err = expandCompactBases(letters[:0], data[:l]); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		data = data[l:]
		before := len(out)
		out = PackBases(out, letters)
		lengths[i] = uint32(len(out) - before)
	}
	return out, nil
}
