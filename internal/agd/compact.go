package agd

import (
	"encoding/binary"
	"fmt"
	"slices"

	"persona/internal/genome"
)

// Base compaction (§3): base characters are stored 3 bits each, 21 bases to
// a 64-bit word (63 bits used, top bit spare). A compacted record is the
// uvarint base count followed by the packed little-endian words. Expansion
// goes a word at a time: four codes index a table of four-letter groups, so a
// word is six loads and six 4-byte stores, not 21 appends.

// basesPerWord is the number of 3-bit bases packed in one 64-bit word.
const basesPerWord = 21

// CompactBases appends the compacted encoding of bases to dst and returns
// the extended slice.
func CompactBases(dst, bases []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(bases)))
	dst = append(dst, hdr[:n]...)
	for i := 0; i < len(bases); i += basesPerWord {
		end := i + basesPerWord
		if end > len(bases) {
			end = len(bases)
		}
		var word uint64
		for j, b := range bases[i:end] {
			word |= uint64(genome.Code(b)) << (3 * uint(j))
		}
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], word)
		dst = append(dst, w[:]...)
	}
	return dst
}

// quadLetters maps four packed 3-bit codes (12 bits) to their four letters,
// first base in the low byte. Codes 4–7 all read as N, like genome.Letter.
var quadLetters = func() (t [1 << 12]uint32) {
	for i := range t {
		for j := 0; j < 4; j++ {
			t[i] |= uint32(genome.Letter(uint8(i>>(3*j))&7)) << (8 * j)
		}
	}
	return t
}()

// expandWord writes the 21 letters of one packed word to b[:21]; b[21:24]
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

// ExpandBases decodes one compacted record from src, appending the base
// letters to dst. It returns the extended dst and the number of source bytes
// consumed.
func ExpandBases(dst, src []byte) ([]byte, int, error) {
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

// CompactedSize returns the encoded size in bytes of a record of n bases.
func CompactedSize(n int) int {
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(n))
	return h + (n+basesPerWord-1)/basesPerWord*8
}
