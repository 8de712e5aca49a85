package agd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"persona/internal/genome"
)

func TestCompactRoundTripBasic(t *testing.T) {
	cases := [][]byte{
		[]byte(""),
		[]byte("A"),
		[]byte("ACGTN"),
		[]byte("ACGTACGTACGTACGTACGTA"),  // exactly 21
		[]byte("ACGTACGTACGTACGTACGTAC"), // 22: spills into 2nd word
		bytes.Repeat([]byte("ACGTN"), 100),
	}
	for _, bases := range cases {
		enc := CompactBases(nil, bases)
		if len(enc) != CompactedSize(len(bases)) {
			t.Errorf("CompactedSize(%d) = %d, encoding is %d bytes",
				len(bases), CompactedSize(len(bases)), len(enc))
		}
		dec, n, err := ExpandBases(nil, enc)
		if err != nil {
			t.Fatalf("ExpandBases(%q): %v", bases, err)
		}
		if n != len(enc) {
			t.Errorf("consumed %d bytes, encoded %d", n, len(enc))
		}
		if !bytes.Equal(dec, bases) {
			t.Errorf("round trip: got %q, want %q", dec, bases)
		}
	}
}

func TestCompact21BasesPerWord(t *testing.T) {
	// 21 bases must pack into exactly one 64-bit word (plus 1 length byte).
	enc := CompactBases(nil, bytes.Repeat([]byte("A"), 21))
	if len(enc) != 1+8 {
		t.Fatalf("21 bases encoded to %d bytes, want 9", len(enc))
	}
	// The paper's ratio: 101 bases → 1 varint byte + 5 words = 41 bytes,
	// versus 101 raw.
	enc101 := CompactBases(nil, bytes.Repeat([]byte("G"), 101))
	if len(enc101) != 1+5*8 {
		t.Fatalf("101 bases encoded to %d bytes, want 41", len(enc101))
	}
}

func TestCompactRoundTripProperty(t *testing.T) {
	f := func(raw []byte) bool {
		bases := make([]byte, len(raw))
		for i, b := range raw {
			bases[i] = genome.Letter(b % 5)
		}
		dec, _, err := ExpandBases(nil, CompactBases(nil, bases))
		return err == nil && bytes.Equal(dec, bases)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompactConcatenatedRecords(t *testing.T) {
	// Multiple compacted records back to back decode sequentially via the
	// consumed-byte count.
	recs := [][]byte{[]byte("ACGT"), []byte(""), bytes.Repeat([]byte("TTTTA"), 30)}
	var enc []byte
	for _, r := range recs {
		enc = CompactBases(enc, r)
	}
	off := 0
	for i, want := range recs {
		dec, n, err := ExpandBases(nil, enc[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(dec, want) {
			t.Fatalf("record %d: got %q want %q", i, dec, want)
		}
		off += n
	}
	if off != len(enc) {
		t.Fatalf("consumed %d of %d bytes", off, len(enc))
	}
}

func TestExpandBasesCorrupt(t *testing.T) {
	if _, _, err := ExpandBases(nil, []byte{}); err == nil {
		t.Fatal("empty input accepted")
	}
	// Valid count but missing words.
	enc := CompactBases(nil, []byte("ACGTACGTACGT"))
	if _, _, err := ExpandBases(nil, enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated input accepted")
	}
}

// refExpandBases is ExpandBases written the plain way, one append per base —
// the loop the word-at-a-time decoder replaced, kept as its reference. The
// first check is new: the old header arithmetic overflowed on a count near
// 2^63 and accepted it as an empty record with a negative length.
func refExpandBases(dst, src []byte) ([]byte, int, error) {
	count, n := binary.Uvarint(src)
	if n <= 0 {
		return dst, 0, fmt.Errorf("%w: bad base count varint", ErrCorrupt)
	}
	if count > uint64(len(src))*basesPerWord {
		return dst, 0, fmt.Errorf("%w: compacted record truncated", ErrCorrupt)
	}
	words := (int(count) + basesPerWord - 1) / basesPerWord
	need := n + words*8
	if len(src) < need {
		return dst, 0, fmt.Errorf("%w: compacted record truncated", ErrCorrupt)
	}
	remaining := int(count)
	off := n
	for w := 0; w < words; w++ {
		word := binary.LittleEndian.Uint64(src[off : off+8])
		off += 8
		inWord := basesPerWord
		if remaining < inWord {
			inWord = remaining
		}
		for j := 0; j < inWord; j++ {
			dst = append(dst, genome.Letter(uint8(word>>(3*uint(j))&0x7)))
		}
		remaining -= inWord
	}
	return dst, need, nil
}

// FuzzExpandBases holds the table decoder to the per-base reference on
// arbitrary input — the bytes appended, the bytes consumed and the class of
// error — appending to a non-empty dst of arbitrary spare capacity, whose
// prefix must survive.
func FuzzExpandBases(f *testing.F) {
	record := func(count uint64, words ...uint64) []byte {
		b := binary.AppendUvarint(nil, count)
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	// Every code 0–7 (5–7 are not produced by CompactBases and read as N),
	// with the spare top bit set in the second word.
	allCodes := []uint64{0o76543210_76543210_76543, 1<<63 | 0o1234567_0123456_7654321, 0o333}
	for _, count := range []uint64{0, 1, 20, 21, 22, 42, 43, 63} {
		f.Add(record(count, allCodes...), []byte("prefix"), uint8(0))
		f.Add(record(count, allCodes...), []byte("p"), uint8(count)) // exactly enough room
	}
	f.Add(record(64, allCodes...), []byte("p"), uint8(200))                                       // a word short
	f.Add(record(1), []byte("p"), uint8(3))                                                       // no words at all
	f.Add(record(1<<63, allCodes...), []byte("p"), uint8(0))                                      // count overflows int
	f.Add(record(1<<63-1, allCodes...), []byte("p"), uint8(0))                                    // count+20 overflows int
	f.Add([]byte{}, []byte("p"), uint8(0))                                                        // no varint
	f.Add([]byte{0x80}, []byte("p"), uint8(0))                                                    // unterminated varint
	f.Add(bytes.Repeat([]byte{0xff}, 11), []byte("p"), uint8(0))                                  // varint overflows uint64
	f.Add(CompactBases(nil, bytes.Repeat([]byte("acgtnACGTN"), 11)), []byte("prefix"), uint8(50)) // 110 bases, some room
	f.Add(append(CompactBases(nil, []byte("ACGT")), "trailing"...), []byte{}, uint8(0))           // bytes past the record

	f.Fuzz(func(t *testing.T, src, prefix []byte, spare uint8) {
		newDst := func() []byte { return append(make([]byte, 0, len(prefix)+int(spare)), prefix...) }
		got, gotN, gotErr := ExpandBases(newDst(), src)
		want, wantN, wantErr := refExpandBases(newDst(), src)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && !errors.Is(gotErr, ErrCorrupt)) {
			t.Fatalf("error %v, reference %v", gotErr, wantErr)
		}
		if gotN != wantN {
			t.Fatalf("consumed %d bytes, reference %d", gotN, wantN)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("decoded %q, reference %q", got, want)
		}
		if !bytes.HasPrefix(got, prefix) || (gotErr != nil && len(got) != len(prefix)) {
			t.Fatalf("dst prefix %q became %q (err %v)", prefix, got, gotErr)
		}
	})
}
