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
		dec, n, err := expandCompactBases(nil, enc)
		if err != nil {
			t.Fatalf("expandCompactBases(%q): %v", bases, err)
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
		dec, _, err := expandCompactBases(nil, CompactBases(nil, bases))
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
		dec, n, err := expandCompactBases(nil, enc[off:])
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
	if _, _, err := expandCompactBases(nil, []byte{}); err == nil {
		t.Fatal("empty input accepted")
	}
	// Valid count but missing words.
	enc := CompactBases(nil, []byte("ACGTACGTACGT"))
	if _, _, err := expandCompactBases(nil, enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated input accepted")
	}
}

// refExpandBases is expandCompactBases written the plain way, one append per
// base — the loop the word-at-a-time decoder replaced, kept as its reference. The
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

// FuzzExpandBases holds the 3-bit table decoder to the per-base reference on
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
		got, gotN, gotErr := expandCompactBases(newDst(), src)
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

// TestPackBasesLayout pins the packed record: the base count, four bases a
// byte with the first in the low bits, and exception runs only for a read
// that has one — 27 bytes for a 101-base read without an N.
func TestPackBasesLayout(t *testing.T) {
	for _, c := range []struct {
		bases string
		want  []byte
	}{
		{"", []byte{0}},
		{"ACGT", []byte{4, 0b11_10_01_00}},
		{"acgtG", []byte{5, 0b11_10_01_00, 0b10}},
		{"NACGTN", []byte{6, 0b10_01_00_00, 0b00_11, 0, 1, 4, 1}},
		{"ANNRA", []byte{5, 0, 0, 1, 3}},
		{"NNNN", []byte{4, 0, 0, 4}},
	} {
		if got := PackBases(nil, []byte(c.bases)); !bytes.Equal(got, c.want) {
			t.Errorf("PackBases(%q) = %v, want %v", c.bases, got, c.want)
		}
	}
	if got := len(PackBases(nil, bytes.Repeat([]byte("GATTACA"), 15)[:101])); got != 27 {
		t.Errorf("101 bases packed to %d bytes, want 27", got)
	}
}

// TestUnpackBasesCorrupt: a record cut short, a bad count and exception runs
// that overrun the read or are empty all fail as ErrCorrupt, leaving dst as
// it was.
func TestUnpackBasesCorrupt(t *testing.T) {
	for _, rec := range [][]byte{
		{},
		{0x80},
		{5, 0},       // 5 bases in one byte
		{4, 0, 2, 3}, // a run past the end
		{4, 0, 0, 0}, // an empty run
		{4, 0, 1},    // a gap and no run
		append([]byte{4, 0}, bytes.Repeat([]byte{0xff}, 11)...), // a gap overflowing uint64
	} {
		got, err := UnpackBases([]byte("keep"), rec)
		if !errors.Is(err, ErrCorrupt) || string(got) != "keep" {
			t.Errorf("UnpackBases(%v) = %q, %v; want ErrCorrupt and dst unchanged", rec, got, err)
		}
	}
}

// refUnpackBases is UnpackBases written the plain way, one base at a time.
func refUnpackBases(dst, rec []byte) ([]byte, error) {
	count, h := binary.Uvarint(rec)
	if h <= 0 || count > uint64(len(rec)-h)*4 {
		return dst, ErrCorrupt
	}
	n := int(count)
	body := rec[h:]
	out := make([]byte, n)
	for i := range out {
		out[i] = "ACGT"[body[i/4]>>(2*(i%4))&3]
	}
	runs, pos := body[(n+3)/4:], 0
	for len(runs) > 0 {
		gap, a := binary.Uvarint(runs)
		if a <= 0 {
			return dst, ErrCorrupt
		}
		run, b := binary.Uvarint(runs[a:])
		if b <= 0 || run == 0 || gap > uint64(n-pos) || run > uint64(n-pos)-gap {
			return dst, ErrCorrupt
		}
		runs = runs[a+b:]
		pos += int(gap)
		for ; run > 0; run-- {
			out[pos] = 'N'
			pos++
		}
	}
	return append(dst, out...), nil
}

// FuzzPackBases holds the packer and the decoder to a per-base reference. An
// arbitrary letter string, packed after an arbitrary prefix, reads back
// letter for letter as the 3-bit codes read it — A, C, G and T in either
// case as upper case, anything else as N — into a dst of arbitrary spare
// capacity whose prefix survives, and the record states its base count. The
// same bytes taken as a packed record decode as the reference decodes them.
func FuzzPackBases(f *testing.F) {
	for _, s := range []string{"", "A", "acgt", "ACGTN", "NNNNACGTNN", "RYKMSWBDHVN-.*acgtu", "nnnn", "ACGTACGTA"} {
		f.Add([]byte(s), []byte("prefix"), uint8(0))
	}
	f.Add(bytes.Repeat([]byte("ACGT"), 75), []byte{}, uint8(3))
	f.Add(append(append(bytes.Repeat([]byte("N"), 40), bytes.Repeat([]byte("GATTACA"), 30)...), bytes.Repeat([]byte("n"), 50)...), []byte("p"), uint8(200))
	f.Add([]byte{4, 0, 0, 4}, []byte("p"), uint8(1))
	f.Add([]byte{6, 0xe4, 0x03, 0, 1, 4, 1}, []byte("p"), uint8(1))

	f.Fuzz(func(t *testing.T, letters, prefix []byte, spare uint8) {
		newDst := func() []byte { return append(make([]byte, 0, len(prefix)+int(spare)), prefix...) }
		rec := PackBases(newDst(), letters)
		if !bytes.HasPrefix(rec, prefix) {
			t.Fatalf("PackBases overwrote its dst prefix %q", prefix)
		}
		rec = rec[len(prefix):]
		if n, err := PackedBaseCount(rec); err != nil || n != len(letters) {
			t.Fatalf("PackedBaseCount = %d, %v; packed %d bases", n, err, len(letters))
		}
		got, err := UnpackBases(newDst(), rec)
		if err != nil {
			t.Fatalf("UnpackBases of a packed record: %v", err)
		}
		want := append([]byte(nil), prefix...)
		for _, b := range letters {
			want = append(want, genome.Letter(genome.Code(b)))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("letters %q read back as %q", letters, got[len(prefix):])
		}
		if again := PackBases(nil, got[len(prefix):]); !bytes.Equal(again, rec) {
			t.Fatalf("the letters read back pack to %v, not %v", again, rec)
		}

		got, gotErr := UnpackBases(newDst(), letters)
		want, wantErr := refUnpackBases(newDst(), letters)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && !errors.Is(gotErr, ErrCorrupt)) {
			t.Fatalf("record %v: error %v, reference %v", letters, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %v decoded %q, reference %q", letters, got, want)
		}
	})
}
