package agd

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func buildRawChunk(t *testing.T, records [][]byte) *Chunk {
	t.Helper()
	b := NewChunkBuilder(TypeRaw, 7)
	for _, r := range records {
		b.Append(r)
	}
	return b.Chunk()
}

func TestChunkEncodeDecodeRoundTrip(t *testing.T) {
	records := [][]byte{[]byte("hello"), []byte(""), []byte("world!"), bytes.Repeat([]byte("x"), 1000)}
	for _, comp := range []Compression{CompressNone, CompressGzip} {
		c := buildRawChunk(t, records)
		blob, err := EncodeChunk(c, comp)
		if err != nil {
			t.Fatalf("%v: %v", comp, err)
		}
		dec, err := DecodeChunk(blob)
		if err != nil {
			t.Fatalf("%v: %v", comp, err)
		}
		if dec.Type != TypeRaw || dec.FirstOrdinal != 7 || dec.NumRecords() != len(records) {
			t.Fatalf("%v: header mismatch: %+v", comp, dec)
		}
		for i, want := range records {
			got, err := dec.Record(i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: record %d = %q, want %q", comp, i, got, want)
			}
		}
	}
}

func TestChunkRecordOutOfRange(t *testing.T) {
	c := buildRawChunk(t, [][]byte{[]byte("a")})
	if _, err := c.Record(-1); err == nil {
		t.Fatal("Record(-1) succeeded")
	}
	if _, err := c.Record(1); err == nil {
		t.Fatal("Record(1) succeeded")
	}
}

func TestChunkBasesRoundTrip(t *testing.T) {
	b := NewChunkBuilder(TypeCompactBases, 0)
	reads := [][]byte{[]byte("ACGTACGTA"), []byte("NNNNN"), []byte("GATTACA")}
	for _, r := range reads {
		b.AppendBases(r)
	}
	blob, err := EncodeChunk(b.Chunk(), CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeChunk(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range reads {
		got, err := dec.ExpandBasesRecord(nil, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d = %q, want %q", i, got, want)
		}
	}
}

func TestChunkDecodeRejectsCorruption(t *testing.T) {
	c := buildRawChunk(t, [][]byte{[]byte("abc"), []byte("defg")})
	blob, err := EncodeChunk(c, CompressNone)
	if err != nil {
		t.Fatal(err)
	}

	short := blob[:10]
	if _, err := DecodeChunk(short); err == nil {
		t.Fatal("short blob accepted")
	}

	badMagic := append([]byte{}, blob...)
	badMagic[0] = 'X'
	if _, err := DecodeChunk(badMagic); err != ErrBadMagic {
		t.Fatalf("bad magic: got %v", err)
	}

	badVersion := append([]byte{}, blob...)
	badVersion[4] = 99
	if _, err := DecodeChunk(badVersion); err == nil {
		t.Fatal("bad version accepted")
	}

	truncated := blob[:len(blob)-1]
	if _, err := DecodeChunk(truncated); err == nil {
		t.Fatal("truncated blob accepted")
	}

	flipped := append([]byte{}, blob...)
	flipped[len(flipped)-1] ^= 0xff // corrupt data block → CRC mismatch
	if _, err := DecodeChunk(flipped); err == nil {
		t.Fatal("corrupt data accepted")
	}
}

func TestChunkPropertyRoundTrip(t *testing.T) {
	f := func(records [][]byte) bool {
		b := NewChunkBuilder(TypeRaw, 3)
		for _, r := range records {
			b.Append(r)
		}
		blob, err := EncodeChunk(b.Chunk(), CompressGzip)
		if err != nil {
			return false
		}
		dec, err := DecodeChunk(blob)
		if err != nil || dec.NumRecords() != len(records) {
			return false
		}
		for i, want := range records {
			got, err := dec.Record(i)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunkAbsoluteIndexFromRelative(t *testing.T) {
	// The absolute index must equal the running sum of the relative index.
	records := [][]byte{[]byte("aa"), []byte("b"), []byte(""), []byte("cccc")}
	c := buildRawChunk(t, records)
	idx := c.absIndex()
	var sum uint64
	for i, l := range c.Lengths() {
		if idx[i] != sum {
			t.Fatalf("offsets[%d] = %d, want %d", i, idx[i], sum)
		}
		sum += uint64(l)
	}
	if idx[len(records)] != sum {
		t.Fatalf("final offset %d, want %d", idx[len(records)], sum)
	}
}

func TestResultEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Result{
		{},
		{Location: 12345, MateLocation: -1, TemplateLen: -200, Score: 37, MapQ: 60, Flags: FlagPaired | FlagReverse, Cigar: "101M"},
		{Location: UnmappedLocation, Flags: FlagUnmapped},
		{Location: 1 << 40, MateLocation: 1<<40 + 300, TemplateLen: 400, Score: -12, MapQ: 3, Flags: FlagDuplicate, Cigar: "50M1I50M"},
	}
	for i, r := range cases {
		enc := EncodeResult(nil, &r)
		dec, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if dec != r {
			t.Fatalf("case %d: got %+v, want %+v", i, dec, r)
		}
	}
}

func TestResultDecodeCorrupt(t *testing.T) {
	r := Result{Location: 5, Cigar: "10M"}
	enc := EncodeResult(nil, &r)
	if _, err := DecodeResult(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated result accepted")
	}
	if _, err := DecodeResult(nil); err == nil {
		t.Fatal("empty result accepted")
	}
}

func TestResultFlags(t *testing.T) {
	r := Result{Location: -1, Flags: FlagUnmapped}
	if !r.IsUnmapped() {
		t.Fatal("IsUnmapped false for unmapped")
	}
	r2 := Result{Location: 10, Flags: FlagReverse | FlagDuplicate}
	if r2.IsUnmapped() || !r2.IsReverse() || !r2.IsDuplicate() {
		t.Fatal("flag accessors wrong")
	}
}

// TestDataCRCStoredTwiceCheckedOnce: a version-1 gzip chunk states the CRC-32
// of its data block in the chunk header and in the member's trailer. Encode
// computes it once for both; decode computes it once and holds both to it,
// so damage to either stored value, or to the payload, is still ErrCorrupt.
func TestDataCRCStoredTwiceCheckedOnce(t *testing.T) {
	b := NewChunkBuilder(TypeRaw, 0)
	for i := 0; i < 300; i++ {
		b.Append(bytes.Repeat([]byte{byte('a' + i%7)}, 40+i%5))
	}
	// No footer, so nothing but the two CRCs stands between damage and Data.
	blob, err := Codec{NoChecksum: true}.Encode(b.Chunk(), CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	if blob[4] != chunkVersion {
		t.Fatalf("layout version %d, want the single-member one", blob[4])
	}
	trailer := len(blob) - 8
	if !bytes.Equal(blob[36:40], blob[trailer:trailer+4]) {
		t.Fatalf("header CRC % x, member trailer CRC % x", blob[36:40], blob[trailer:trailer+4])
	}
	if _, err := DecodeChunk(blob); err != nil {
		t.Fatal(err)
	}
	for name, off := range map[string]int{"header CRC": 37, "member trailer CRC": trailer + 1, "member ISIZE": trailer + 5, "payload": trailer - 20} {
		bad := bytes.Clone(blob)
		bad[off] ^= 0x10
		if _, err := DecodeChunk(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s damaged: %v, want ErrCorrupt", name, err)
		}
	}
}
