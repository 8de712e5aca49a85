package agd

import (
	"bytes"
	"testing"
)

// TestChecksumAllocOverhead guards the Table-1 allocation discipline: the
// CRC32-C footer must not add allocations to the encode or decode paths —
// encode's capacity slack absorbs the 8 footer bytes, and verification is
// pure arithmetic over the blob.
func TestChecksumAllocOverhead(t *testing.T) {
	b := NewChunkBuilder(TypeRaw, 0)
	for i := 0; i < 256; i++ {
		b.Append(bytes.Repeat([]byte{byte('a' + i%26)}, 64))
	}
	c := b.Chunk()

	measureEnc := func(cd Codec) float64 {
		var dst []byte
		return testing.AllocsPerRun(50, func() {
			var err error
			dst, err = cd.EncodeAppend(dst[:0], c, CompressNone)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	encWith := measureEnc(Codec{})
	encWithout := measureEnc(Codec{noChecksum: true})
	if encWith > encWithout {
		t.Fatalf("checksummed encode allocates more: %v vs %v allocs/run", encWith, encWithout)
	}

	blobWith, err := Codec{}.Encode(c, CompressNone)
	if err != nil {
		t.Fatal(err)
	}
	blobWithout, err := Codec{noChecksum: true}.Encode(c, CompressNone)
	if err != nil {
		t.Fatal(err)
	}
	measureDec := func(blob []byte) float64 {
		var ch Chunk
		return testing.AllocsPerRun(50, func() {
			if err := DecodeChunkInto(&ch, blob); err != nil {
				t.Fatal(err)
			}
		})
	}
	decWith := measureDec(blobWith)
	decWithout := measureDec(blobWithout)
	if decWith > decWithout {
		t.Fatalf("checksummed decode allocates more: %v vs %v allocs/run", decWith, decWithout)
	}
}
