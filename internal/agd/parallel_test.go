package agd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"persona/internal/dataflow"
)

// buildBigChunk builds a chunk whose data block spans several members.
func buildBigChunk(t *testing.T, records, recLen int) *Chunk {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	b := NewChunkBuilder(TypeRaw, 42)
	rec := make([]byte, recLen)
	for i := 0; i < records; i++ {
		for j := range rec {
			rec[j] = "ACGT"[rng.Intn(4)]
		}
		b.Append(rec)
	}
	return b.Chunk()
}

func checkChunkEqual(t *testing.T, got, want *Chunk) {
	t.Helper()
	if got.Type != want.Type || got.FirstOrdinal != want.FirstOrdinal {
		t.Fatalf("header mismatch: got (%v, %d), want (%v, %d)", got.Type, got.FirstOrdinal, want.Type, want.FirstOrdinal)
	}
	if got.NumRecords() != want.NumRecords() {
		t.Fatalf("records = %d, want %d", got.NumRecords(), want.NumRecords())
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatal("data mismatch")
	}
	for i := 0; i < want.NumRecords(); i++ {
		g, err1 := got.Record(i)
		w, err2 := want.Record(i)
		if err1 != nil || err2 != nil {
			t.Fatalf("record %d: %v / %v", i, err1, err2)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestParallelChunkRoundTrip(t *testing.T) {
	c := buildBigChunk(t, 500, 120) // 60 KB of data
	for _, members := range []int{1, 2, 3, 7, 16} {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			cd := Codec{members: members}
			blob, err := cd.Encode(c, CompressGzip)
			if err != nil {
				t.Fatal(err)
			}
			if blob[4] != chunkVersionParallel {
				t.Fatalf("version = %d, want %d", blob[4], chunkVersionParallel)
			}
			dec, err := DecodeChunk(blob)
			if err != nil {
				t.Fatal(err)
			}
			checkChunkEqual(t, dec, c)
		})
	}
}

func TestParallelChunkDecodeIntoReuses(t *testing.T) {
	big := buildBigChunk(t, 500, 120)
	small := buildBigChunk(t, 10, 30)
	blobBig, err := Codec{members: 4}.Encode(big, CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	blobSmall, err := EncodeChunk(small, CompressGzip)
	if err != nil {
		t.Fatal(err)
	}

	// Decode big → small → big into one chunk: contents must be exact and
	// the second big decode must reuse the backing arrays.
	var c Chunk
	if err := DecodeChunkInto(&c, blobBig); err != nil {
		t.Fatal(err)
	}
	checkChunkEqual(t, &c, big)
	// Materialize offsets, then ensure reuse resets them.
	if _, err := c.Record(3); err != nil {
		t.Fatal(err)
	}
	dataCap, lenCap := cap(c.Data), cap(c.lengths)
	if err := DecodeChunkInto(&c, blobSmall); err != nil {
		t.Fatal(err)
	}
	checkChunkEqual(t, &c, small)
	if cap(c.Data) != dataCap || cap(c.lengths) != lenCap {
		t.Fatalf("backing arrays not reused: data cap %d→%d, lengths cap %d→%d",
			dataCap, cap(c.Data), lenCap, cap(c.lengths))
	}
	if err := DecodeChunkInto(&c, blobBig); err != nil {
		t.Fatal(err)
	}
	checkChunkEqual(t, &c, big)
}

func TestParallelChunkCorruptMember(t *testing.T) {
	c := buildBigChunk(t, 500, 120)
	blob, err := Codec{members: 4}.Encode(c, CompressGzip)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the last member's compressed stream.
	corrupt := append([]byte{}, blob...)
	corrupt[len(corrupt)-3] ^= 0xff
	if _, err := DecodeChunk(corrupt); err == nil {
		t.Fatal("corrupt member accepted")
	}

	// Member count beyond the blob must be rejected, not crash.
	hdr, err := parseChunkHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	tableOff := chunkHeaderSize + int(hdr.indexSize)
	badCount := append([]byte{}, blob...)
	badCount[tableOff] = 0xff // member count 255 with a 4-member body
	if _, err := DecodeChunk(badCount); err == nil {
		t.Fatal("bad member count accepted")
	}

	// Truncated member body.
	if _, err := DecodeChunk(blob[:len(blob)-5]); err == nil {
		t.Fatal("truncated member body accepted")
	}

	// Member sizes that lie about the uncompressed total.
	badSize := append([]byte{}, blob...)
	badSize[tableOff+4+4*4] ^= 0x01 // first member's uncompressed size
	if _, err := DecodeChunk(badSize); err == nil {
		t.Fatal("bad member size accepted")
	}
}

func TestParallelChunkMemberCountClamped(t *testing.T) {
	// A forced member count beyond what the decoder accepts must be
	// clamped, not written as an undecodable blob.
	c := buildBigChunk(t, 500, 120)
	blob, err := Codec{members: maxChunkMembers + 100}.Encode(c, CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeChunk(blob)
	if err != nil {
		t.Fatal(err)
	}
	checkChunkEqual(t, dec, c)
}

func TestDecodeRejectsAbsurdIndexSum(t *testing.T) {
	// A corrupt index claiming a huge uncompressed size must fail with
	// ErrCorrupt before any allocation is attempted.
	var idx []byte
	var tmp [10]byte
	n := binary.PutUvarint(tmp[:], 1<<50)
	idx = append(idx, tmp[:n]...)
	blob := make([]byte, chunkHeaderSize)
	copy(blob[0:4], chunkMagic)
	blob[4] = chunkVersion
	blob[6] = byte(CompressGzip)
	binary.LittleEndian.PutUint32(blob[8:12], 1) // one record
	binary.LittleEndian.PutUint64(blob[20:28], uint64(len(idx)))
	binary.LittleEndian.PutUint64(blob[28:36], 4)
	blob = append(blob, idx...)
	blob = append(blob, 1, 2, 3, 4) // 4-byte "data block"
	if _, err := DecodeChunk(blob); err == nil {
		t.Fatal("absurd index sum accepted")
	}
}

func TestLegacyV1BlobsDecodeUnchanged(t *testing.T) {
	c := buildBigChunk(t, 500, 120)
	for _, comp := range []Compression{CompressNone, CompressGzip} {
		// encodeChunkV1Append is the exact pre-parallel on-disk layout.
		legacy, err := encodeChunkV1Append(nil, c, comp)
		if err != nil {
			t.Fatal(err)
		}
		if legacy[4] != chunkVersion {
			t.Fatalf("legacy version byte = %d", legacy[4])
		}
		dec, err := DecodeChunk(legacy)
		if err != nil {
			t.Fatal(err)
		}
		checkChunkEqual(t, dec, c)
		var into Chunk
		if err := DecodeChunkInto(&into, legacy); err != nil {
			t.Fatal(err)
		}
		checkChunkEqual(t, &into, c)
	}

	// Small gzip chunks keep the legacy layout byte-for-byte: the default
	// encoder and the explicit v1 encoder must agree exactly, up to the
	// CRC32-C footer the default codec now appends.
	small := buildBigChunk(t, 10, 30)
	auto, err := Codec{}.Encode(small, CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := encodeChunkV1Append(nil, small, CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	if len(auto) != len(v1)+chunkFooterSize || !bytes.Equal(auto[:len(v1)], v1) {
		t.Fatal("small-chunk encoding diverged from the legacy layout")
	}
	unchecked, err := Codec{noChecksum: true}.Encode(small, CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unchecked, v1) {
		t.Fatal("noChecksum encoding diverged from the legacy layout")
	}
}

// TestCodecMembersFollowExecutor: a codec without an executor runs on its
// caller, so even a block big enough for many members is written as one
// version-1 member, whatever GOMAXPROCS is; with an executor the block splits
// into as many members as it has workers, and both codecs read the result.
func TestCodecMembersFollowExecutor(t *testing.T) {
	c := buildBigChunk(t, 640, 120) // 75 KiB of data: nine members' worth
	for _, procs := range []int{4, 1} {
		prev := runtime.GOMAXPROCS(procs)
		blob, err := Codec{}.Encode(c, CompressGzip)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if blob[4] != chunkVersion {
			t.Fatalf("GOMAXPROCS %d: no executor wrote version %d, want %d", procs, blob[4], chunkVersion)
		}
	}
	exec := dataflow.NewExecutor(3, 6)
	defer exec.Close()
	cd := Codec{Exec: exec}
	blob, err := cd.Encode(c, CompressGzip)
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseChunkHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if members := binary.LittleEndian.Uint32(blob[chunkHeaderSize+h.indexSize:]); blob[4] != chunkVersionParallel || members != 3 {
		t.Fatalf("a 3-worker executor wrote version %d with %d members, want version %d with 3", blob[4], members, chunkVersionParallel)
	}
	for _, dec := range []Codec{cd, {}} {
		got, err := dec.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		checkChunkEqual(t, got, c)
	}
}

func TestParallelChunkConcurrentCodec(t *testing.T) {
	// Many goroutines sharing one codec executor must not interfere.
	exec := dataflow.NewExecutor(4, 8)
	defer exec.Close()
	c := buildBigChunk(t, 400, 100)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(members int) {
			defer wg.Done()
			cd := Codec{Exec: exec, members: members}
			var reused Chunk
			for i := 0; i < 10; i++ {
				blob, err := cd.Encode(c, CompressGzip)
				if err != nil {
					errs <- err
					return
				}
				if err := cd.DecodeInto(&reused, blob); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(reused.Data, c.Data) {
					errs <- fmt.Errorf("members=%d: data mismatch", members)
					return
				}
			}
		}(1 + g%5)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
