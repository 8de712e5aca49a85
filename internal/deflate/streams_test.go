package deflate_test

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"testing"

	"persona"
	"persona/internal/deflate"
	"persona/internal/formats/bgzf"
)

func sha(p []byte) string {
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:])
}

// TestDeflateStreamsPinned pins what Deflate writes for each fixture buffer:
// the stream's SHA-256, the SHA-256 of what compress/flate decodes from it,
// which must be the payload's, and a size within 2 % of the stream the
// encoder wrote before its match table shrank to fit L1 (the lengths below).
// A change to the match finder moves the first pin only; the second says the
// content did not move with it.
func TestDeflateStreamsPinned(t *testing.T) {
	pins := map[string]struct {
		stream, payload string
		before          int
	}{
		"bases":     {"aff4fb704dd4a097817aa8e756ee34f0fd79277cdfab1b67d137e50f16e1fd73", "a7e1e2a5116126f078d2f2dbe9efec9c7578a956e40d0059c02a55ef84bdf29c", 63817},
		"qual":      {"4c22d1b40236dc39c990fba27955a445168b63c9b8cf143eae2081cf1a2993af", "de4c6044798df7a79dc5611e27235357e2b98dc2c6faad697c53fd43f4e4b5d4", 85109},
		"metadata":  {"954cbd5f856909d1f4fe98872ba896cd0db034ddf2d8616fdd5f25d0e7179881", "16b99c28d7f4448b083539d7a44de4586b75e4998d7b718c1dec163253a984b1", 5046},
		"results":   {"4f660692a59a18618f5895c0d2033200780952a2b7480a29095ddbf0a843060b", "27d0ddd38cea778371ae822f088fd5a281a00bf962c46370989f05237359344c", 8570},
		"bam-block": {"f16f9e115b71c8fcdfd87fa8ad298d3bca53718ff2ef5076d629eec549d44971", "e54602e5ba232ffed7920ad1c80246f47dbeae6b1a8fbb99ca2c22cd73538ca5", 31967},
	}
	for _, buf := range fixture() {
		pin, ok := pins[buf.name]
		if !ok {
			t.Fatalf("no pin for buffer %q", buf.name)
		}
		stream := deflate.Deflate(nil, buf.data)
		decoded, err := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
		if err != nil {
			t.Fatalf("%s: compress/flate: %v", buf.name, err)
		}
		if got := sha(decoded); got != sha(buf.data) || got != pin.payload {
			t.Errorf("%s: decoded SHA-256 %s, payload %s, pinned %s", buf.name, got, sha(buf.data), pin.payload)
		}
		if got := sha(stream); got != pin.stream {
			t.Errorf("%s: stream SHA-256 %s (%d bytes), pinned %s", buf.name, got, len(stream), pin.stream)
		}
		if len(stream)*100 > pin.before*102 {
			t.Errorf("%s: %d bytes, more than 1.02 × %d", buf.name, len(stream), pin.before)
		}
	}
}

// TestDeflateRoundTripFixture runs the round-trip checks on the buffers the
// repository deflates, not only on synthetic payloads.
func TestDeflateRoundTripFixture(t *testing.T) {
	for _, buf := range fixture() {
		t.Run(buf.name, func(t *testing.T) { deflate.CheckRoundTrip(t, buf.data) })
	}
}

// fusedBAM is the fixture dataset sorted, duplicate-marked and exported as
// BAM by one pipeline at the given GOMAXPROCS.
func fusedBAM(t *testing.T, procs int) []byte {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	sess := persona.NewSession(store(), persona.SessionOptions{})
	defer sess.Close()
	var file bytes.Buffer
	if _, err := sess.Read("ds").Sort(persona.ByLocation).MarkDuplicates().ExportBAM(&file).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return file.Bytes()
}

// TestDeflateBGZFBlocks takes a fused BAM export apart block by block: every
// block's stream is what Deflate writes for its payload, compress/flate
// decodes it to that payload (length and CRC as the trailer says), and it
// passes the round-trip checks. The decoded stream and the block boundaries
// are pinned: they do not depend on the encoder, nor on GOMAXPROCS. The EOF
// marker, a fixed empty block, ends the file.
func TestDeflateBGZFBlocks(t *testing.T) {
	const (
		wantFile    = "ac2ae05d74bbdf139db8d68a8766bdeb2426f62a12fd4c74402097d8e298fa9e"
		wantPayload = "d7aeddd6396c6071dc8be6e4b03123c43765d2b2887069b020281b841e6f2b25"
		wantBlocks  = "dba7305685d787c525efb299c375194e1f8ba8cad770d55da68fec3163de133d"
		before      = 362219 // the file's size before the match table shrank
	)
	for _, procs := range []int{1, 4} {
		file := fusedBAM(t, procs)
		var payload bytes.Buffer
		sizes := sha256.New()
		if !bytes.HasSuffix(file, bgzf.EOFMarker) {
			t.Fatalf("GOMAXPROCS %d: no EOF marker", procs)
		}
		for rest := file[:len(file)-len(bgzf.EOFMarker)]; len(rest) > 0; {
			// Header: gzip's ten bytes, XLEN, the BC subfield with BSIZE.
			if len(rest) < 26 || rest[12] != 'B' || rest[13] != 'C' {
				t.Fatalf("GOMAXPROCS %d: no BGZF block at offset %d", procs, len(file)-len(rest))
			}
			block := rest[:int(binary.LittleEndian.Uint16(rest[16:]))+1]
			rest = rest[len(block):]
			stream, trailer := block[18:len(block)-8], block[len(block)-8:]
			data, err := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
			if err != nil || len(data) != int(binary.LittleEndian.Uint32(trailer[4:])) || crc32.ChecksumIEEE(data) != binary.LittleEndian.Uint32(trailer) {
				t.Fatalf("GOMAXPROCS %d: block of %d bytes: compress/flate reads %d bytes, %v, against the trailer", procs, len(block), len(data), err)
			}
			if again := deflate.CheckRoundTrip(t, data); !bytes.Equal(again, stream) {
				t.Fatalf("GOMAXPROCS %d: a block's stream is not what Deflate writes for its payload", procs)
			}
			payload.Write(data)
			fmt.Fprintf(sizes, "%d\n", len(data))
		}
		if got := sha(payload.Bytes()); got != wantPayload {
			t.Errorf("GOMAXPROCS %d: decompressed BAM SHA-256 %s, pinned %s", procs, got, wantPayload)
		}
		if got := hex.EncodeToString(sizes.Sum(nil)); got != wantBlocks {
			t.Errorf("GOMAXPROCS %d: block payload sizes SHA-256 %s, pinned %s", procs, got, wantBlocks)
		}
		if got := sha(file); got != wantFile {
			t.Errorf("GOMAXPROCS %d: BAM file SHA-256 %s, pinned %s", procs, got, wantFile)
		}
		if len(file)*100 > before*102 {
			t.Errorf("GOMAXPROCS %d: BAM of %d bytes, more than 1.02 × %d", procs, len(file), before)
		}
	}
}
