package deflate

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
)

// checkRoundTrip deflates data and inflates it with compress/flate and with
// Inflate; both must give data back, and the stream must keep its size bound.
func checkRoundTrip(t *testing.T, e *encoder, data []byte) []byte {
	t.Helper()
	prefix := []byte("prefix")
	var out []byte
	if e != nil {
		out = e.deflate(bytes.Clone(prefix), data)
	} else {
		out = Deflate(bytes.Clone(prefix), data)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("Deflate overwrote what dst held")
	}
	stream := out[len(prefix):]
	if len(stream) > StoredSize(len(data)) {
		t.Fatalf("%d bytes deflate to %d, more than the stored size %d", len(data), len(stream), StoredSize(len(data)))
	}
	got, err := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("compress/flate reads %d bytes, %v; want the %d written", len(got), err, len(data))
	}
	back := make([]byte, len(data))
	if n, err := Inflate(back, stream); err != nil || n != len(stream) || !bytes.Equal(back, data) {
		t.Fatalf("Inflate: %d of %d stream bytes, %v", n, len(stream), err)
	}
	return stream
}

// distinctGrams is text in which no four bytes occur twice: a match finder
// finds nothing in it, whatever it hashes.
func distinctGrams(n int) []byte {
	out := make([]byte, 0, n+4)
	for i := uint32(0); len(out) < n; i++ {
		out = binary.BigEndian.AppendUint32(out, i*2654435761)
	}
	return out[:n]
}

func TestDeflateRoundTrip(t *testing.T) {
	for name, data := range payloads() {
		t.Run(name, func(t *testing.T) { checkRoundTrip(t, nil, data) })
	}
	t.Run("settled look", func(t *testing.T) {
		// Matches save so much on the first 8 KiB that the blocks after it
		// are not priced without them; those blocks hold what matches do
		// nothing for, and are still stored where that is cheapest.
		p := payloads()
		data := append(bytes.Clone(p["text"][:measureAt+100]), p["skewed"]...)
		data = append(data, p["random"]...)
		checkRoundTrip(t, nil, data)
	})
	rng := rand.New(rand.NewSource(1))
	t.Run("sizes", func(t *testing.T) {
		// Lengths around every boundary the encoder has: the 8-byte loads of
		// the match finder, the 8 KiB look, the 65 535-byte block.
		for _, n := range []int{0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 258, 259, measureAt - 1, measureAt, measureAt + 1,
			blockBytes - 1, blockBytes, blockBytes + 1, blockBytes + 8, 2*blockBytes + 5} {
			random := make([]byte, n)
			rng.Read(random)
			checkRoundTrip(t, nil, random)
			checkRoundTrip(t, nil, distinctGrams(n))
			checkRoundTrip(t, nil, make([]byte, n))
			checkRoundTrip(t, nil, bytes.Repeat([]byte("read.1234/1 chr2:5678 "), n/22+1)[:n])
			// Compressible first, then not, and the reverse: the per-block
			// choice and the whole-stream fallback both come into play.
			mixed := append(bytes.Repeat([]byte("abcdefgh"), n/16), random[:n/2]...)
			checkRoundTrip(t, nil, mixed)
			checkRoundTrip(t, nil, append(bytes.Clone(random[:n/2]), bytes.Repeat([]byte("abcdefgh"), n/16)...))
		}
	})
}

// TestDeflateMeasuredPrefix sweeps the lengths just past the 8 KiB look, where
// the match finder's step over misses ends beyond the buffer: Deflate must
// stay inside src, so neither a tight capacity nor the bytes behind len(src)
// show in the output.
func TestDeflateMeasuredPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	backing := make([]byte, measureAt+300+64)
	for n := measureAt; n <= measureAt+300; n++ {
		for _, fill := range []func([]byte){func(p []byte) { rng.Read(p) }, func(p []byte) { copy(p, distinctGrams(len(p))) }} {
			fill(backing[:n])
			tight := bytes.Clone(backing[:n:n])
			want := checkRoundTrip(t, nil, tight[:n:n])
			for _, tail := range []byte{0x00, 0xff} {
				for i := n; i < len(backing); i++ {
					backing[i] = tail
				}
				if got := Deflate(nil, backing[:n]); !bytes.Equal(got, want) {
					t.Fatalf("%d bytes: the stream changes with the bytes behind them", n)
				}
			}
		}
	}
}

// TestDeflateDeterministic pins that the stream depends on the input alone:
// not on what the pooled encoder saw before, nor on where its hash
// generation stands, including across the generation's wrap-around.
func TestDeflateDeterministic(t *testing.T) {
	data := payloads()["text"]
	other := payloads()["skewed"]
	fresh := &encoder{base: maxDist + 1}
	want := checkRoundTrip(t, fresh, data)

	used := &encoder{base: maxDist + 1}
	checkRoundTrip(t, used, other)
	checkRoundTrip(t, used, data[100:])
	if got := checkRoundTrip(t, used, data); !bytes.Equal(got, want) {
		t.Fatal("a used encoder writes a different stream")
	}
	// Just below the wrap of the hash generation, at it and past it, with a
	// table full of the newest entries an earlier buffer could have left,
	// each claiming the four bytes the data is full of: only their distance
	// tells them from a match.
	for _, base := range []uint32{1<<32 - 1 - 2*maxInput - 1, 1<<32 - 1 - 2*maxInput, 1<<32 - 1 - 2*maxInput + 1, 1<<32 - 1} {
		used.base = base
		for i := range used.hash {
			used.hash[i] = uint64(base-maxDist-1-uint32(i%512)) | uint64(binary.LittleEndian.Uint32([]byte("chr1")))<<32
		}
		if got := checkRoundTrip(t, used, data); !bytes.Equal(got, want) {
			t.Fatalf("hash base %#x: different stream", base)
		}
	}
	if got := Deflate(nil, data); !bytes.Equal(got, want) {
		t.Fatal("the pooled encoder writes a different stream")
	}
}

// TestDeflateChoosesCoding checks each block coding is reachable and chosen
// where it should be.
func TestDeflateChoosesCoding(t *testing.T) {
	blockType := func(stream []byte) int { return int(stream[0] >> 1 & 3) }
	rng := rand.New(rand.NewSource(2))
	random := make([]byte, 3000)
	rng.Read(random)
	if bt := blockType(Deflate(nil, random)); bt != 0 {
		t.Errorf("random bytes: block type %d, want stored", bt)
	}
	if n := len(Deflate(nil, random)); n != StoredSize(len(random)) {
		t.Errorf("random bytes: %d, want the stored size %d", n, StoredSize(len(random)))
	}
	if bt := blockType(Deflate(nil, []byte("tiny tiny tiny"))); bt != 0 {
		t.Errorf("tiny input: block type %d, want stored", bt)
	}
	if got := Deflate(nil, nil); !bytes.Equal(got, []byte{1, 0, 0, 0xff, 0xff}) {
		t.Errorf("empty input: % x, want the empty stored block", got)
	}
	skewed := payloads()["skewed"]
	stream := Deflate(nil, skewed)
	if bt := blockType(stream); bt != 2 {
		t.Errorf("skewed literals: block type %d, want dynamic", bt)
	}
	// Literals only: no better than the Huffman-only coding of compress/flate
	// by more than rounding, and far better than level 1's matches.
	huff, speed := len(stdlibDeflate(t, skewed, flate.HuffmanOnly)), len(stdlibDeflate(t, skewed, flate.BestSpeed))
	if len(stream) > huff+huff/100 || len(stream) >= speed {
		t.Errorf("skewed literals: %d bytes; compress/flate Huffman-only %d, BestSpeed %d", len(stream), huff, speed)
	}
	text := payloads()["text"]
	if got, huff := len(Deflate(nil, text)), len(stdlibDeflate(t, text, flate.HuffmanOnly)); got > huff/2 {
		t.Errorf("repetitive text: %d bytes, Huffman-only %d: matches not used", got, huff)
	}
}

// TestCodeLengths checks the length-limited code on weights that force the
// limit, and that every code built is complete.
func TestCodeLengths(t *testing.T) {
	e := new(encoder)
	kraft := func(lens []uint8, limit int) int {
		sum := 0
		for _, l := range lens {
			if int(l) > limit {
				t.Fatalf("length %d over the limit %d", l, limit)
			}
			if l > 0 {
				sum += 1 << (limit - int(l))
			}
		}
		return sum
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(numLit-1)
		limit := []int{7, litCodeLimit, distCodeLimit}[trial%3]
		if limit == 7 {
			n = 2 + rng.Intn(numPrecode-1)
		}
		freq := make([]uint32, n)
		for i := range freq {
			switch trial % 4 {
			case 0: // Fibonacci-like: the deepest tree there is
				freq[i] = uint32(1) << min(i, 15)
			case 1:
				freq[i] = uint32(rng.Intn(3))
			default:
				freq[i] = uint32(rng.Intn(60000))
			}
		}
		lens := make([]uint8, n)
		e.codeLengths(lens, freq, limit)
		if got := kraft(lens, limit); got != 1<<limit {
			t.Fatalf("trial %d: Kraft sum %d/%d, code not complete", trial, got, 1<<limit)
		}
		for s, f := range freq {
			if f > 0 && lens[s] == 0 {
				t.Fatalf("trial %d: used symbol %d has no codeword", trial, s)
			}
		}
	}
}

// FuzzDeflateRoundTrip deflates arbitrary payloads; compress/flate and
// Inflate must both give them back.
func FuzzDeflateRoundTrip(f *testing.F) {
	for _, data := range payloads() {
		if len(data) > 20_000 {
			data = data[:20_000]
		}
		f.Add(data)
	}
	f.Add(distinctGrams(9000))
	f.Fuzz(func(t *testing.T, data []byte) { checkRoundTrip(t, nil, data) })
}

// TestCodecAllocations pins that neither direction allocates once the pooled
// state exists and dst has room, whatever the sizes involved.
func TestCodecAllocations(t *testing.T) {
	for name, data := range payloads() {
		stream := Deflate(nil, data)
		dst := make([]byte, 0, StoredSize(len(data))+8)
		if n := testing.AllocsPerRun(20, func() { dst = Deflate(dst[:0], data) }); n != 0 {
			t.Errorf("%s: Deflate allocates %v times a call", name, n)
		}
		back := make([]byte, len(data))
		if n := testing.AllocsPerRun(20, func() { Inflate(back, stream) }); n != 0 {
			t.Errorf("%s: Inflate allocates %v times a call", name, n)
		}
	}
}

func TestGzipFraming(t *testing.T) {
	data := payloads()["text"]
	crc := crc32.ChecksumIEEE(data)
	for _, extra := range [][]byte{nil, {'B', 'C', 2, 0, 0, 0}} {
		member := AppendGzip([]byte("x"), data, crc, extra)[1:]
		zr, err := gzip.NewReader(bytes.NewReader(member))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(zr)
		if err != nil || !bytes.Equal(got, data) || !bytes.Equal(zr.Extra, extra) {
			t.Fatalf("compress/gzip reads %d bytes, extra %q, %v", len(got), zr.Extra, err)
		}
		back := make([]byte, len(data))
		if got, err := Gunzip(back, member); err != nil || got != crc || !bytes.Equal(back, data) {
			t.Fatalf("Gunzip: crc %08x, %v", got, err)
		}
		// Framing faults: a trailing byte, a missing byte, the wrong ISIZE,
		// the wrong size asked for, a bad magic and method.
		for name, bad := range map[string][]byte{
			"trailing byte": append(bytes.Clone(member), 0),
			"cut":           member[:len(member)-1],
			"isize":         append(bytes.Clone(member[:len(member)-4]), 1, 2, 3, 4),
			"magic":         append([]byte{0x1f, 0x8c}, member[2:]...),
			"method":        append([]byte{0x1f, 0x8b, 7}, member[3:]...),
			"empty":         nil,
		} {
			if _, err := Gunzip(back, bad); err == nil {
				t.Errorf("%s: accepted", name)
			}
		}
		if _, err := Gunzip(make([]byte, len(data)+1), member); err == nil {
			t.Error("accepted into a dst one byte too long")
		}
	}

	// Every optional header field compress/gzip can write is skipped.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Name, zw.Comment, zw.Extra = "name", "comment", []byte("extra field")
	zw.Write(data)
	zw.Close()
	back := make([]byte, len(data))
	if got, err := Gunzip(back, buf.Bytes()); err != nil || got != crc || !bytes.Equal(back, data) {
		t.Fatalf("member with name, comment and extra: crc %08x, %v", got, err)
	}
	// A header CRC is checked when present.
	member := AppendGzip(nil, data, crc, nil)
	withHCRC := append(bytes.Clone(member[:gzipHeaderSize]), 0, 0)
	withHCRC[3] |= flagHCRC
	binary.LittleEndian.PutUint16(withHCRC[gzipHeaderSize:], uint16(crc32.ChecksumIEEE(withHCRC[:gzipHeaderSize])))
	withHCRC = append(withHCRC, member[gzipHeaderSize:]...)
	if _, err := Gunzip(back, withHCRC); err != nil {
		t.Fatalf("member with a header CRC: %v", err)
	}
	withHCRC[gzipHeaderSize] ^= 1
	if _, err := Gunzip(back, withHCRC); err == nil {
		t.Fatal("wrong header CRC accepted")
	}
	// The trailer's CRC is returned, not judged.
	member[len(member)-8] ^= 0xff
	if got, err := Gunzip(back, member); err != nil || got == crc {
		t.Fatalf("flipped trailer CRC: %08x, %v", got, err)
	}
}
