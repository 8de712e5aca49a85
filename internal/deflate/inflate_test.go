package deflate

import (
	"bytes"
	"compress/flate"
	"io"
	"math/bits"
	"math/rand"
	"testing"
)

// refInflate is the reference: compress/flate on a reader that hands out
// single bytes, so it consumes exactly the stream. It returns the output,
// how many bytes of stream the decoder took, and its error. Output beyond
// limit is not collected; the boolean reports that it was cut.
func refInflate(stream []byte, limit int) (out []byte, consumed int, cut bool, err error) {
	br := bytes.NewReader(stream)
	zr := flate.NewReader(br)
	out, err = io.ReadAll(io.LimitReader(zr, int64(limit)+1))
	if len(out) > limit {
		return nil, 0, true, nil
	}
	return out, len(stream) - br.Len(), false, err
}

// checkAgainstReference holds Inflate to the reference on one stream and one
// claimed size: accepted exactly when the reference accepts the stream and
// the size is its output's, with the same bytes out and the same bytes taken.
func checkAgainstReference(t *testing.T, stream []byte, claimed int) {
	t.Helper()
	const limit = 1 << 20
	want, consumed, cut, refErr := refInflate(stream, limit)
	if cut {
		t.Skip("reference output beyond the test's limit")
	}
	sizes := []int{claimed}
	if refErr == nil && claimed != len(want) {
		sizes = append(sizes, len(want))
	}
	for _, size := range sizes {
		// Guard bytes around dst catch a write outside it.
		buf := bytes.Repeat([]byte{0xa5}, size+64)
		dst := buf[32 : 32+size : 32+size]
		n, err := Inflate(dst, stream)
		for i, b := range buf {
			if (i < 32 || i >= 32+size) && b != 0xa5 {
				t.Fatalf("Inflate wrote outside dst at offset %d (size %d)", i-32, size)
			}
		}
		accept := refErr == nil && size == len(want)
		switch {
		case accept && err != nil:
			t.Fatalf("size %d: Inflate rejects (%v) a stream compress/flate accepts", size, err)
		case !accept && err == nil:
			t.Fatalf("size %d: Inflate accepts a stream compress/flate rejects (%v, %d bytes out)", size, refErr, len(want))
		case accept:
			if !bytes.Equal(dst, want) {
				t.Fatalf("size %d: output differs from compress/flate's", size)
			}
			if n != consumed {
				t.Fatalf("size %d: Inflate took %d bytes of stream, compress/flate %d", size, n, consumed)
			}
		}
	}
}

// bitWriter builds deflate streams by hand, for shapes no encoder at hand
// produces.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

// bits appends the low n bits of v, least significant first.
func (w *bitWriter) bits(v uint32, n uint) {
	w.acc |= uint64(v) << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// code appends an n-bit Huffman codeword, most significant bit first.
func (w *bitWriter) code(c uint32, n uint) {
	w.bits(uint32(bits.Reverse32(c)>>(32-n)), n)
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(bytes.Clone(w.out), byte(w.acc))
	}
	return bytes.Clone(w.out)
}

// canonical returns the canonical codewords of lens, whatever its Kraft sum.
func canonical(lens []uint8) []uint32 {
	var count, next [maxCodeLen + 2]uint32
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint32, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// dynamicHeader writes a dynamic block's header for the given code lengths,
// each sent as its own 4-bit precode symbol (precode: sixteen 4-bit codes).
func (w *bitWriter) dynamicHeader(final bool, litLens, distLens []uint8) {
	f := uint32(0)
	if final {
		f = 1
	}
	w.bits(f|2<<1, 3)
	w.bits(uint32(len(litLens)-257), 5)
	w.bits(uint32(len(distLens)-1), 5)
	w.bits(19-4, 4)
	for _, s := range precodeOrder {
		if s < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, l := range append(bytes.Clone(litLens), distLens...) {
		w.code(uint32(l), 4)
	}
}

// handBuilt returns named streams covering what encoders rarely or never
// emit, valid and invalid.
func handBuilt() map[string][]byte {
	m := map[string][]byte{}

	// Fixed block: "abc", a match of length 6 at distance 3, end of block.
	var w bitWriter
	w.bits(1|1<<1, 3)
	for _, b := range []byte("abc") {
		w.code(0x30+uint32(b), 8)
	}
	w.code(260-256, 7) // length 6
	w.code(2, 5)       // distance 3
	w.code(0, 7)
	m["fixed"] = w.bytes()

	// Fixed block using the unassigned length symbol 286.
	w = bitWriter{}
	w.bits(1|1<<1, 3)
	w.code(0xc0+286-280, 8)
	w.code(0, 5)
	w.code(0, 7)
	m["fixed-symbol-286"] = w.bytes()

	// Fixed block using distance symbol 30.
	w = bitWriter{}
	w.bits(1|1<<1, 3)
	w.code(0x30+'a', 8)
	w.code(257-256, 7)
	w.code(30, 5)
	w.code(0, 7)
	m["fixed-distance-30"] = w.bytes()

	// A distance reaching before the start of the output.
	w = bitWriter{}
	w.bits(1|1<<1, 3)
	w.code(0x30+'a', 8)
	w.code(257-256, 7)
	w.code(1, 5) // distance 2, one byte out
	w.code(0, 7)
	m["distance-too-far"] = w.bytes()

	// Several blocks of every kind, an empty stored one among them.
	w = bitWriter{}
	w.bits(0|0<<1, 3)
	w.bits(0, 5) // to the byte boundary
	w.bits(2, 16)
	w.bits(^uint32(2)&0xffff, 16)
	w.bits('h', 8)
	w.bits('i', 8)
	w.bits(0|1<<1, 3)
	w.code(0x30+'!', 8)
	w.code(0, 7)
	w.bits(0|0<<1, 3)
	w.bits(0, 3) // to the byte boundary
	w.bits(0, 16)
	w.bits(0xffff, 16)
	w.bits(1|1<<1, 3)
	w.code(0, 7)
	m["multi-block"] = w.bytes()

	// Stored block whose NLEN is not the complement of LEN.
	m["stored-bad-nlen"] = []byte{1, 2, 0, 0xfe, 0xff, 'h', 'i'}

	// Reserved block type.
	m["block-type-3"] = []byte{7, 0}

	// Dynamic block with codewords of every length up to 15: literals 0..13
	// take lengths 1..14, literal 14 and end-of-block 15 bits each.
	lit := make([]uint8, 257)
	for i := 0; i < 14; i++ {
		lit[i] = uint8(i + 1)
	}
	lit[14], lit[256] = 15, 15
	codes := canonical(lit)
	w = bitWriter{}
	w.dynamicHeader(true, lit, []uint8{0})
	for _, s := range []int{0, 13, 14, 7, 14, 1, 256} {
		w.code(codes[s], uint(lit[s]))
	}
	m["15-bit-codes"] = w.bytes()

	// Dynamic block whose only distance codeword is one bit long: valid, and
	// the other bit pattern is not a codeword.
	lit = make([]uint8, 258)
	lit['x'], lit[256], lit[257] = 1, 2, 2
	codes = canonical(lit)
	for name, distBit := range map[string]uint32{"single-distance-code": 0, "single-distance-code-unused-bit": 1} {
		w = bitWriter{}
		w.dynamicHeader(true, lit, []uint8{1})
		w.code(codes['x'], 1)
		w.code(codes[257], 2) // length 3
		w.bits(distBit, 1)    // distance 1
		w.code(codes[256], 2)
		m[name] = w.bytes()
	}

	// No distance codeword at all, and a block that never needs one.
	w = bitWriter{}
	w.dynamicHeader(true, lit, []uint8{0})
	w.code(codes['x'], 1)
	w.code(codes[256], 2)
	m["no-distance-code"] = w.bytes()

	// Over-subscribed and incomplete literal/length codes.
	lit = make([]uint8, 257)
	lit[0], lit[1], lit[256] = 1, 1, 1
	w = bitWriter{}
	w.dynamicHeader(true, lit, []uint8{0})
	w.bits(0, 8)
	m["over-subscribed"] = w.bytes()
	lit = make([]uint8, 257)
	lit[0], lit[256] = 2, 2
	w = bitWriter{}
	w.dynamicHeader(true, lit, []uint8{0})
	w.bits(0, 8)
	m["incomplete"] = w.bytes()
	// Incomplete distance code of one two-bit codeword.
	lit = make([]uint8, 257)
	lit[0], lit[256] = 1, 1
	w = bitWriter{}
	w.dynamicHeader(true, lit, []uint8{2})
	w.bits(0b10, 2)
	m["incomplete-distance"] = w.bytes()

	// A repeat-previous code length with nothing before it, and a repeat
	// running past the last length.
	for name, tail := range map[string][]uint32{"repeat-without-previous": {16, 0}, "repeat-overrun": {18, 127, 18, 127, 18, 127}} {
		w = bitWriter{}
		w.bits(1|2<<1, 3)
		w.bits(0, 5)
		w.bits(0, 5)
		w.bits(19-4, 4)
		// Precode: symbols 0, 16, 17, 18 two bits each.
		for _, s := range precodeOrder {
			if s == 0 || s >= 16 {
				w.bits(2, 3)
			} else {
				w.bits(0, 3)
			}
		}
		pre := canonical([]uint8{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2})
		for i := 0; i < len(tail); i += 2 {
			w.code(pre[tail[i]], 2)
			w.bits(tail[i+1], map[uint32]uint{16: 2, 17: 3, 18: 7}[tail[i]])
		}
		w.bits(0, 16)
		m[name] = w.bytes()
	}
	return m
}

// payloads are the inputs the stdlib-written corpus is made from.
func payloads() map[string][]byte {
	rng := rand.New(rand.NewSource(16))
	random := make([]byte, 70_000)
	rng.Read(random)
	skewed := make([]byte, 150_000)
	for i := range skewed {
		skewed[i] = "!#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJ"[int(rng.ExpFloat64()*4)%41]
	}
	text := bytes.Repeat([]byte("chr1\t1234\t60\t101M\t*\t0\t0\tACGTTGCA\n"), 3000)
	for i := 0; i < len(text); i += 97 {
		text[i] = byte('A' + rng.Intn(26))
	}
	return map[string][]byte{
		"empty":   nil,
		"one":     {'x'},
		"short":   []byte("hello, hello, hello"),
		"zeros":   make([]byte, 100_000),
		"random":  random,
		"skewed":  skewed,
		"text":    text,
		"run-258": bytes.Repeat([]byte("ab"), 129*5),
	}
}

func stdlibDeflate(tb testing.TB, data []byte, level int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestInflateStdlibStreams decodes what compress/flate writes at every kind
// of level, whole, with trailing bytes, cut short at every length near the
// ends, and against wrong sizes.
func TestInflateStdlibStreams(t *testing.T) {
	for name, data := range payloads() {
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, 6, flate.BestCompression} {
			stream := stdlibDeflate(t, data, level)
			checkAgainstReference(t, stream, len(data))
			checkAgainstReference(t, stream, len(data)+1)
			if len(data) > 0 {
				checkAgainstReference(t, stream, len(data)-1)
			}
			checkAgainstReference(t, append(bytes.Clone(stream), "trailing"...), len(data))
			for cut := 0; cut < len(stream); cut++ {
				if cut > 40 && cut < len(stream)-40 {
					cut = len(stream) - 40
				}
				checkAgainstReference(t, stream[:cut], len(data))
			}
			if t.Failed() {
				t.Fatalf("payload %s level %d", name, level)
			}
		}
	}
}

// TestInflateSyncFlush decodes a stream with empty stored blocks in the
// middle and after the last byte of output, as a flushing writer leaves.
func TestInflateSyncFlush(t *testing.T) {
	var buf bytes.Buffer
	w, _ := flate.NewWriter(&buf, flate.BestSpeed)
	w.Write([]byte("first part, "))
	w.Flush()
	w.Write([]byte("second part"))
	w.Flush()
	w.Close()
	checkAgainstReference(t, buf.Bytes(), len("first part, second part"))
}

func TestInflateHandBuilt(t *testing.T) {
	accepted := map[string]string{
		"fixed":                "abcabcabc",
		"multi-block":          "hi!",
		"15-bit-codes":         "\x00\x0d\x0e\x07\x0e\x01",
		"single-distance-code": "xxxx",
		"no-distance-code":     "x",
	}
	for name, stream := range handBuilt() {
		t.Run(name, func(t *testing.T) {
			want, ok := accepted[name]
			checkAgainstReference(t, stream, len(want))
			dst := make([]byte, len(want))
			_, err := Inflate(dst, stream)
			if ok && (err != nil || string(dst) != want) {
				t.Fatalf("got %q, %v; want %q", dst, err, want)
			}
			if !ok && err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// FuzzInflate holds Inflate to compress/flate on arbitrary bytes and an
// arbitrary claimed size: same accept or reject, same output, same bytes
// consumed, no panic and no write outside dst. Inflate allocates nothing
// whatever the size (TestCodecAllocations); dst is the caller's.
func FuzzInflate(f *testing.F) {
	for _, data := range payloads() {
		if len(data) > 4096 {
			data = data[:4096]
		}
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, 6, flate.BestCompression} {
			f.Add(stdlibDeflate(f, data, level), uint32(len(data)))
		}
		f.Add(Deflate(nil, data), uint32(len(data)))
	}
	for _, stream := range handBuilt() {
		f.Add(stream, uint32(9))
	}
	f.Fuzz(func(t *testing.T, stream []byte, claimed uint32) {
		checkAgainstReference(t, stream, int(claimed%(1<<17)))
	})
}
