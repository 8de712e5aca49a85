package bgzf

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"persona/internal/dataflow"
)

// splitBlocks cuts a BGZF stream into its blocks by their BSIZE fields.
func splitBlocks(t testing.TB, stream []byte) [][]byte {
	t.Helper()
	var blocks [][]byte
	for len(stream) > 0 {
		if len(stream) < headerSize || stream[12] != 'B' || stream[13] != 'C' {
			t.Fatalf("no BC subfield where a block should start (%d bytes left)", len(stream))
		}
		n := int(binary.LittleEndian.Uint16(stream[16:])) + 1
		if n > len(stream) {
			t.Fatalf("BSIZE %d runs past the stream (%d bytes left)", n-1, len(stream))
		}
		blocks = append(blocks, stream[:n])
		stream = stream[n:]
	}
	return blocks
}

// blockPayloads are the shapes the size bound is swept over: random bytes
// and text in which no four bytes repeat, which deflate cannot shrink, a
// constant, and BAM-like text.
func blockPayloads(n int) map[string][]byte {
	rng := rand.New(rand.NewSource(int64(n)))
	random := make([]byte, n)
	rng.Read(random)
	distinct := make([]byte, 0, n+4)
	for i := uint32(0); len(distinct) < n; i++ {
		distinct = binary.BigEndian.AppendUint32(distinct, i*2654435761)
	}
	return map[string][]byte{
		"random":   random,
		"distinct": distinct[:n],
		"constant": bytes.Repeat([]byte{'N'}, n),
		"text":     []byte(strings.Repeat("read.77/1\tchr1\t12345\t60\t101M\tACGTTGCAAC\tIIIIHHHGG#\n", n/50+1)[:n]),
	}
}

func writeAll(t testing.TB, w io.WriteCloser, payload []byte) {
	t.Helper()
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockBound pins the size bound as a property of the encoder, where it
// used to rest on compress/flate's stored fallback: a block is never more
// than header, trailer and one stored-block header per 65 535 bytes longer
// than its payload, so BSIZE always fits. A writer on an executor must write
// the same bytes as one without, and what they write must read back.
func TestBlockBound(t *testing.T) {
	exec := dataflow.NewExecutor(3, 6)
	defer exec.Close()
	for _, n := range []int{0, 1, MaxBlockSize - 1, MaxBlockSize, MaxBlockSize + 1, 3*MaxBlockSize + 17} {
		for name, payload := range blockPayloads(n) {
			var serial, parallel bytes.Buffer
			writeAll(t, NewWriter(&serial, nil), payload)
			writeAll(t, NewWriter(&parallel, exec), payload)
			if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
				t.Fatalf("%s/%d: the writer on an executor wrote a different stream", name, n)
			}
			blocks := splitBlocks(t, serial.Bytes())
			if want := (n+MaxBlockSize-1)/MaxBlockSize + 1; len(blocks) != want {
				t.Fatalf("%s/%d: %d blocks, want %d", name, n, len(blocks), want)
			}
			if !bytes.Equal(blocks[len(blocks)-1], EOFMarker) {
				t.Fatalf("%s/%d: stream does not end with the EOF marker", name, n)
			}
			rest := payload
			for _, b := range blocks[:len(blocks)-1] {
				size := min(len(rest), MaxBlockSize)
				if bound := size + 5*((size+65534)/65535) + 26; len(b) > bound || len(b) > 0x10000 {
					t.Fatalf("%s/%d: block of %d payload bytes is %d bytes, bound %d", name, n, size, len(b), bound)
				}
				if isize := binary.LittleEndian.Uint32(b[len(b)-4:]); int(isize) != size {
					t.Fatalf("%s/%d: ISIZE %d, payload %d", name, n, isize, size)
				}
				rest = rest[size:]
			}
			got, err := io.ReadAll(NewReader(&serial))
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("%s/%d: read back %d bytes, %v", name, n, len(got), err)
			}
		}
	}
}

// discard counts bytes; unlike io.Discard it cannot be special-cased away.
type discard struct{ n int }

func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

func TestWritersAllocateNothingPerBlock(t *testing.T) {
	payload := blockPayloads(MaxBlockSize)["text"]
	exec := dataflow.NewExecutor(2, 4)
	defer exec.Close()
	var sink, parallelSink discard
	w := NewWriter(&sink, nil)
	pw := NewWriter(&parallelSink, exec)
	for i := 0; i < 12; i++ { // every block the executor writer recycles has its buffers
		w.Write(payload)
		pw.Write(payload)
	}
	if n := testing.AllocsPerRun(50, func() { w.Write(payload) }); n != 0 {
		t.Errorf("Writer allocates %v times a block", n)
	}
	if n := testing.AllocsPerRun(50, func() { pw.Write(payload) }); n != 0 {
		t.Errorf("Writer on an executor allocates %v times a block", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
}

// mixedPayload is n bytes whose stretches compress very differently, so the
// blocks of a writer on several workers finish out of order.
func mixedPayload(n int) []byte {
	shapes := blockPayloads(MaxBlockSize / 3)
	var out []byte
	for i := 0; len(out) < n; i++ {
		out = append(out, shapes[[]string{"random", "constant", "text", "distinct"}[i%4]]...)
	}
	return out[:n]
}

// TestExecWriterManyBlocksMatchSerial: blocks that finish out of order on
// four workers are still written in stream order, at every write size.
func TestExecWriterManyBlocksMatchSerial(t *testing.T) {
	exec := dataflow.NewExecutor(4, 8)
	defer exec.Close()
	payload := mixedPayload(40*MaxBlockSize + 123)
	var serial bytes.Buffer
	writeAll(t, NewWriter(&serial, nil), payload)
	for _, step := range []int{1 << 10, MaxBlockSize, 3 * MaxBlockSize} {
		var got bytes.Buffer
		w := NewWriter(&got, exec)
		for rest := payload; len(rest) > 0; {
			n := min(step, len(rest))
			if _, err := w.Write(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), serial.Bytes()) {
			t.Fatalf("writes of %d bytes: the stream differs from the serial writer's", step)
		}
	}
}

// TestExecWriterCloseWaitsForQueuedBlocks: with the only worker wedged, no
// block can be compressed, so nothing reaches the sink; once the worker is
// free, Close returns only after every block is written.
func TestExecWriterCloseWaitsForQueuedBlocks(t *testing.T) {
	exec := dataflow.NewExecutor(1, 4)
	defer exec.Close()
	gate := make(chan struct{})
	if err := exec.Submit(context.Background(), func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	payload := mixedPayload(5*MaxBlockSize + 9)
	var out bytes.Buffer
	sink := &countingWriter{w: &out}
	done := make(chan error, 1)
	go func() {
		w := NewWriter(sink, exec)
		if _, err := w.Write(payload); err != nil {
			done <- err
			return
		}
		done <- w.Close()
	}()
	if n := sink.n.Load(); n != 0 {
		t.Fatalf("%d bytes reached the sink while no block could be compressed", n)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var serial bytes.Buffer
	writeAll(t, NewWriter(&serial, nil), payload)
	if !bytes.Equal(out.Bytes(), serial.Bytes()) {
		t.Fatal("Close returned before every block was written")
	}
}

// countingWriter counts what reaches w; n may be read while writes go on.
type countingWriter struct {
	w io.Writer
	n atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return c.w.Write(p)
}

// failAfter accepts limit bytes, then fails every write.
type failAfter struct {
	limit int
	err   error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.limit {
		return 0, f.err
	}
	f.limit -= len(p)
	return len(p), nil
}

// TestWriterSinkFailure: a failing sink's error comes back from Write or
// Close and sticks, with and without an executor.
func TestWriterSinkFailure(t *testing.T) {
	exec := dataflow.NewExecutor(2, 4)
	defer exec.Close()
	boom := errors.New("disk full")
	payload := mixedPayload(12 * MaxBlockSize)
	for _, e := range []*dataflow.Executor{nil, exec} {
		w := NewWriter(&failAfter{limit: 3 * MaxBlockSize, err: boom}, e)
		_, werr := w.Write(payload)
		cerr := w.Close()
		if !errors.Is(werr, boom) && !errors.Is(cerr, boom) {
			t.Fatalf("executor %v: Write %v, Close %v; want the sink's error", e != nil, werr, cerr)
		}
		if !errors.Is(cerr, boom) {
			t.Fatalf("executor %v: Close %v after a failed write; want the sink's error", e != nil, cerr)
		}
		if _, err := w.Write([]byte("x")); !errors.Is(err, boom) {
			t.Fatalf("executor %v: Write after the failure: %v", e != nil, err)
		}
	}
}

// TestWriterOnClosedExecutor: blocks that cannot be submitted fail the
// writer with the executor's error instead of being dropped.
func TestWriterOnClosedExecutor(t *testing.T) {
	exec := dataflow.NewExecutor(1, 1)
	exec.Close()
	var out bytes.Buffer
	w := NewWriter(&out, exec)
	if _, err := w.Write(mixedPayload(2 * MaxBlockSize)); !errors.Is(err, dataflow.ErrClosed) {
		t.Fatalf("Write on a closed executor: %v, want ErrClosed", err)
	}
	if err := w.Close(); !errors.Is(err, dataflow.ErrClosed) {
		t.Fatalf("Close: %v, want ErrClosed", err)
	}
	if out.Len() != 0 {
		t.Fatalf("%d bytes written by a writer whose blocks never compressed", out.Len())
	}
}

// TestCompatibleBothWays: blocks exactly as earlier releases wrote them read
// back the same, and compress/gzip reads this release's as one multi-member
// stream.
func TestCompatibleBothWays(t *testing.T) {
	for _, n := range []int{1, 1000, MaxBlockSize} {
		for name, payload := range blockPayloads(n) {
			earlier := append(RefCompressBlock(payload), EOFMarker...)
			got, err := io.ReadAll(NewReader(bytes.NewReader(earlier)))
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("%s/%d: a block of an earlier release reads back %d bytes, %v", name, n, len(got), err)
			}
			var buf bytes.Buffer
			writeAll(t, NewWriter(&buf, nil), payload)
			zr, err := gzip.NewReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := io.ReadAll(zr); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("%s/%d: compress/gzip reads %d bytes, %v", name, n, len(got), err)
			}
		}
	}
}

// twoBlocks is a stream of two data blocks and the EOF marker.
func twoBlocks(t testing.TB) (stream, payload []byte) {
	payload = blockPayloads(MaxBlockSize + 500)["text"]
	var buf bytes.Buffer
	writeAll(t, NewWriter(&buf, nil), payload)
	return buf.Bytes(), payload
}

// TestReaderReportsTruncationAndIOErrors: the reader used to end the stream
// cleanly on any error while looking for the next block, so a failing source
// or a file cut inside a header read as a shorter, valid BAM.
func TestReaderReportsTruncationAndIOErrors(t *testing.T) {
	stream, payload := twoBlocks(t)
	blocks := splitBlocks(t, stream)
	ends := map[int]int{0: 0} // offset of a block boundary → payload bytes before it
	off, done := 0, 0
	for _, b := range blocks {
		off += len(b)
		done += int(binary.LittleEndian.Uint32(b[len(b)-4:]))
		ends[off] = done
	}
	for cut := 0; cut <= len(stream); cut++ {
		got, err := io.ReadAll(NewReader(bytes.NewReader(stream[:cut])))
		if n, ok := ends[cut]; ok {
			if err != nil || !bytes.Equal(got, payload[:n]) {
				t.Fatalf("cut at block boundary %d: %d bytes, %v", cut, len(got), err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d, inside a block: %d bytes, error %v, want io.ErrUnexpectedEOF", cut, len(got), err)
		}
		if !bytes.HasPrefix(payload, got) {
			t.Fatalf("cut at %d: read bytes that are not the payload's", cut)
		}
	}

	// A source that fails, between blocks and inside one.
	boom := errors.New("disk on fire")
	for _, at := range []int{0, len(blocks[0]), len(blocks[0]) + 7, len(blocks[0]) + len(blocks[1])/2} {
		src := io.MultiReader(bytes.NewReader(stream[:at]), iotest.ErrReader(boom))
		if _, err := io.ReadAll(NewReader(src)); !errors.Is(err, boom) {
			t.Fatalf("source failing at %d: error %v, want the source's", at, err)
		}
	}
	// The error sticks.
	r := NewReader(io.MultiReader(bytes.NewReader(stream[:10]), iotest.ErrReader(boom)))
	for i := 0; i < 2; i++ {
		if _, err := r.Read(make([]byte, 1)); !errors.Is(err, boom) {
			t.Fatalf("read %d after a failure: %v", i, err)
		}
	}
}

// TestReaderChecksEveryBlock damages one field at a time of a valid block.
func TestReaderChecksEveryBlock(t *testing.T) {
	payload := blockPayloads(5000)["text"]
	block := compressBlock(nil, payload)
	put16 := func(b []byte, off int, v int) { binary.LittleEndian.PutUint16(b[off:], uint16(v)) }
	put32 := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
	cases := map[string]func(b []byte) []byte{
		"magic":                          func(b []byte) []byte { b[1] = 0x8c; return b },
		"method":                         func(b []byte) []byte { b[2] = 7; return b },
		"flags":                          func(b []byte) []byte { b[3] = 0; return b },
		"no BC subfield":                 func(b []byte) []byte { b[12] = 'X'; return b },
		"BC subfield of the wrong size":  func(b []byte) []byte { put16(b, 14, 3); return b },
		"subfield past the extra field":  func(b []byte) []byte { put16(b, 14, 9); b[12] = 'X'; return b },
		"BSIZE below header and trailer": func(b []byte) []byte { put16(b, 16, headerSize+trailerSize-2); return b },
		"BSIZE short of the block":       func(b []byte) []byte { put16(b, 16, len(b)-2); return b },
		"BSIZE past the block":           func(b []byte) []byte { put16(b, 16, len(b)); return b },
		"ISIZE above the stream's size":  func(b []byte) []byte { put32(b, len(b)-4, uint32(len(payload)+1)); return b },
		"ISIZE below the stream's size":  func(b []byte) []byte { put32(b, len(b)-4, uint32(len(payload)-1)); return b },
		"ISIZE beyond the format":        func(b []byte) []byte { put32(b, len(b)-4, 1<<30); return b },
		"CRC":                            func(b []byte) []byte { b[len(b)-8] ^= 1; return b },
		"deflate stream":                 func(b []byte) []byte { b[headerSize] |= 6; return b }, // block type 3
		"bytes after the deflate stream": func(b []byte) []byte {
			grown := append(bytes.Clone(b[:len(b)-trailerSize]), 0)
			grown = append(grown, b[len(b)-trailerSize:]...)
			put16(grown, 16, len(grown)-1)
			return grown
		},
	}
	for name, damage := range cases {
		bad := append(damage(bytes.Clone(block)), EOFMarker...)
		got, err := io.ReadAll(NewReader(bytes.NewReader(bad)))
		if err == nil {
			t.Errorf("%s: accepted, %d bytes out", name, len(got))
		} else if !strings.HasPrefix(err.Error(), "bgzf:") {
			t.Errorf("%s: error %q does not say bgzf", name, err)
		}
	}
	// The same block, undamaged, with extra subfields around BC.
	extra := []byte{'A', 'A', 1, 0, 9, 'B', 'C', 2, 0, 0, 0, 'Z', 'Z', 0, 0}
	body := block[headerSize:]
	good := append([]byte{0x1f, 0x8b, 8, 4, 0, 0, 0, 0, 0, 0xff, byte(len(extra)), 0}, extra...)
	good = append(good, body...)
	put16(good, 12+5+4, len(good)-1)
	got, err := io.ReadAll(NewReader(bytes.NewReader(good)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("BC among other subfields: %d bytes, %v", len(got), err)
	}
	if crc32.ChecksumIEEE(got) != binary.LittleEndian.Uint32(block[len(block)-8:]) {
		t.Fatal("trailer CRC is not the payload's")
	}
}

// FuzzBGZFReader feeds the reader arbitrary bytes: no panic, no block larger
// than the format allows, and whatever it reads to a clean end compress/gzip
// reads the same way as a multi-member stream.
func FuzzBGZFReader(f *testing.F) {
	stream, _ := twoBlocks(f)
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add(EOFMarker)
	f.Add(append(RefCompressBlock([]byte("from an earlier release")), EOFMarker...))
	flipped := bytes.Clone(stream)
	flipped[16] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b, 8, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		got, err := io.ReadAll(r)
		if cap(r.data) > maxPayload || cap(r.block) > 0x10000+0xffff {
			t.Fatalf("reader holds %d payload and %d block bytes", cap(r.data), cap(r.block))
		}
		if err != nil {
			return
		}
		zr, zerr := gzip.NewReader(bytes.NewReader(data))
		if len(data) == 0 {
			return // no blocks at all: empty for us, not a gzip stream
		}
		if zerr != nil {
			t.Fatalf("accepted a stream compress/gzip rejects: %v", zerr)
		}
		want, zerr := io.ReadAll(zr)
		if zerr != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d bytes; compress/gzip %d, %v", len(got), len(want), zerr)
		}
	})
}
