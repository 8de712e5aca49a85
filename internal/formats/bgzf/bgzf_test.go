package bgzf

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, nil)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundTripSmall(t *testing.T) {
	payload := []byte("hello bgzf world")
	if got := roundTrip(t, payload); !bytes.Equal(got, payload) {
		t.Fatalf("got %q, want %q", got, payload)
	}
}

func TestRoundTripMultiBlock(t *testing.T) {
	// > MaxBlockSize forces multiple blocks.
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 3*MaxBlockSize+12345)
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	if got := roundTrip(t, payload); !bytes.Equal(got, payload) {
		t.Fatal("multi-block payload corrupted")
	}
}

func TestRoundTripEmpty(t *testing.T) {
	if got := roundTrip(t, nil); len(got) != 0 {
		t.Fatalf("empty payload round-tripped to %d bytes", len(got))
	}
}

func TestEOFMarkerPresent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, nil)
	w.Write([]byte("data"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(buf.Bytes(), EOFMarker) {
		t.Fatal("output does not end with the BGZF EOF marker")
	}
}

func TestBlocksCarryBSIZE(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, nil)
	w.Write(bytes.Repeat([]byte("x"), 100))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// First block: gzip magic, FLG has FEXTRA, subfield BC.
	if b[0] != 0x1f || b[1] != 0x8b {
		t.Fatal("not gzip")
	}
	if b[3]&0x04 == 0 {
		t.Fatal("FEXTRA not set")
	}
	if b[12] != 'B' || b[13] != 'C' {
		t.Fatalf("extra subfield = %c%c, want BC", b[12], b[13])
	}
	bsize := int(b[16]) | int(b[17])<<8
	// BSIZE+1 is the full block length; the next block (EOF marker) starts
	// there.
	if bsize+1 <= 0 || bsize+1 >= len(b) {
		t.Fatalf("BSIZE = %d, blob = %d bytes", bsize, len(b))
	}
	if !bytes.Equal(b[bsize+1:], EOFMarker) {
		t.Fatal("BSIZE does not point at the EOF marker")
	}
}

func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("Write after Close succeeded")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf, nil)
		if _, err := w.Write(payload); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		got, err := io.ReadAll(NewReader(&buf))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
