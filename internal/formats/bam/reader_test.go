package bam_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"persona"
	"persona/internal/agd"
	"persona/internal/formats/bam"
	"persona/internal/formats/bgzf"
	"persona/internal/formats/sam"
	"persona/internal/testutil"
)

// bgzfOf wraps payload in valid BGZF blocks, so that every byte of it
// reaches the BAM parser.
func bgzfOf(t testing.TB, payload []byte) []byte {
	var z bytes.Buffer
	w := bgzf.NewWriter(&z, nil)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

// fusedBAMPayload is the uncompressed BAM a fused Read→Sort→MarkDup→
// ExportBAM pipeline writes for a small aligned fixture.
func fusedBAMPayload(t testing.TB) []byte {
	store := agd.NewMemStore()
	testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 60_000, NumReads: 40, ReadLen: 60, ChunkSize: 20, DupFrac: 0.2, Seed: 117,
	})
	sess := persona.NewSession(store, persona.SessionOptions{})
	defer sess.Close()
	var out bytes.Buffer
	if _, err := sess.Read("ds").Sort(persona.ByLocation).MarkDuplicates().ExportBAM(&out).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(bgzf.NewReader(&out))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// oversized are BAM headers whose next length field claims 4 GiB the stream
// does not hold: l_text, n_ref, l_name and, after an empty header,
// block_size.
func oversized() []struct {
	field   string
	payload []byte
} {
	le := binary.LittleEndian
	hdr := func(fields ...uint32) []byte {
		b := []byte("BAM\x01")
		for _, f := range fields {
			b = le.AppendUint32(b, f)
		}
		return b
	}
	const huge = 0xffffffff
	return []struct {
		field   string
		payload []byte
	}{
		{"l_text", hdr(huge)},
		{"n_ref", hdr(0, huge)},
		{"l_name", hdr(0, 1, huge)},
		{"block_size", hdr(0, 0, huge)},
	}
}

// zeroLengthCigarOp is a one-reference header and one record whose CIGAR is
// a single op of length 0: "0M" does not parse as CIGAR text, so the reader
// must refuse the record rather than hand the writer a CIGAR it rejects.
func zeroLengthCigarOp() []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte("BAM\x01"), 0)         // l_text
	b = le.AppendUint32(b, 1)                          // n_ref
	b = le.AppendUint32(b, 5)                          // l_name
	b = le.AppendUint32(append(b, "chr1\x00"...), 100) // l_ref
	rec := le.AppendUint32(nil, 0)                     // refID
	rec = le.AppendUint32(rec, 9)                      // pos
	rec = le.AppendUint32(rec, 2)                      // l_read_name, mapq 0, bin 0
	rec = le.AppendUint32(rec, 1)                      // n_cigar_op 1, flag 0
	rec = le.AppendUint32(rec, 1)                      // l_seq
	rec = le.AppendUint32(rec, 0xffffffff)             // next refID
	rec = le.AppendUint32(rec, 0xffffffff)             // next pos
	rec = le.AppendUint32(rec, 0)                      // tlen
	rec = append(rec, "r\x00"...)
	rec = le.AppendUint32(rec, 0) // 0M
	rec = append(rec, 0x10, 30)   // seq "A", qual
	return append(le.AppendUint32(b, uint32(len(rec))), rec...)
}

// scanAll reads every record of a BAM stream.
func scanAll(z []byte) (*bam.Reader, []sam.Record, error) {
	r, err := bam.NewReader(bytes.NewReader(z))
	if err != nil {
		return nil, nil, err
	}
	var recs []sam.Record
	for r.Scan() {
		recs = append(recs, r.Record())
	}
	return r, recs, r.Err()
}

// TestReaderRejectsOversizedLengths: a length field claiming more than the
// stream holds fails as a short stream, without allocating what it claims.
func TestReaderRejectsOversizedLengths(t *testing.T) {
	for _, tc := range oversized() {
		t.Run(tc.field, func(t *testing.T) {
			z := bgzfOf(t, tc.payload)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := scanAll(z)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Fatalf("reading %d bytes allocated %d", len(tc.payload), alloc)
			}
		})
	}
}

// FuzzBAMReader feeds arbitrary bytes to the BAM parser behind valid BGZF
// framing. No input panics; what the reader allocates is bounded by the
// input's size; and every record it accepts, written back through
// Writer.Write and read again, is the record it read.
func FuzzBAMReader(f *testing.F) {
	f.Add(fusedBAMPayload(f))
	for _, tc := range oversized() {
		f.Add(tc.payload)
	}
	f.Add(zeroLengthCigarOp())
	f.Fuzz(func(t *testing.T, payload []byte) {
		z := bgzfOf(t, payload)
		// A record takes at least 36 bytes of the stream and its strings
		// under 32 bytes of memory for each byte it takes; the constant
		// covers the BGZF and bufio buffers.
		limit := 2<<20 + 32*uint64(len(payload))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if r, err := bam.NewReader(bytes.NewReader(z)); err == nil {
			for r.Scan() {
			}
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
			t.Fatalf("reading %d bytes allocated %d", len(payload), alloc)
		}

		r, recs, err := scanAll(z)
		if r == nil {
			return
		}
		var out bytes.Buffer
		w, err2 := bam.NewWriter(bgzf.NewWriter(&out, nil), r.Refs(), "")
		if err2 != nil {
			t.Fatal(err2)
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatalf("record %d %+v read, not written: %v", i, recs[i], err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, again, err2 := scanAll(out.Bytes())
		if err2 != nil {
			t.Fatalf("rewritten stream (first read stopped at %v): %v", err, err2)
		}
		if len(again) != len(recs) {
			t.Fatalf("rewritten stream holds %d records, %d were read", len(again), len(recs))
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("record %d:\nread      %+v\nrewritten %+v", i, recs[i], again[i])
			}
		}
	})
}
