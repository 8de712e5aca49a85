package bam

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"persona/internal/agd"
	"persona/internal/align"
	"persona/internal/formats/sam"
)

// refEncodeRecord is the record encoder the append-based writeRecord
// replaced — a bytes.Buffer, a byte at a time, the nibble code from a switch
// — kept as the reference for the bytes a record must come out as, its
// block_size prefix included.
func refEncodeRecord(refID int32, pos int64, nextRefID int32, pnext int64, mapq uint8, flags uint16, tlen int32, name []byte, cigar align.Cigar, seq, qual []byte) []byte {
	nibble := func(b byte) byte {
		switch b {
		case 'A', 'a':
			return 1
		case 'C', 'c':
			return 2
		case 'G', 'g':
			return 4
		case 'T', 't':
			return 8
		default:
			return 15 // N
		}
	}
	var buf bytes.Buffer
	put32 := func(v uint32) {
		var n4 [4]byte
		binary.LittleEndian.PutUint32(n4[:], v)
		buf.Write(n4[:])
	}
	put32(uint32(refID))
	put32(uint32(int32(pos)))
	put32(uint32(len(name)+1) | uint32(mapq)<<8)
	put32(uint32(len(cigar)) | uint32(flags)<<16)
	put32(uint32(len(seq)))
	put32(uint32(nextRefID))
	put32(uint32(int32(pnext)))
	put32(uint32(tlen))
	buf.Write(name)
	buf.WriteByte(0)
	for _, e := range cigar {
		put32(uint32(e.Len)<<4 | uint32(e.Op.BAMCode()))
	}
	for i := 0; i < len(seq); i += 2 {
		b := nibble(seq[i]) << 4
		if i+1 < len(seq) {
			b |= nibble(seq[i+1])
		}
		buf.WriteByte(b)
	}
	for i := 0; i < len(qual); i++ {
		buf.WriteByte(qual[i] - '!')
	}
	return append(binary.LittleEndian.AppendUint32(nil, uint32(buf.Len())), buf.Bytes()...)
}

// rawBlocks is a blockWriter that keeps the uncompressed stream and counts
// the writes it took.
type rawBlocks struct {
	bytes.Buffer
	writes int
}

func (r *rawBlocks) Write(p []byte) (int, error) { r.writes++; return r.Buffer.Write(p) }
func (*rawBlocks) Close() error                  { return nil }

// TestEncoderMatchesReference generates records over the shapes the encoder
// branches on — odd, even and zero l_seq, empty names, unmapped reads, mates
// on the same and on another reference, multi-op CIGARs, lower-case,
// ambiguous and junk bases — and requires Write and WriteView to emit,
// in one write per record, exactly the reference encoder's bytes.
func TestEncoderMatchesReference(t *testing.T) {
	refmap := sam.NewRefMap(testRefs)
	offsets := map[string]int64{"chr1": 0, "chr2": testRefs[0].Length}
	ids := map[string]int32{"chr1": 0, "chr2": 1}
	rng := rand.New(rand.NewSource(14))
	pick := func(alphabet string, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}
	for i := 0; i < 400; i++ {
		name := pick("abcXYZ019.:/", rng.Intn(24)*rng.Intn(2))
		seq := pick([]string{"ACGT", "ACGTNacgtn", "ACGTNacgtnRYK.*=-\x00\xff"}[rng.Intn(3)], []int{0, 1, 2, 7, 100, 101, 150}[rng.Intn(7)])
		qual := pick("!\"#5?IJ~", len(seq))
		rec := sam.Record{Name: string(name), Ref: "*", Cigar: "*", RNext: "*", Seq: string(seq), Qual: string(qual),
			MapQ: uint8(rng.Intn(256)), TLen: int32(rng.Intn(2001) - 1000)}
		view := agd.ResultView{Location: -1, MateLocation: -1, MapQ: rec.MapQ, TemplateLen: rec.TLen}
		refID, pos, nextRefID, pnext := int32(-1), int64(-1), int32(-1), int64(-1)
		var cigar align.Cigar
		if rng.Intn(4) > 0 { // mapped
			rec.Ref = []string{"chr1", "chr2"}[rng.Intn(2)]
			pos = rng.Int63n(500)
			rec.Pos, refID = pos+1, ids[rec.Ref]
			rec.Cigar = []string{"101M", "3S40M2I10M1D46M", "1M", "10M5N10M2H"}[rng.Intn(4)]
			cigar, _ = align.ParseCigar(rec.Cigar)
			view.Location, view.Cigar = offsets[rec.Ref]+pos, []byte(rec.Cigar)
			if rng.Intn(2) > 0 {
				rec.Flags |= agd.FlagReverse
			}
		} else {
			rec.Flags |= agd.FlagUnmapped
		}
		if rng.Intn(2) > 0 { // paired, mate mapped
			mateRef := []string{"chr1", "chr2"}[rng.Intn(2)]
			pnext = rng.Int63n(500)
			rec.Flags |= agd.FlagPaired
			rec.RNext, rec.PNext, nextRefID = mateRef, pnext+1, ids[mateRef]
			if mateRef == rec.Ref && rng.Intn(2) > 0 {
				rec.RNext = "="
			}
			view.MateLocation = offsets[mateRef] + pnext
		}
		view.Flags = rec.Flags
		want := refEncodeRecord(refID, pos, nextRefID, pnext, rec.MapQ, rec.Flags, rec.TLen, name, cigar, seq, qual)

		for _, path := range []string{"Write", "WriteView"} {
			out := &rawBlocks{}
			w, err := newWriter(out, testRefs, "")
			if err != nil {
				t.Fatal(err)
			}
			out.Reset()
			out.writes = 0
			if path == "Write" {
				err = w.Write(&rec)
			} else {
				err = w.WriteView(name, seq, qual, &view, refmap)
			}
			if err != nil {
				t.Fatalf("record %d %s: %v", i, path, err)
			}
			if !bytes.Equal(out.Bytes(), want) || out.writes != 1 {
				t.Fatalf("record %d %s (%+v): %d writes\n got  %x\n want %x", i, path, rec, out.writes, out.Bytes(), want)
			}
		}
	}
}

// TestWriteViewAllocations: rendering and emitting a record allocates
// nothing once the writer's buffers are warm — in particular the block_size
// prefix no longer escapes through the blockWriter interface.
func TestWriteViewAllocations(t *testing.T) {
	refmap := sam.NewRefMap(testRefs)
	w, err := newWriter(discardBlocks{}, testRefs, "coordinate")
	if err != nil {
		t.Fatal(err)
	}
	name := []byte("sim.12345")
	seq := bytes.Repeat([]byte("ACGTN"), 20)
	qual := bytes.Repeat([]byte("I"), 100)
	v := agd.ResultView{Location: 1200, MateLocation: 90, MapQ: 60, Flags: agd.FlagPaired, Cigar: []byte("60M2I38M")}
	write := func() {
		if err := w.WriteView(name, seq, qual, &v, refmap); err != nil {
			t.Fatal(err)
		}
	}
	write() // size the record and CIGAR scratch
	if allocs := testing.AllocsPerRun(200, write); allocs != 0 {
		t.Errorf("WriteView: %v allocs/op, want 0", allocs)
	}
}

type discardBlocks struct{}

func (discardBlocks) Write(p []byte) (int, error) { return len(p), nil }
func (discardBlocks) Close() error                { return nil }
