package baseline

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/formats/bam"
	"persona/internal/formats/bgzf"
	"persona/internal/formats/fastq"
	"persona/internal/formats/sam"
	"persona/internal/genome"
	"persona/internal/reads"
)

// fixture builds a genome, index, simulated reads and their FASTQ text.
func fixture(t *testing.T, genomeSize, numReads, readLen int, seed int64) (*snap.Index, []agd.RefSeq, []reads.Read, string) {
	t.Helper()
	g, err := genome.Synthesize(genome.DefaultSyntheticConfig(genomeSize, seed))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := snap.BuildIndex(g, snap.IndexConfig{SeedLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := reads.NewSimulator(g, reads.SimConfig{Seed: seed + 1, N: numReads, ReadLen: readLen, ErrorRate: 0.003})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := sim.All()
	var buf bytes.Buffer
	w := fastq.NewWriter(&buf)
	for i := range rs {
		if err := w.Write(&rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return idx, agd.RefSeqsFromGenome(g), rs, buf.String()
}

func TestStandaloneAlignerProducesSAM(t *testing.T) {
	idx, refs, rs, fq := fixture(t, 100_000, 300, 80, 71)
	var out bytes.Buffer
	stats, err := RunStandaloneAligner(idx, refs, strings.NewReader(fq), &out, StandaloneConfig{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reads != int64(len(rs)) {
		t.Fatalf("processed %d reads, want %d", stats.Reads, len(rs))
	}
	if float64(stats.Aligned)/float64(stats.Reads) < 0.9 {
		t.Fatalf("aligned fraction too low: %+v", stats)
	}
	sc := sam.NewScanner(&out)
	n := 0
	for sc.Scan() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(rs) {
		t.Fatalf("SAM has %d records, want %d", n, len(rs))
	}
}

func TestStandaloneAlignerGzipInput(t *testing.T) {
	idx, refs, rs, fq := fixture(t, 60_000, 100, 70, 72)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write([]byte(fq)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cr := &CountingReader{R: &gz}
	cw := &CountingWriter{W: &out}
	stats, err := RunStandaloneAligner(idx, refs, cr, cw, StandaloneConfig{Threads: 2, Gzipped: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reads != int64(len(rs)) {
		t.Fatalf("reads = %d", stats.Reads)
	}
	if cr.N == 0 || cw.N == 0 {
		t.Fatal("byte counters not counting")
	}
	// SAM text out is much larger than gzipped FASTQ in — the write
	// amplification Table 1 quantifies.
	if cw.N < cr.N {
		t.Fatalf("expected SAM out (%d B) > gz FASTQ in (%d B)", cw.N, cr.N)
	}
}

// alignedSAM produces SAM text of aligned reads for the sort/dup baselines.
func alignedSAM(t *testing.T, idx *snap.Index, refs []agd.RefSeq, fq string) string {
	t.Helper()
	var out bytes.Buffer
	if _, err := RunStandaloneAligner(idx, refs, strings.NewReader(fq), &out, StandaloneConfig{Threads: 2}); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestSamtoolsSortBAM(t *testing.T) {
	idx, refs, rs, fq := fixture(t, 80_000, 200, 70, 73)
	samText := alignedSAM(t, idx, refs, fq)

	var bamBuf bytes.Buffer
	n, err := ConvertSAMToBAM(strings.NewReader(samText), &bamBuf, refs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rs) {
		t.Fatalf("converted %d records, want %d", n, len(rs))
	}

	var sorted bytes.Buffer
	n, err = SamtoolsSortBAM(&bamBuf, &sorted)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rs) {
		t.Fatalf("sorted %d records", n)
	}

	r, err := bam.NewReader(&sorted)
	if err != nil {
		t.Fatal(err)
	}
	idxOf := refIndex(r.Refs())
	lastRef, lastPos := -1, int64(-1)
	count := 0
	for r.Scan() {
		rec := r.Record()
		count++
		if rec.Ref == "*" {
			continue
		}
		ri := idxOf[rec.Ref]
		if ri < lastRef || (ri == lastRef && rec.Pos < lastPos) {
			t.Fatalf("order violated at %s:%d after ref %d pos %d", rec.Ref, rec.Pos, lastRef, lastPos)
		}
		lastRef, lastPos = ri, rec.Pos
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if count != len(rs) {
		t.Fatalf("read back %d records", count)
	}
}

func TestPicardSortSAM(t *testing.T) {
	idx, refs, rs, fq := fixture(t, 80_000, 150, 70, 74)
	samText := alignedSAM(t, idx, refs, fq)
	var sorted bytes.Buffer
	n, err := PicardSortSAM(strings.NewReader(samText), &sorted, refs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rs) {
		t.Fatalf("sorted %d records", n)
	}
	br, err := bam.NewReader(&sorted)
	if err != nil {
		t.Fatal(err)
	}
	idxOf := refIndex(refs)
	lastRef, lastPos := -1, int64(-1)
	for br.Scan() {
		rec := br.Record()
		if rec.Ref == "*" {
			continue
		}
		ri := idxOf[rec.Ref]
		if ri < lastRef || (ri == lastRef && rec.Pos < lastPos) {
			t.Fatal("picard sort order violated")
		}
		lastRef, lastPos = ri, rec.Pos
	}
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestJVMDeflaterBlocks: the Picard stand-in's BGZF stream reads back through
// bgzf.Reader and compress/gzip, ends with the EOF marker, and is smaller
// than the product writer's for the same bytes — it compresses at the
// default level, not the fastest.
func TestJVMDeflaterBlocks(t *testing.T) {
	payload := []byte(strings.Repeat("read.77/1\tchr1\t12345\t60\t101M\tACGTTGCAACGGT\tIIIIHHHGG#FF\n", 4000))
	var jvm, fast bytes.Buffer
	for _, w := range []io.WriteCloser{&jvmDeflater{w: &jvm}, bgzf.NewWriter(&fast, nil)} {
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.HasSuffix(jvm.Bytes(), bgzf.EOFMarker) {
		t.Fatal("stream does not end with the BGZF EOF marker")
	}
	got, err := io.ReadAll(bgzf.NewReader(bytes.NewReader(jvm.Bytes())))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("bgzf.Reader reads back %d bytes, %v", len(got), err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(jvm.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(zr); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("compress/gzip reads back %d bytes, %v", len(got), err)
	}
	if jvm.Len() >= fast.Len() {
		t.Fatalf("default-level stream is %d bytes, the fastest level's %d", jvm.Len(), fast.Len())
	}
}

func TestSamblasterMark(t *testing.T) {
	idx, refs, _, fq := fixture(t, 80_000, 200, 70, 75)
	samText := alignedSAM(t, idx, refs, fq)
	// Duplicate the SAM body once to guarantee duplicates: every record
	// appears twice.
	sc := sam.NewScanner(strings.NewReader(samText))
	var recs []sam.Record
	for sc.Scan() {
		recs = append(recs, sc.Record())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var doubled bytes.Buffer
	w, err := sam.NewWriter(&doubled, refs, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range recs {
		cp := recs[i]
		cp.Name += ".dup"
		if err := w.Write(&cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	stats, err := SamblasterMark(&doubled, &out, refs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reads != int64(2*len(recs)) {
		t.Fatalf("reads = %d", stats.Reads)
	}
	mappedOnce := 0
	for i := range recs {
		if recs[i].Flags&agd.FlagUnmapped == 0 {
			mappedOnce++
		}
	}
	if stats.Duplicates < int64(mappedOnce) {
		t.Fatalf("duplicates = %d, want >= %d (every mapped record recurs)", stats.Duplicates, mappedOnce)
	}
	// Output must carry the flags.
	sc = sam.NewScanner(&out)
	flagged := int64(0)
	for sc.Scan() {
		if sc.Record().Flags&agd.FlagDuplicate != 0 {
			flagged++
		}
	}
	if flagged != stats.Duplicates {
		t.Fatalf("output carries %d duplicate flags, stats say %d", flagged, stats.Duplicates)
	}
}
