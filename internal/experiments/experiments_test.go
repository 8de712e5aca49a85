package experiments

import (
	"errors"
	"io"
	"strings"
	"testing"

	"persona/internal/agd"
)

// tinyScale keeps the experiment smoke tests fast while staying large
// enough that per-run constant overheads do not swamp the timing shapes.
func tinyScale() Scale {
	return Scale{GenomeSize: 200_000, NumReads: 2500, ReadLen: 80, ChunkSize: 250, DupFrac: 0.15, Seed: 3}
}

func TestTable1Simulated(t *testing.T) {
	rows, err := Table1Simulated(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestTable1Measured(t *testing.T) {
	res, err := RunTable1Measured(t.Context(), io.Discard, tinyScale(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The AGD write-amplification advantage must hold at any scale: the
	// standalone pipeline writes whole SAM rows, Persona writes only the
	// results column.
	if res.SNAPWriteBytes <= res.PersonaWriteBytes {
		t.Fatalf("SNAP wrote %d <= Persona %d", res.SNAPWriteBytes, res.PersonaWriteBytes)
	}
}

func TestTable2(t *testing.T) {
	res, err := RunTable2(t.Context(), io.Discard, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// Shape, on bytes moved rather than a sub-second clock: Picard reads SAM
	// text where samtools reads compressed BAM, and converting first is a
	// pass over both formats on top of the same sort.
	if res.PersonaIOBytes <= 0 || res.SamtoolsIOBytes <= 0 {
		t.Fatalf("I/O not accounted: %+v", res)
	}
	if res.PicardIOBytes <= res.SamtoolsIOBytes {
		t.Fatalf("picard moved %d bytes <= samtools %d", res.PicardIOBytes, res.SamtoolsIOBytes)
	}
	if res.SamtoolsConvIOBytes <= res.SamtoolsIOBytes {
		t.Fatalf("conversion+sort moved %d bytes <= sort alone %d", res.SamtoolsConvIOBytes, res.SamtoolsIOBytes)
	}
}

func TestDupmark(t *testing.T) {
	res, err := RunDupmark(t.Context(), io.Discard, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// §5.6's reason for the throughput ratio, on bytes rather than a clock:
	// Persona reads and rewrites the results column, the SAM marker every
	// field of every row.
	if res.PersonaIOBytes <= 0 || res.PersonaIOBytes >= res.SamblasterIOBytes {
		t.Fatalf("Persona moved %d bytes, SAM marker %d", res.PersonaIOBytes, res.SamblasterIOBytes)
	}
}

func TestConversion(t *testing.T) {
	res, err := RunConversion(t.Context(), io.Discard, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.ImportMBps <= 0 || res.BAMExportMBps <= 0 {
		t.Fatalf("bad throughputs: %+v", res)
	}
	// The rates are wall clock over a sub-second fixture and only printed;
	// what the two conversions must do is a matter of counts. Every read
	// goes in and comes out once, and the export deflates what the import
	// only compacts, so the BAM is smaller than the FASTQ.
	if want := uint64(tinyScale().NumReads); res.ImportedRecords != want || res.ExportedRecords != want {
		t.Fatalf("imported %d and exported %d of %d records", res.ImportedRecords, res.ExportedRecords, want)
	}
	if res.BAMBytes <= 0 || res.BAMBytes >= res.FASTQBytes {
		t.Fatalf("BAM out %d B, FASTQ in %d B", res.BAMBytes, res.FASTQBytes)
	}
}

func TestFigs(t *testing.T) {
	if _, err := RunFig5(io.Discard); err != nil {
		t.Fatal(err)
	}
	if pts := RunFig6(io.Discard); len(pts) != 48 {
		t.Fatalf("fig6 points = %d", len(pts))
	}
	if _, err := RunFig7(io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := RunTable3(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestFig8(t *testing.T) {
	res, err := RunFig8(t.Context(), io.Discard, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 4 {
		t.Fatalf("profiles = %d", len(res.Profiles))
	}
	for _, b := range res.Profiles {
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// The §6 claim must hold on real instrumented mixes.
	byName := map[string]int{}
	for i, b := range res.Profiles {
		byName[b.Name] = i
	}
	s := res.Profiles[byName["snap"]]
	b := res.Profiles[byName["bwa"]]
	if s.CoreBound <= s.MemoryBound {
		t.Fatalf("snap core %.3f <= memory %.3f", s.CoreBound, s.MemoryBound)
	}
	if b.MemoryBound <= b.CoreBound {
		t.Fatalf("bwa memory %.3f <= core %.3f", b.MemoryBound, b.CoreBound)
	}
}

func TestFig6Measured(t *testing.T) {
	pts, err := RunFig6Measured(t.Context(), io.Discard, tinyScale(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
}

func TestFig7Measured(t *testing.T) {
	pts, err := RunFig7Measured(t.Context(), io.Discard, tinyScale(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.BasesPerSec <= 0 {
			t.Fatalf("no throughput at %d nodes", p.Nodes)
		}
	}
}

func TestScaleString(t *testing.T) {
	if !strings.Contains(SmallScale().String(), "reads=") {
		t.Fatal("Scale.String uninformative")
	}
}

func TestAblations(t *testing.T) {
	sc := tinyScale()
	rows, err := RunChunkSizeAblation(t.Context(), io.Discard, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("chunk-size rows = %d", len(rows))
	}
	// Storage efficiency must improve (monotonically at these sizes) with
	// larger chunks.
	if rows[len(rows)-1].BytesPerRead >= rows[0].BytesPerRead {
		t.Fatalf("larger chunks did not compress better: %.1f vs %.1f B/read",
			rows[len(rows)-1].BytesPerRead, rows[0].BytesPerRead)
	}

	crows, err := RunCompressionAblation(t.Context(), io.Discard, sc)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CompressionRow{}
	for _, r := range crows {
		byName[r.Name] = r
	}
	// Compaction packs 101 bases into 41 bytes: ≥2x smaller than raw.
	if byName["compact"].Bytes*2 >= byName["raw"].Bytes {
		t.Fatalf("compaction too weak: %d vs raw %d", byName["compact"].Bytes, byName["raw"].Bytes)
	}
	// Block compression compounds compaction, and shrinks raw letters.
	for _, pair := range [][2]string{{"compact+gzip", "compact"}, {"compact+gzip", "raw"}, {"gzip", "raw"}} {
		if byName[pair[0]].Bytes >= byName[pair[1]].Bytes {
			t.Fatalf("%s (%d) not smaller than %s (%d)", pair[0], byName[pair[0]].Bytes, pair[1], byName[pair[1]].Bytes)
		}
	}
	// The deployed encoding, packed 2 bits a base and stored, must be no
	// larger than gzip of the raw letters: internal/deflate codes four
	// letters at 2.2 bits a base, and bytes that hold 3-bit codes at 2.6,
	// so compact+gzip is larger than both.
	packed, gz := byName["packed"].Bytes, byName["gzip"].Bytes
	t.Logf("packed %d bytes, gzip of raw letters %d (%.3fx), compact+gzip %d", packed, gz, float64(packed)/float64(gz), byName["compact+gzip"].Bytes)
	if packed == 0 || packed > gz {
		t.Fatalf("packed bases (%d bytes) larger than gzip of raw letters (%d)", packed, gz)
	}

	srows, err := RunSubchunkAblation(t.Context(), io.Discard, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(srows) != 4 {
		t.Fatalf("subchunk rows = %d", len(srows))
	}
}

// failResultsPut fails the Put of one results blob.
type failResultsPut struct {
	agd.BlobStore
	name string
}

func (s failResultsPut) Put(name string, data []byte) error {
	if name == s.name {
		return errors.New("injected put failure")
	}
	return s.BlobStore.Put(name, data)
}

// TestAlignSubchunksFailureLeavesNoResults: the subchunk ablation's align
// writes its results column through the one column ending, so a column write
// that fails part-way leaves no results blob and an unaligned manifest.
func TestAlignSubchunksFailureLeavesNoResults(t *testing.T) {
	sc := tinyScale()
	mem := agd.NewMemStore()
	f, err := sc.fixture(mem, "ds", false)
	if err != nil {
		t.Fatal(err)
	}
	store := failResultsPut{mem, f.Dataset.Manifest.ChunkBlobPath(3, agd.ColResults)}
	if err := alignSubchunks(t.Context(), agd.OpenManifest(store, f.Dataset.Manifest), f.Index, 2); err == nil {
		t.Fatal("the align succeeded over a failing results Put")
	}
	names, err := mem.List("ds/")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, "."+agd.ColResults) {
			t.Fatalf("results blob %q left behind", name)
		}
	}
	ds, err := agd.Open(mem, "ds")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Manifest.HasColumn(agd.ColResults) {
		t.Fatal("the manifest lists a results column")
	}
}
