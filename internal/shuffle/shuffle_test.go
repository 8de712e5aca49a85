package shuffle

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"persona/internal/agd"
	"persona/internal/agdsort"
)

// summarize fabricates per-run summaries the way map tasks do: each run
// holds a sorted slice of keys and contributes SampleCount equi-spaced
// samples.
func summarize(runs [][]uint64) []RunSummary {
	out := make([]RunSummary, len(runs))
	for i, keys := range runs {
		s := RunSummary{Rows: len(keys)}
		if len(keys) > 0 {
			step := len(keys) / SampleCount
			if step < 1 {
				step = 1
			}
			for r := 0; r < len(keys); r += step {
				s.Samples = append(s.Samples, Sample{Key: keys[r]})
			}
		}
		out[i] = s
	}
	return out
}

// partition counts how population keys split across the splitters (equal
// keys go right of their cut, matching agdsort.CutRun).
func partition(keys []uint64, cuts Cuts, p int) []int64 {
	rows := make([]int64, p)
	for _, k := range keys {
		part := 0
		for _, sp := range cuts.Splitters {
			if k >= sp.Key {
				part++
			}
		}
		rows[part]++
	}
	return rows
}

// TestSelectCutsSkewProperty: over fixed-seed uniform, clustered and
// exponential-ish key populations split into runs, the chosen splitters
// must keep partition skew bounded whenever keys are distinct enough to
// allow balance.
func TestSelectCutsSkewProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() uint64{
		"uniform":   func() uint64 { return uint64(rng.Intn(1 << 30)) },
		"clustered": func() uint64 { return uint64(rng.Intn(64))*1e6 + uint64(rng.Intn(1000)) },
		"heavytail": func() uint64 { return uint64(rng.ExpFloat64() * 1e6) },
	}
	for name, draw := range distributions {
		for _, p := range []int{2, 3, 4, 8} {
			const n, nRuns = 8000, 5
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = draw()
			}
			runs := make([][]uint64, nRuns)
			for i, k := range keys {
				runs[i%nRuns] = append(runs[i%nRuns], k)
			}
			for _, r := range runs {
				sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
			}
			cuts, err := SelectCuts(summarize(runs), p, false)
			if err != nil {
				t.Fatalf("%s/p=%d: %v", name, p, err)
			}
			if len(cuts.Splitters) != p-1 {
				t.Fatalf("%s/p=%d: %d splitters", name, p, len(cuts.Splitters))
			}
			for i := 1; i < len(cuts.Splitters); i++ {
				if cuts.Splitters[i].Key < cuts.Splitters[i-1].Key {
					t.Fatalf("%s/p=%d: splitters not sorted", name, p)
				}
			}
			rows := partition(keys, cuts, p)
			var total int64
			for _, r := range rows {
				total += r
			}
			if total != n {
				t.Fatalf("%s/p=%d: partitions hold %d rows, want %d", name, p, total, n)
			}
			// Equi-depth sampling at 64 samples/run keeps the largest
			// partition within ~2x of the mean on these populations.
			if skew := Skew(rows); skew > 2.0 {
				t.Errorf("%s/p=%d: skew %.2f > 2.0 (rows %v)", name, p, skew, rows)
			}
		}
	}
}

// TestSelectCutsConstantKeys: indistinguishable keys collapse every
// splitter onto the same value — legal (all rows land right of the cuts),
// just maximally skewed.
func TestSelectCutsConstantKeys(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = 7
	}
	cuts, err := SelectCuts(summarize([][]uint64{keys}), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := partition(keys, cuts, 4)
	if rows[3] != 1000 {
		t.Errorf("constant keys should all land in the last partition, got %v", rows)
	}
	if skew := Skew(rows); skew != 4.0 {
		t.Errorf("skew = %v, want 4.0 (one partition holds everything)", skew)
	}
}

// TestSelectCutsHalo: halo width is 2*maxSpan+1 for marking pipelines and
// absent otherwise.
func TestSelectCutsHalo(t *testing.T) {
	sums := []RunSummary{{Rows: 10, Samples: []Sample{{Key: 5}}, MaxSpan: 40}}
	cuts, err := SelectCuts(sums, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if cuts.Halo != 81 {
		t.Errorf("Halo = %d, want 81", cuts.Halo)
	}
	cuts, err = SelectCuts(sums, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if cuts.Halo != 0 {
		t.Errorf("Halo = %d, want 0 without markdup", cuts.Halo)
	}
}

// TestSelectCutsErrors: zero partitions and empty sampling are rejected,
// and so is every summary no map task sends, as it arrives off the wire.
func TestSelectCutsErrors(t *testing.T) {
	if _, err := SelectCuts(nil, 0, false); err == nil {
		t.Error("p=0 did not error")
	}
	if _, err := SelectCuts([]RunSummary{{Rows: 0}}, 2, false); err == nil {
		t.Error("zero rows did not error")
	}
	sample := []Sample{{Key: 7}}
	for name, sum := range map[string]RunSummary{
		"rows without samples": {Rows: 5},
		"negative rows":        {Rows: -1, Samples: sample},
		"overflowing span":     {Rows: 1, Samples: sample, MaxSpan: math.MaxInt64/2 + 1},
	} {
		tok, err := Encode([]RunSummary{{Rows: 2, Samples: sample}, sum})
		if err != nil {
			t.Fatal(err)
		}
		var got []RunSummary
		if err := Decode(tok, &got); err != nil {
			t.Fatal(err)
		}
		if _, err := SelectCuts(got, 2, true); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// FuzzSelectCuts: an arbitrary token decoded as the map tasks' summaries
// ends in an error or in p-1 sorted splitters, never in a panic.
func FuzzSelectCuts(f *testing.F) {
	for _, sums := range [][]RunSummary{
		summarize([][]uint64{{1, 2, 3}, {2, 5, 9, 11}}),
		{{Rows: 5}},
		{{Rows: -4, Samples: []Sample{{Key: 1}}}},
		{{Rows: 1, Samples: []Sample{{Key: 1, Full: []byte("r/1")}}, MaxSpan: math.MaxInt64}},
	} {
		tok, err := Encode(sums)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tok, uint8(3), true)
	}
	f.Fuzz(func(t *testing.T, tok string, p uint8, halo bool) {
		var sums []RunSummary
		if Decode(tok, &sums) != nil {
			return
		}
		cuts, err := SelectCuts(sums, int(p), halo)
		if err != nil {
			return
		}
		if len(cuts.Splitters) != int(p)-1 {
			t.Fatalf("%d splitters for %d partitions", len(cuts.Splitters), p)
		}
		for i := 1; i < len(cuts.Splitters); i++ {
			a, b := cuts.Splitters[i-1], cuts.Splitters[i]
			if a.Key > b.Key || a.Key == b.Key && bytes.Compare(a.Full, b.Full) > 0 {
				t.Fatalf("splitters %d and %d out of order: %+v", i-1, i, cuts.Splitters)
			}
		}
		if (cuts.Halo > 0) != halo {
			t.Fatalf("halo %d for a pipeline that marks: %v", cuts.Halo, halo)
		}
	})
}

// TestEncodeDecodeRoundTrip: payloads survive the line protocol as single
// space-free tokens.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := RunSummary{Rows: 3, Samples: []Sample{{Key: 9, Full: []byte("read/1\x00x")}}, MaxSpan: 12}
	tok, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tok {
		if c == ' ' || c == '\n' {
			t.Fatalf("token contains whitespace: %q", tok)
		}
	}
	var out RunSummary
	if err := Decode(tok, &out); err != nil {
		t.Fatal(err)
	}
	if out.Rows != in.Rows || out.MaxSpan != in.MaxSpan || len(out.Samples) != 1 ||
		out.Samples[0].Key != 9 || string(out.Samples[0].Full) != "read/1\x00x" {
		t.Errorf("round trip mismatch: %+v", out)
	}
	if err := Decode("!!!not-base64!!!", &out); err == nil {
		t.Error("bad token did not error")
	}
}

// TestSkew covers the imbalance measure's edges.
func TestSkew(t *testing.T) {
	cases := []struct {
		rows []int64
		want float64
	}{
		{nil, 0},
		{[]int64{0, 0}, 0},
		{[]int64{10, 10}, 1.0},
		{[]int64{30, 10}, 1.5},
	}
	for _, c := range cases {
		if got := Skew(c.rows); got != c.want {
			t.Errorf("Skew(%v) = %v, want %v", c.rows, got, c.want)
		}
	}
}

// rowCopy is the row-by-row builder pieces and halos were packed with before
// they were sliced from the run: the reference their bytes must match.
func rowCopy(t *testing.T, n int, field func(r int) ([]byte, error)) *agd.Chunk {
	t.Helper()
	b := agd.NewChunkBuilder(agd.TypeRaw, 0)
	for r := 0; r < n; r++ {
		f, err := field(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Append(f)
	}
	return b.Chunk()
}

// TestBuildPieceMatchesRowCopy: a piece sliced from a decoded run and a halo
// sized up front encode to the same bytes as the row-by-row copies, for every
// range shape (empty, one row, interior, whole run), and slicing a piece
// copies no record bytes.
func TestBuildPieceMatchesRowCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := agd.NewChunkBuilder(agd.TypeRaw, 0)
	const rows = 300
	for r := 0; r < rows; r++ {
		var rec []byte
		for f := 0; f < 3; f++ {
			field := make([]byte, rng.Intn(40))
			rng.Read(field)
			rec = binary.AppendUvarint(rec, uint64(len(field)))
			rec = append(rec, field...)
		}
		b.Append(rec)
	}
	blob, err := agd.EncodeChunk(b.Chunk(), agd.CompressNone)
	if err != nil {
		t.Fatal(err)
	}
	run, err := agd.DecodeChunk(blob)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(c *agd.Chunk) string {
		enc, err := agd.EncodeChunk(c, agd.CompressNone)
		if err != nil {
			t.Fatal(err)
		}
		return string(enc)
	}
	for _, r := range [][2]int{{0, 0}, {17, 17}, {0, 1}, {5, 6}, {rows - 1, rows}, {40, 211}, {0, rows}} {
		lo, hi := r[0], r[1]
		piece, err := BuildPiece(run, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want := rowCopy(t, hi-lo, func(i int) ([]byte, error) { return run.Record(lo + i) })
		if encode(piece) != encode(want) {
			t.Errorf("piece [%d, %d) differs from the row-by-row copy", lo, hi)
		}
		halo, err := BuildHalo(run, 1, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want = rowCopy(t, hi-lo, func(i int) ([]byte, error) { return agdsort.RunField(run, 1, lo+i) })
		if encode(halo) != encode(want) {
			t.Errorf("halo [%d, %d) differs from the row-by-row copy", lo, hi)
		}
	}
	if _, err := BuildPiece(run, 10, rows+1); err == nil {
		t.Error("BuildPiece past the run's end: no error")
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = BuildPiece(run, 0, rows) }); allocs > 1 {
		t.Errorf("BuildPiece of the whole run: %.0f allocations, want the chunk header alone", allocs)
	}
}
