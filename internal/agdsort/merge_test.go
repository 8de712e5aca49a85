package agdsort

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"testing"

	"persona/internal/agd"
	"persona/internal/testutil"
)

// mergeFixtures are the key distributions a merge has to get right: aligned
// reads with a fifth of them duplicates, and read IDs that all share one
// 8-byte prefix with three distinct values between them, so most sampled
// splitters are equal and most key ranges empty.
var mergeFixtures = map[string]func(t testing.TB) *agd.Dataset{
	"reads": func(t testing.TB) *agd.Dataset {
		return testutil.Build(t, agd.NewMemStore(), "ds", testutil.Config{
			GenomeSize: 120_000, NumReads: 700, ReadLen: 70, ChunkSize: 64, Seed: 57, DupFrac: 0.2,
		}).Dataset
	},
	"skewed shared prefix": func(t testing.TB) *agd.Dataset {
		store := agd.NewMemStore()
		rows := make([][][]byte, 61)
		for i := range rows {
			res := agd.Result{Location: int64(7 * (i % 3))}
			rows[i] = [][]byte{[]byte(fmt.Sprintf("sharedprefix-%d", i%3)), agd.EncodeResult(nil, &res)}
		}
		m, err := testutil.WriteRows(store, "ds", agd.StreamMeta{Columns: []string{agd.ColMetadata, agd.ColResults}, ChunkSize: 7}, rows)
		if err != nil {
			t.Fatal(err)
		}
		return agd.OpenManifest(store, m)
	},
}

// buildRuns sorts ds into one run per perRun input chunks (BuildRun, the
// distributed map's run) and returns the runs as fetched back from the store, with
// every run's samples pooled.
func buildRuns(t testing.TB, ds *agd.Dataset, by Key, perRun int) ([]*agd.Chunk, []RunSample) {
	t.Helper()
	ctx := context.Background()
	var names []string
	var samples []RunSample
	for start := 0; start < len(ds.Manifest.Chunks); start += perRun {
		in, err := ds.Groups(agd.StreamOptions{Start: start, End: start + perRun})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("runs/%s-%d", by, start)
		info, err := BuildRun(ctx, ds.Store(), in, name, by, 8, nil)
		in.Close()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		samples = append(samples, info.Samples...)
	}
	runs, _, err := FetchRuns(ctx, ds.Store(), names)
	if err != nil {
		t.Fatal(err)
	}
	return runs, samples
}

// drain returns every row a merger yields, fields joined.
func drain(m *RunMerger) ([]string, error) {
	var rows []string
	for {
		fields, ok, err := m.Next()
		if err != nil || !ok {
			return rows, err
		}
		rows = append(rows, string(bytes.Join(fields, []byte{0})))
	}
}

// drainStream is drain over a MergeStream: every row of every group.
func drainStream(s *agd.GroupStream) ([]string, error) {
	defer s.Close()
	var rows []string
	fields := make([][]byte, len(s.Meta.Columns))
	for {
		g, err := s.Next(context.Background())
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		for r := 0; r < g.NumRecords(); r++ {
			for c, chunk := range g.Chunks {
				if fields[c], err = chunk.Record(r); err != nil {
					return rows, err
				}
			}
			rows = append(rows, string(bytes.Join(fields, []byte{0})))
		}
		g.Release()
	}
}

// fragment copies rows [lo, hi) of a run into a chunk of its own, the way the
// shuffle's map side cuts a run into per-partition pieces.
func fragment(t testing.TB, run *agd.Chunk, lo, hi int) *agd.Chunk {
	t.Helper()
	b := agd.NewChunkBuilder(agd.TypeRaw, 0)
	for r := lo; r < hi; r++ {
		rec, err := run.Record(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Append(rec)
	}
	return b.Chunk()
}

// TestCutRunPartitionMerge is the property the distributed sort rests on:
// cut every run at the same splitters, merge each key range on its own, and
// the concatenation is the single merge — row for row, ties included — even
// when most keys are equal, agree on their packed prefix, or leave most
// partitions empty.
func TestCutRunPartitionMerge(t *testing.T) {
	for kind, fixture := range mergeFixtures {
		for _, by := range []Key{ByLocation, ByMetadata} {
			t.Run(kind+"/"+by.String(), func(t *testing.T) {
				ds := fixture(t)
				cols := len(ds.Manifest.Columns)
				keyCol := keyColumn(ds.Manifest.Columns, by)
				runs, samples := buildRuns(t, ds, by, 3)
				whole, err := NewRunMerger(runs, cols, keyCol, by)
				if err != nil {
					t.Fatal(err)
				}
				want, err := drain(whole)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) != int(ds.NumRecords()) {
					t.Fatalf("single merge yields %d rows, dataset has %d", len(want), ds.NumRecords())
				}
				slices.SortFunc(samples, func(a, b RunSample) int {
					if a.Key != b.Key {
						if a.Key < b.Key {
							return -1
						}
						return 1
					}
					return bytes.Compare(a.Full, b.Full)
				})
				for _, parts := range []int{2, 3, 8} {
					lo := make([]int, len(runs))
					var got []string
					for j := 1; j <= parts; j++ {
						pieces := make([]*agd.Chunk, len(runs))
						for r, run := range runs {
							hi := run.NumRecords()
							if j < parts {
								hi = CutRun(run, keyCol, by, samples[j*len(samples)/parts])
							}
							if hi < lo[r] {
								t.Fatalf("parts=%d: cuts of run %d go backwards (%d after %d)", parts, r, hi, lo[r])
							}
							pieces[r] = fragment(t, run, lo[r], hi)
							lo[r] = hi
						}
						m, err := NewRunMerger(pieces, cols, keyCol, by)
						if err != nil {
							t.Fatal(err)
						}
						rows, err := drain(m)
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, rows...)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("parts=%d: concatenated partition merges differ from the single merge", parts)
					}
				}
			})
		}
	}
}

// FuzzRunMerger feeds the run parser bytes as a store would hand them back:
// a run blob that decodes but is corrupt inside must fail (or merge garbage)
// without panicking RunMerger or CutRun, and one that is a sorted run must
// merge with a second run into exactly the stable order of their rows.
func FuzzRunMerger(f *testing.F) {
	ds := mergeFixtures["skewed shared prefix"](f)
	cols := len(ds.Manifest.Columns)
	others := map[Key]*agd.Chunk{}
	for _, by := range []Key{ByLocation, ByMetadata} {
		// A few rows a run: the fuzzer minimises what it finds byte by byte.
		runs, _ := buildRuns(f, ds, by, 5)
		others[by] = fragment(f, runs[1], 0, 8)
		blob, err := agd.EncodeChunk(fragment(f, runs[0], 0, 8), agd.CompressNone)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob, by == ByMetadata)
		for _, at := range []int{len(blob) / 3, len(blob) / 2, len(blob) - 20} {
			bad := slices.Clone(blob)
			bad[at] ^= 0x55
			f.Add(bad, by == ByMetadata)
		}
		// A record whose field length runs past its end.
		b := agd.NewChunkBuilder(agd.TypeRaw, 0)
		b.Append([]byte{200, 'x'})
		short, err := agd.EncodeChunk(b.Chunk(), agd.CompressNone)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(short, by == ByMetadata)
	}
	f.Fuzz(func(t *testing.T, blob []byte, byMeta bool) {
		by := ByLocation
		if byMeta {
			by = ByMetadata
		}
		run, err := agd.DecodeChunk(blob)
		if err != nil {
			return
		}
		keyCol := keyColumn(ds.Manifest.Columns, by)
		other := others[by]
		CutRun(run, keyCol, by, RunSample{Key: 1 << 40, Full: []byte("sharedpr")})

		// The oracle: every row of both runs by (packed key, full key, run).
		type row struct {
			key  uint64
			full []byte
			text string
		}
		var want []row
		sorted := true
		for ord, c := range []*agd.Chunk{run, other} {
			it := &superIter{chunk: c, keyCol: keyCol, by: by, ord: ord, fields: make([][]byte, cols)}
			for {
				more, err := it.advance()
				if err != nil {
					sorted = false
				}
				if err != nil || !more {
					break
				}
				r := row{key: it.key, text: string(bytes.Join(it.fields, []byte{0}))}
				if by == ByMetadata {
					r.full = it.keyBytes
				}
				if n := len(want); ord == 0 && n > 0 && (want[n-1].key > r.key || want[n-1].key == r.key && bytes.Compare(want[n-1].full, r.full) > 0) {
					sorted = false
				}
				want = append(want, r)
			}
		}
		m, err := NewRunMerger([]*agd.Chunk{run, other}, cols, keyCol, by)
		if err != nil {
			return
		}
		got, err := drain(m)
		// The same merge as a group stream, serial and pooled by turns: the
		// rows Next yields, or an error where Next has one.
		again, _ := NewRunMerger([]*agd.Chunk{run, other}, cols, keyCol, by)
		meta := agd.StreamMeta{Columns: ds.Manifest.Columns, NumRecords: uint64(run.NumRecords() + other.NumRecords()), ChunkSize: 3}
		streamed, serr := drainStream(MergeStream(again, meta, 2*(len(blob)%2)))
		if (serr == nil) != (err == nil) || err == nil && !slices.Equal(streamed, got) {
			t.Fatalf("MergeStream yields %d rows (error %v), RunMerger.Next %d (error %v)", len(streamed), serr, len(got), err)
		}
		if !sorted {
			return // corrupt or unsorted: not panicking is the whole contract
		}
		if err != nil {
			t.Fatalf("a run that parses row by row failed to merge: %v", err)
		}
		slices.SortStableFunc(want, func(a, b row) int {
			if a.key != b.key {
				if a.key < b.key {
					return -1
				}
				return 1
			}
			return bytes.Compare(a.full, b.full)
		})
		if len(got) != len(want) {
			t.Fatalf("merged %d rows, the runs hold %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].text {
				t.Fatalf("merged row %d differs from the stable sort of the runs' rows", i)
			}
		}
	})
}
