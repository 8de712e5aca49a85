package persona

// One identity table for alignment: every way of running it — the align
// stage alone, the one-shot Align and AlignPaired, a Session pipeline, the
// cluster at several node counts, at every subchunk split and executor size
// — must store results-column blobs
// byte-identical to a reference that shares nothing with them but the
// aligner kernel: snap.Aligner in a plain per-read loop, written with the
// reads through testutil.WriteRows (what testutil.Build does for single-end
// reads).

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/cluster"
	"persona/internal/core"
	"persona/internal/dataflow"
	"persona/internal/reads"
	"persona/internal/testutil"
)

// identityAligner is the aligner tuning of the reference loop in
// testutil.Build; every engine in the table runs with it.
var identityAligner = snap.Config{MaxDist: 10}

// pairedReference writes a paired-end dataset "ds" (R1 at even, R2 at odd
// ordinals) with its reference results: AlignPair in a plain loop.
func pairedReference(t *testing.T, store agd.BlobStore) *snap.Index {
	t.Helper()
	g, err := SynthesizeGenome(120_000, 211)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := reads.NewSimulator(g, reads.SimConfig{
		Seed: 212, N: 420, ReadLen: 80, Paired: true, InsertMean: 300, InsertStd: 30, ErrorRate: 0.003,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := sim.All()
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	aligner := snap.NewAligner(idx, identityAligner)
	results := make([][]byte, len(rs))
	for i := 0; i < len(rs); i += 2 {
		r1, r2 := aligner.AlignPair(rs[i].Bases, rs[i+1].Bases)
		results[i], results[i+1] = agd.EncodeResult(nil, &r1), agd.EncodeResult(nil, &r2)
	}
	meta := agd.StreamMeta{Columns: []string{agd.ColBases, agd.ColQual, agd.ColMetadata, agd.ColResults}, ChunkSize: 50, RefSeqs: RefSeqs(g)}
	if _, err := testutil.WriteRows(store, "ds", meta, testutil.ReadRows(rs, results)); err != nil {
		t.Fatal(err)
	}
	return idx
}

// alignColumn aligns dataset "ds" of store in place through the align stage
// alone — a bases source, core.AlignStream on an executor of threads
// workers, the results column sink — so that cfg can vary what the one-shot
// Align fixes, the subchunk split.
func alignColumn(t *testing.T, store agd.BlobStore, cfg core.AlignConfig, threads int) {
	t.Helper()
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	exec := dataflow.NewExecutor(threads, 2*threads)
	defer exec.Close()
	codec := agd.Codec{Exec: exec}
	in, err := ds.Groups(agd.StreamOptions{Columns: []string{agd.ColBases}, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := core.AlignStream(cfg, exec, in)
	if err != nil {
		t.Fatal(err)
	}
	_, err = agd.AddColumn(store, ds.Manifest, agd.ColResults, func() error {
		return agd.WriteColumn(context.Background(), out, store, ds.Manifest, agd.ColResults, codec)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// resultsColumn returns a dataset's results blobs, in chunk order.
func resultsColumn(t *testing.T, store agd.BlobStore, dataset string) [][]byte {
	t.Helper()
	ds, err := agd.Open(store, dataset)
	if err != nil {
		t.Fatal(err)
	}
	blobs := make([][]byte, ds.NumChunks())
	for i := range blobs {
		if blobs[i], err = store.Get(ds.Manifest.ChunkBlobPath(i, agd.ColResults)); err != nil {
			t.Fatal(err)
		}
	}
	return blobs
}

// unaligned copies dataset "ds" without its results column into a fresh
// store: what every engine in the table starts from.
func unaligned(t *testing.T, src agd.BlobStore) Store {
	t.Helper()
	ds, err := agd.Open(src, "ds")
	if err != nil {
		t.Fatal(err)
	}
	dst := NewMemStore()
	bare := *ds.Manifest
	bare.Columns = nil
	for _, col := range ds.Manifest.Columns {
		if col == agd.ColResults {
			continue
		}
		bare.Columns = append(bare.Columns, col)
		for i := range bare.Chunks {
			name := bare.ChunkBlobPath(i, col)
			blob, err := src.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Put(name, blob); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := agd.WriteManifest(dst, &bare); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestAlignIdentity(t *testing.T) {
	ctx := context.Background()
	for _, paired := range []bool{false, true} {
		ref := agd.NewMemStore()
		var idx *snap.Index
		if paired {
			idx = pairedReference(t, ref)
		} else {
			idx = testutil.Build(t, ref, "ds", testutil.Config{
				GenomeSize: 120_000, NumReads: 430, ReadLen: 80, ChunkSize: 50, Seed: 201,
			}).Index
		}
		want := resultsColumn(t, ref, "ds")
		check := func(t *testing.T, store agd.BlobStore, dataset string) {
			t.Helper()
			got := resultsColumn(t, store, dataset)
			if len(got) != len(want) {
				t.Fatalf("%d results chunks, reference has %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("results chunk %d differs from the per-read reference", i)
				}
			}
		}

		for _, threads := range []int{1, 3} {
			for _, sub := range []int{1, 8} {
				name := fmt.Sprintf("paired=%v/threads=%d/subchunks=%d", paired, threads, sub)
				t.Run(name+"/core.Align", func(t *testing.T) {
					store := unaligned(t, ref)
					alignColumn(t, store, core.AlignConfig{
						Index: idx, Aligner: identityAligner, Paired: paired, Subchunks: sub,
					}, threads)
					check(t, store, "ds")
				})
				if paired {
					continue // the cluster and the pipeline's Align stage are single-end
				}
			}
			// The cluster aligns at the align stage's default tuning.
			for _, nodes := range []int{1, 2, 3} {
				if paired {
					break
				}
				t.Run(fmt.Sprintf("paired=false/threads=%d/cluster.Align/nodes=%d", threads, nodes), func(t *testing.T) {
					store := unaligned(t, ref)
					_, _, err := cluster.Align(ctx, store, "ds", idx, cluster.Config{Nodes: nodes, ThreadsPerNode: threads})
					if err != nil {
						t.Fatal(err)
					}
					check(t, store, "ds")
				})
			}
			// The one-shot forms take the engine's default subchunk split.
			t.Run(fmt.Sprintf("paired=%v/threads=%d/persona.Align", paired, threads), func(t *testing.T) {
				store := unaligned(t, ref)
				oneShot := Align
				if paired {
					oneShot = AlignPaired
				}
				opts := AlignOptions{ExecutorThreads: threads, MaxDist: identityAligner.MaxDist}
				if _, _, err := oneShot(ctx, store, "ds", idx, opts); err != nil {
					t.Fatal(err)
				}
				check(t, store, "ds")
			})
			if paired {
				continue
			}
			// The pipeline's Align stage takes its subchunk split from the
			// engine default; the session sizes the executor.
			t.Run(fmt.Sprintf("paired=false/threads=%d/Session.Read.Align.Write", threads), func(t *testing.T) {
				store := unaligned(t, ref)
				sess := NewSession(store, SessionOptions{ExecutorThreads: threads})
				defer sess.Close()
				_, err := sess.Read("ds").Align(idx, AlignOptions{MaxDist: identityAligner.MaxDist}).Write("out").Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				check(t, store, "out")
			})
		}
	}
}
