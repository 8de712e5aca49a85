package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/cluster"
	"persona/internal/jobs"
)

// The functions here time isolated calls into one layer's public functions
// on the workload's own data, one operation at a time — the per-layer
// numbers that neither a report nor a span can give.

// codecMetrics decodes and re-encodes every chunk blob of the fixture's
// dataset with the default codec, timing each call, and reports raw
// (decoded) megabytes per second.
func codecMetrics(store *agd.MemStore) (map[string]float64, error) {
	names, err := store.List(dataset + "/")
	if err != nil {
		return nil, err
	}
	var cd agd.Codec
	var chunk agd.Chunk
	var enc []byte
	var raw int64
	var decode, encode time.Duration
	for _, name := range names {
		if strings.HasSuffix(name, ".json") {
			continue // the manifest
		}
		blob, err := store.Get(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		err = cd.DecodeInto(&chunk, blob)
		decode += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", name, err)
		}
		raw += int64(len(chunk.Data)) + 4*int64(chunk.NumRecords())
		t0 = time.Now()
		enc, err = agd.EncodeChunkAppend(enc[:0], &chunk, agd.CompressGzip)
		encode += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", name, err)
		}
	}
	return map[string]float64{
		"agd.decode_mb_per_s": mbPerS(int(raw), decode.Seconds()),
		"agd.encode_mb_per_s": mbPerS(int(raw), encode.Seconds()),
	}, nil
}

// edgeHandoffNS is the cost of moving one row group across a pumped edge:
// a producer goroutine pushes while this one pops, at the default depth.
func edgeHandoffNS() float64 {
	const n = 200_000
	edge := agd.NewBoundedEdge(4)
	g := agd.NewRowGroup(0, 0, nil, nil)
	t0 := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			if edge.Push(g) != nil {
				return
			}
		}
		edge.CloseSend(nil)
	}()
	moved := 0
	for {
		if _, err := edge.Pop(); err != nil {
			break
		}
		moved++
	}
	wall := time.Since(t0)
	edge.CloseRecv()
	return ratio(float64(wall.Nanoseconds()), float64(moved))
}

// snapReads caps how many of the workload's reads the kernel measurement
// aligns; at 20,000 the 99th percentile has 200 samples beyond it.
const snapReads = 20_000

// snapMetrics aligns the workload's reads one at a time on one thread,
// timing each Aligner.AlignRead, and reads the aligner's work counters.
func snapMetrics(fx *fixture) (map[string]float64, error) {
	ds, err := agd.Open(fx.store, dataset)
	if err != nil {
		return nil, err
	}
	bases, err := ds.ReadAllBases()
	if err != nil {
		return nil, err
	}
	if len(bases) > snapReads {
		bases = bases[:snapReads]
	}
	al := snap.NewAligner(fx.index, snap.Config{})
	us := make([]float64, len(bases))
	for i, b := range bases {
		t0 := time.Now()
		al.AlignRead(b)
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	st := al.Stats()
	p99, _ := percentileOf(us, len(us), 0.99)
	return map[string]float64{
		"snap.align_read_us_p50": median(us),
		"snap.align_read_us_p99": p99,
		"snap.aligned_frac":      ratio(float64(st.Aligned), float64(st.Reads)),
		"snap.lv_per_read":       ratio(float64(st.CandidatesxLV), float64(st.Reads)),
	}, nil
}

// phaseRTTPairs is how many NextTask+AckTask pairs the phase-server round
// trip is the median of.
const phaseRTTPairs = 500

// clusterMetrics measures the coordinator round trip and the one-phase
// distributed align (the ManifestServer path) on the workload's input.
func clusterMetrics(ctx context.Context, fx *fixture) (map[string]float64, error) {
	srv, err := cluster.NewPhaseServer([]int{phaseRTTPairs}, nil, cluster.ServerOptions{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cl, err := cluster.DialManifestWorker(srv.Addr(), 0)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	stop := make(chan struct{})
	var us []float64
	for {
		t0 := time.Now()
		phase, idx, ok, err := cl.NextTask(stop)
		if err != nil {
			return nil, fmt.Errorf("phase server round trip: %w", err)
		}
		if !ok {
			break
		}
		if err := cl.AckTask(phase, idx, ""); err != nil {
			return nil, fmt.Errorf("phase server round trip: %w", err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if len(us) != phaseRTTPairs {
		return nil, fmt.Errorf("phase server dealt %d tasks, want %d", len(us), phaseRTTPairs)
	}

	store, err := cloneMem(fx.store)
	if err != nil {
		return nil, err
	}
	rep, _, err := cluster.Align(ctx, store, dataset, fx.index, cluster.Config{Nodes: 2})
	if err != nil {
		return nil, fmt.Errorf("cluster.Align: %w", err)
	}
	return map[string]float64{
		"cluster.phase_rtt_us_p50":     median(us),
		"cluster.align_n2_reads_per_s": ratio(float64(rep.TotalReads), rep.Elapsed.Seconds()),
	}, nil
}

// clusterPhases reads the three phases of a distributed run off its store
// spans. The phases are barriers, so each ends with the last Put under its
// blob prefix: sorted runs (map), pieces and halos (shuffle), output chunks
// (reduce).
func clusterPhases(spans []span) map[string]float64 {
	var mapS, shuffleS, reduceS float64
	n := 0
	roots := make(map[int]span)
	for _, s := range spans {
		if s.Parent == 0 && s.Layer == rootLayer {
			roots[s.Rep] = s
		}
	}
	for rep, root := range roots {
		var runEnd, pieceEnd, chunkEnd int64
		for _, s := range spans {
			if s.Rep != rep || s.Layer != storeLayer || s.Name != "put" {
				continue
			}
			blob := s.Key[strings.LastIndexByte(s.Key, '/')+1:]
			switch {
			case strings.HasPrefix(blob, "run-"):
				runEnd = max(runEnd, s.End)
			case strings.HasPrefix(blob, "piece-"), strings.HasPrefix(blob, "halo-"):
				pieceEnd = max(pieceEnd, s.End)
			case strings.HasPrefix(blob, "chunk-"):
				chunkEnd = max(chunkEnd, s.End)
			}
		}
		if runEnd == 0 || pieceEnd < runEnd || chunkEnd < pieceEnd {
			continue
		}
		mapS += float64(runEnd-root.Start) / 1e9
		shuffleS += float64(pieceEnd-runEnd) / 1e9
		reduceS += float64(chunkEnd-pieceEnd) / 1e9
		n++
	}
	if n == 0 {
		return nil
	}
	return map[string]float64{
		"cluster.map_s":     mapS / float64(n),
		"cluster.shuffle_s": shuffleS / float64(n),
		"cluster.reduce_s":  reduceS / float64(n),
	}
}

// journalPuts is how many Journal.Put calls the journal metric is the
// median of.
const journalPuts = 200

// journalPutMS times the job journal's durable Put on a DirStore.
func journalPutMS(e *env) (float64, error) {
	dir, err := e.tempDir("journal")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, err := agd.NewDirStore(dir)
	if err != nil {
		return 0, err
	}
	j := jobs.NewJournal(store)
	rec := &jobs.Record{
		Tenant: "t0", State: jobs.StateRunning, Attempts: 1, MaxAttempts: 3,
		Spec:        jobs.Spec{Dataset: dataset, Align: true, Sort: "location", MarkDup: true, Format: "sam"},
		SubmittedAt: time.Now().UTC(), StartedAt: time.Now().UTC(),
	}
	ms := make([]float64, journalPuts)
	for i := range ms {
		rec.ID = fmt.Sprintf("%012d", i)
		t0 := time.Now()
		if err := j.Put(rec); err != nil {
			return 0, err
		}
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(ms), nil
}
