package simulate

import (
	"container/heap"
	"fmt"
	"time"
)

// Distributed fused-pipeline model: the three-phase sample sort
// internal/cluster executes (map: read+align+spill a sorted run; shuffle:
// cut runs at the global splitters and rewrite every byte as partition
// pieces; reduce: merge each partition and write the output dataset) as a
// discrete-event simulation over the same FCFS storage resources and the
// same event loop (runPhase) as the Fig. 7 alignment model, which is one
// such phase, with a barrier between phases — the coordinator
// computes global cuts only after the last map ack, and a partition merge
// starts only after the last shuffle ack. The merge itself is memory-bound
// and negligible next to alignment at paper calibration, so reduce CPU is
// not modelled; the phase is storage-limited.

// ParamsFromProfile reseeds the storage-side calibration of base from a
// measured read profile (storage.RetryStore.ReadProfile's values: median
// per-read latency, mean MB/s, sample count) instead of the hardcoded
// constants: the per-pipe bandwidth becomes the measured throughput, the
// aggregate Ceph read/write capacities scale by the same factor (cluster
// width held constant, per-OSD service time measured), and the measured
// median latency joins the startup ramp as the first-chunk fetch cost.
// With no samples the calibration is returned untouched — simulation
// quality degrades to the paper constants, never to garbage.
func ParamsFromProfile(base PaperParams, lat time.Duration, mbps float64, samples int) PaperParams {
	if samples <= 0 || mbps <= 0 {
		return base
	}
	measured := mbps * 1e6 // bytes/s per pipe
	factor := measured / base.PipeBW
	base.PipeBW = measured
	base.DiskBW *= factor
	base.CephReadBW *= factor
	base.CephWriteBW *= factor
	base.StartupSeconds += lat.Seconds()
	return base
}

// distTask is one phase task's resource demands.
type distTask struct {
	readBytes  float64
	cpuSeconds float64
	writeBytes float64
}

// runPhase executes one phase's tasks across nodes worker nodes, each
// prefetching up to queueDepth tasks, against shared read/write resources,
// starting at start. Returns the phase's completion time (the barrier) and
// how many tasks finished.
func runPhase(nodes, queueDepth, nTasks int, task distTask, read, write *fcfs, start float64) (end float64, finished int) {
	type nodeState struct {
		queued   int
		fetching int
		cpuBusy  bool
	}
	ns := make([]nodeState, nodes)
	remaining := nTasks
	end = start

	var events eventHeap
	schedule := func(t float64, fn func(now float64)) {
		heap.Push(&events, event{t: t, fn: fn})
	}
	complete := func(now float64) {
		finished++
		if now > end {
			end = now
		}
	}

	var tryFetch func(n int, now float64)
	var tryCPU func(n int, now float64)
	tryFetch = func(n int, now float64) {
		nd := &ns[n]
		for remaining > 0 && nd.fetching+nd.queued < queueDepth {
			remaining--
			nd.fetching++
			done := now
			if task.readBytes > 0 {
				done = read.request(now, task.readBytes)
			}
			schedule(done, func(now float64) {
				nd.fetching--
				nd.queued++
				tryCPU(n, now)
				tryFetch(n, now)
			})
		}
	}
	tryCPU = func(n int, now float64) {
		nd := &ns[n]
		if nd.cpuBusy || nd.queued == 0 {
			return
		}
		nd.queued--
		nd.cpuBusy = true
		schedule(now+task.cpuSeconds, func(now float64) {
			nd.cpuBusy = false
			if task.writeBytes > 0 {
				schedule(write.request(now, task.writeBytes), complete)
			} else {
				complete(now)
			}
			tryCPU(n, now)
			tryFetch(n, now)
		})
	}

	heap.Init(&events)
	for n := 0; n < nodes; n++ {
		tryFetch(n, start)
	}
	for events.Len() > 0 {
		e := heap.Pop(&events).(event)
		e.fn(e.t)
	}
	return end, finished
}

// chunksPerBatch is the map granularity: internal/cluster's default
// PipelinePlan.ChunksPerBatch.
const chunksPerBatch = 8

// DistPipelineConfig parameterizes one distributed-pipeline simulation.
type DistPipelineConfig struct {
	Nodes  int
	Params PaperParams
}

// DistPipelineResult reports one simulated distributed-pipeline run.
type DistPipelineResult struct {
	Nodes          int
	Seconds        float64 // makespan including the startup ramp
	MapSeconds     float64 // read + align + spill runs (ends at the cut barrier)
	ShuffleSeconds float64 // run → partition piece rewrite
	ReduceSeconds  float64 // piece merge + replicated output write
	BasesPerSec    float64
	ShuffleBytes   float64 // bytes crossing the shuffle (read once, written once)
}

// SimulateDistPipeline runs the three-phase DES for one node count.
func SimulateDistPipeline(cfg DistPipelineConfig) (DistPipelineResult, error) {
	p := cfg.Params
	if cfg.Nodes <= 0 {
		return DistPipelineResult{}, fmt.Errorf("simulate: Nodes = %d", cfg.Nodes)
	}
	numBatches := (p.NumChunks + chunksPerBatch - 1) / chunksPerBatch
	if numBatches < 1 {
		return DistPipelineResult{}, fmt.Errorf("simulate: no chunks")
	}
	// A sorted run holds every column the pipeline touches: the read
	// columns that came in plus the results column alignment appended.
	runBytes := (p.AGDReadBytes + p.AGDWriteBytes) / float64(numBatches)
	batchBases := p.TotalBases / float64(numBatches)

	read := &fcfs{rate: p.CephReadBW}
	write := &fcfs{rate: p.CephWriteBW}

	// Map: read a batch of chunks, align at the node rate, spill one
	// unreplicated run. Shuffle: read each run back, rewrite its bytes as
	// partition pieces (unreplicated temp blobs). Reduce: each partition
	// reads its pieces and writes the replicated output dataset.
	mapEnd, _ := runPhase(cfg.Nodes, p.QueueDepth, numBatches, distTask{
		readBytes:  p.AGDReadBytes / float64(numBatches),
		cpuSeconds: batchBases / p.NodeRate,
		writeBytes: runBytes,
	}, read, write, 0)
	shufEnd, _ := runPhase(cfg.Nodes, p.QueueDepth, numBatches, distTask{
		readBytes:  runBytes,
		writeBytes: runBytes,
	}, read, write, mapEnd)
	partBytes := (p.AGDReadBytes + p.AGDWriteBytes) / float64(cfg.Nodes)
	redEnd, _ := runPhase(cfg.Nodes, p.QueueDepth, cfg.Nodes, distTask{
		readBytes:  partBytes,
		writeBytes: partBytes * float64(p.Replication),
	}, read, write, shufEnd)

	makespan := redEnd + p.StartupSeconds
	return DistPipelineResult{
		Nodes:          cfg.Nodes,
		Seconds:        makespan,
		MapSeconds:     mapEnd,
		ShuffleSeconds: shufEnd - mapEnd,
		ReduceSeconds:  redEnd - shufEnd,
		BasesPerSec:    p.TotalBases / makespan,
		ShuffleBytes:   p.AGDReadBytes + p.AGDWriteBytes,
	}, nil
}

// DistPoint is one point of the distributed-pipeline scaling series.
type DistPoint struct {
	Nodes       int
	Seconds     float64
	BasesPerSec float64
}

// DistScaling sweeps node counts through the distributed-pipeline DES — the
// predicted analogue of PERF.md's measured workers∈{1,2,4} curve.
func DistScaling(p PaperParams, nodeCounts []int) ([]DistPoint, error) {
	var out []DistPoint
	for _, n := range nodeCounts {
		res, err := SimulateDistPipeline(DistPipelineConfig{Nodes: n, Params: p})
		if err != nil {
			return nil, err
		}
		out = append(out, DistPoint{Nodes: n, Seconds: res.Seconds, BasesPerSec: res.BasesPerSec})
	}
	return out, nil
}
