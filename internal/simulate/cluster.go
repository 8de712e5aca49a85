package simulate

import "fmt"

// Discrete-event simulation of the Fig. 7 experiment: N compute nodes pull
// AGD chunks from the Ceph cluster, align them at the calibrated node rate,
// and write replicated results back. The storage cluster's aggregate read
// and write bandwidths are FCFS-served resources; when the replicated
// result writes exhaust CephWriteBW (≈60 nodes at paper calibration),
// throughput saturates — "beyond 60 nodes ... write performance of the
// alignment results limits performance" (§5.5). It is one phase of the
// event loop the distributed model runs (runPhase) with a single task shape.

// event is one scheduled simulation callback.
type event struct {
	t  float64
	fn func(now float64)
}

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// fcfs is a single-server queue with a fixed byte rate: requests are
// serviced in arrival order at the resource's aggregate bandwidth.
type fcfs struct {
	rate   float64 // bytes/s
	freeAt float64
}

// request schedules a transfer of size bytes arriving at now and returns
// its completion time.
func (r *fcfs) request(now, bytes float64) float64 {
	start := now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + bytes/r.rate
	return r.freeAt
}

// Fig7Point is one point of the Fig. 7 series.
type Fig7Point struct {
	Nodes       int
	BasesPerSec float64
	Seconds     float64
}

// Fig7 sweeps node counts and returns the "Simulation" series of Fig. 7
// (of which the ≤32-node prefix corresponds to the paper's "Actual" range).
func Fig7(p PaperParams, nodeCounts []int) ([]Fig7Point, error) {
	// Each node fetches a chunk, aligns it at the calibrated node rate and
	// writes the replicated results back: one task shape through runPhase.
	task := distTask{
		readBytes:  p.AGDReadBytes / float64(p.NumChunks),
		cpuSeconds: float64(p.ChunkReads*p.ReadLen) / p.NodeRate,
		writeBytes: p.AGDWriteBytes / float64(p.NumChunks) * float64(p.Replication),
	}
	var out []Fig7Point
	for _, n := range nodeCounts {
		if n <= 0 {
			return nil, fmt.Errorf("simulate: Nodes = %d", n)
		}
		end, finished := runPhase(n, p.QueueDepth, p.NumChunks, task, &fcfs{rate: p.CephReadBW}, &fcfs{rate: p.CephWriteBW}, 0)
		if finished != p.NumChunks {
			return nil, fmt.Errorf("simulate: only %d/%d chunks completed", finished, p.NumChunks)
		}
		seconds := end + p.StartupSeconds
		out = append(out, Fig7Point{Nodes: n, BasesPerSec: p.TotalBases / seconds, Seconds: seconds})
	}
	return out, nil
}
