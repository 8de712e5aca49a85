package experiments

import (
	"context"
	"fmt"
	"io"

	"persona/internal/agd"
	"persona/internal/cluster"
)

// Fig7MeasuredPoint is one real node-sweep sample.
type Fig7MeasuredPoint struct {
	Nodes       int
	BasesPerSec float64
	Imbalance   float64
}

// RunFig7Measured runs the real distributed runtime (TCP phase server +
// in-process worker nodes) for each node count. On a small machine the
// nodes share cores, so throughput validates functionality and the
// imbalance claim, not paper-scale linearity — that comes from the DES.
func RunFig7Measured(ctx context.Context, w io.Writer, sc Scale, nodeCounts []int) ([]Fig7MeasuredPoint, error) {
	var out []Fig7MeasuredPoint
	section(w, "Figure 7 (measured): real distributed runtime")
	fmt.Fprintf(w, "workload: %s\n", sc)
	for _, n := range nodeCounts {
		store := agd.NewMemStore()
		f, err := sc.fixture(store, "ds", false)
		if err != nil {
			return nil, err
		}
		report, _, err := cluster.Align(ctx, store, "ds", f.Index, cluster.Config{
			Nodes: n, ThreadsPerNode: 1,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig7MeasuredPoint{Nodes: n, BasesPerSec: report.BasesPerSec, Imbalance: report.Imbalance})
		fmt.Fprintf(w, "%3d nodes  %10.2f Mbases/s  completion imbalance %.1f%%\n",
			n, report.BasesPerSec/1e6, report.Imbalance*100)
	}
	fmt.Fprintln(w, "paper: no measurable completion-time imbalance across nodes")
	return out, nil
}
