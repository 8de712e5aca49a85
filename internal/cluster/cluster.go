package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/core"
	"persona/internal/dataflow"
	"persona/internal/storage"
)

// errNodeDeath is the injected worker-death fault (Config.NodeFaults): the
// node stops mid-run without acking the task it was just handed, exactly
// like a crashed process. It is classified transient, so the run degrades
// instead of failing.
var errNodeDeath = errors.New("cluster: injected node death")

// Config parameterizes a cluster run: its nodes, their executors and the
// phase server's failure detector.
type Config struct {
	// Nodes is the number of worker nodes (paper: up to 32).
	Nodes int
	// ThreadsPerNode sizes each node's executor (paper: 47 aligner
	// threads per 48-core server). Defaults to 2 for the test machines.
	ThreadsPerNode int
	// Executor, when non-nil, is a caller-owned (typically Session-owned)
	// shared executor all worker nodes submit to, instead of each node
	// constructing and tearing down its own — so repeated distributed runs
	// reuse warm executor state. It is never closed here, and
	// ThreadsPerNode is then unused.
	Executor *dataflow.Executor

	// Lease, HeartbeatTimeout and MaxChunkAttempts tune the phase server's
	// failure detector (ServerOptions); zero values take the server
	// defaults. Lease bounds one worker's processing of one task
	// (stragglers past it are re-dealt); HeartbeatTimeout declares a
	// silent worker dead; MaxChunkAttempts bounds re-execution per task.
	Lease            time.Duration
	HeartbeatTimeout time.Duration
	MaxChunkAttempts int
	// NodeFaults injects worker death: node id → how many tasks of
	// FaultPhase it is handed before dying on the next one (failure
	// injection for recovery tests; the run completes on the surviving
	// workers).
	NodeFaults map[int]int
	// FaultPhase scopes NodeFaults to one phase of the run: 0 is the map
	// phase (a map-only plan's only one, whose tasks are chunks), 1 the
	// shuffle, 2 the reduce — which is how a chaos test kills a worker
	// deterministically mid-shuffle.
	FaultPhase int
}

// NodeReport describes one worker's run.
type NodeReport struct {
	Node    int
	Chunks  int
	Reads   int64
	Bases   int64
	Elapsed time.Duration
	// ShuffleBytes is what this node wrote during a distributed pipeline's
	// shuffle phase (pieces and halos; 0 on map-only runs, which have no
	// shuffle). Re-executed tasks count here, so node totals can exceed the
	// report's first-win total.
	ShuffleBytes int64
	// Failed marks a worker that died mid-run (its chunks were re-dealt
	// to the survivors); Err is its final error.
	Failed bool
	Err    string
}

// Report describes a cluster run: the §5.5 measurements.
type Report struct {
	Nodes       []NodeReport
	Elapsed     time.Duration
	TotalBases  int64
	TotalReads  int64
	BasesPerSec float64
	// Imbalance is (max node elapsed - min node elapsed) / mean: the
	// "completion-time imbalance" the paper reports as unmeasurable.
	Imbalance float64
	// Degraded marks a run that lost workers but completed anyway;
	// FailedNodes counts them and Reassigned counts the task leases the
	// phase server re-dealt after worker death or straggling.
	Degraded    bool
	FailedNodes int
	Reassigned  int64
	// Distributed-pipeline runs only: ShuffleBytes is the cross-node
	// shuffle's total encoded piece+halo traffic (first-win task results),
	// Partitions the reduce fan-in, and PartitionSkew the largest
	// partition's row count over the mean (1.0 = perfectly balanced).
	ShuffleBytes  int64
	Partitions    int
	PartitionSkew float64
}

// runFatal classifies a node error as run-fatal: permanent storage errors
// (corruption, missing blobs, the caller's context ending) and a phase
// server abort cannot be fixed by the surviving workers. Everything else is
// a node failure the run survives.
func runFatal(err error) bool {
	return storage.IsPermanent(err) || errors.Is(err, ErrAborted)
}

func (cfg *Config) applyDefaults() {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.ThreadsPerNode <= 0 {
		cfg.ThreadsPerNode = 2
	}
}

func (cfg *Config) serverOptions() ServerOptions {
	return ServerOptions{
		LeaseTimeout: cfg.Lease,
		BeatTimeout:  cfg.HeartbeatTimeout,
		MaxAttempts:  cfg.MaxChunkAttempts,
	}
}

// worker is one in-process node of a run, as runNodes hands it to the run's
// node function: its connection to the phase server, the executor its stages
// submit to, and the report it fills in.
type worker struct {
	node   int
	cfg    *Config
	client *ManifestClient
	exec   *dataflow.Executor
	rep    NodeReport
	leased map[int]int // tasks handed to this node, by phase
}

// lease asks the phase server for the node's next task, waiting out barriers
// and held phases; ok is false once every phase is drained. Injected death
// (Config.NodeFaults) strikes here, after the task was dealt: it is never
// acked, so its lease expires and a survivor re-runs it.
func (w *worker) lease(ctx context.Context) (phase, idx int, ok bool, err error) {
	phase, idx, ok, err = w.client.NextTask(ctx.Done())
	if err != nil {
		return 0, 0, false, err
	}
	if !ok {
		return 0, 0, false, ctx.Err() // nil: the server said DONE
	}
	if kill, faulty := w.cfg.NodeFaults[w.node]; faulty && phase == w.cfg.FaultPhase && w.leased[phase] >= kill {
		return 0, 0, false, errNodeDeath
	}
	w.leased[phase]++
	return phase, idx, true, nil
}

// runNodes runs cfg.Nodes workers against a phase server and folds their
// outcomes into a report. Each worker dials the server, takes the shared
// executor (or builds its own), heartbeats until it returns (a dead worker
// stops beating, which is exactly how the server finds out) and runs node,
// the run's task loop. A node error is a node failure the run survives —
// its tasks are re-dealt to the others — unless it is run-fatal (runFatal),
// which stops every node; the run as a whole fails when that happens, when
// every node failed, or when the survivors left tasks undone.
func runNodes(ctx context.Context, srv *PhaseServer, cfg *Config, node func(ctx context.Context, w *worker) error) (*Report, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	beatEvery := cfg.HeartbeatTimeout / 3
	if beatEvery <= 0 {
		beatEvery = time.Second
	}
	runWorker := func(w *worker) error {
		client, err := DialManifestWorker(srv.Addr(), w.node)
		if err != nil {
			return err
		}
		defer client.Close()
		w.client = client
		if w.exec == nil {
			w.exec = dataflow.NewExecutor(cfg.ThreadsPerNode, cfg.ThreadsPerNode*2)
			defer w.exec.Close()
		}
		nodeStart := time.Now()
		defer func() { w.rep.Elapsed = time.Since(nodeStart) }()

		beatStop := make(chan struct{})
		defer close(beatStop)
		go func() {
			t := time.NewTicker(beatEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := client.Beat(); err != nil {
						return
					}
				case <-beatStop:
					return
				}
			}
		}()
		return node(runCtx, w)
	}

	report := &Report{Nodes: make([]NodeReport, cfg.Nodes)}
	start := time.Now()
	type outcome struct {
		w   *worker
		err error
	}
	outs := make(chan outcome, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		w := &worker{node: n, cfg: cfg, exec: cfg.Executor, rep: NodeReport{Node: n}, leased: make(map[int]int)}
		go func() { outs <- outcome{w, runWorker(w)} }()
	}
	var fatal, firstNodeErr error
	for i := 0; i < cfg.Nodes; i++ {
		o := <-outs
		if o.err != nil {
			o.w.rep.Failed = true
			o.w.rep.Err = o.err.Error()
			report.FailedNodes++
			if firstNodeErr == nil {
				firstNodeErr = o.err
			}
			if fatal == nil && runFatal(o.err) {
				fatal = fmt.Errorf("cluster: node %d: %w", o.w.node, o.err)
				cancel() // no point letting the survivors keep going
			}
		}
		report.Nodes[o.w.node] = o.w.rep
	}
	if fatal != nil {
		return nil, fatal
	}
	if report.FailedNodes == cfg.Nodes {
		return nil, fmt.Errorf("cluster: all %d nodes failed: %w", cfg.Nodes, firstNodeErr)
	}
	if !srv.AllDone() {
		return nil, fmt.Errorf("cluster: run incomplete after %d node failures: %w", report.FailedNodes, firstNodeErr)
	}
	report.Elapsed = time.Since(start)
	report.Degraded = report.FailedNodes > 0
	report.Reassigned = srv.Reassigned()

	var minE, maxE, sumE time.Duration
	for i, nr := range report.Nodes {
		report.TotalBases += nr.Bases
		report.TotalReads += nr.Reads
		if i == 0 || nr.Elapsed < minE {
			minE = nr.Elapsed
		}
		if nr.Elapsed > maxE {
			maxE = nr.Elapsed
		}
		sumE += nr.Elapsed
	}
	if report.Elapsed > 0 {
		report.BasesPerSec = float64(report.TotalBases) / report.Elapsed.Seconds()
	}
	if mean := sumE / time.Duration(len(report.Nodes)); mean > 0 {
		report.Imbalance = float64(maxE-minE) / float64(mean)
	}
	return report, nil
}

// Align runs a distributed alignment of a dataset as a map-only plan of
// RunPipeline without an output dataset: one phase, one task per chunk.
// Every node leases chunks, reads their bases from shared storage, aligns
// them with the same stage the single-server Align runs (core.AlignStream,
// at its default tuning), writes each results chunk back through the same
// column sink, and acks the lease once the blob has landed. Workers
// heartbeat the server; a worker that dies or straggles has its chunks
// re-dealt to the survivors (bounded by MaxChunkAttempts; results writes are
// idempotent, so duplicate completion is safe) and the run completes
// degraded, with the reassignments recorded in the report. Permanent errors — corrupt chunks, missing blobs, ctx
// ending — abort the whole run. The results column is registered in the
// manifest at the end; a run that fails leaves no results blob behind.
func Align(ctx context.Context, store storage.Store, datasetName string, idx *snap.Index, cfg Config) (*Report, *agd.Manifest, error) {
	res, err := RunPipeline(ctx, store, PipelinePlan{Dataset: datasetName, Columns: []string{agd.ColBases}, Map: []Stage{alignStage(idx)}}, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.Report, res.Manifest, nil
}

// alignStage is Align's one stage: the align stage at its default tuning.
func alignStage(idx *snap.Index) Stage {
	return Stage{Adds: []string{agd.ColResults}, Build: func(e *Env, in *agd.GroupStream) (*agd.GroupStream, error) {
		out, rep, err := core.AlignStream(core.AlignConfig{Index: idx}, e.Exec, in)
		e.Align = rep
		return out, err
	}}
}
