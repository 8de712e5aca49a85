package persona

import (
	"context"
	"fmt"
	"time"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/cluster"
)

// Distributed asks Run to execute the pipeline across nodes in-process
// worker nodes instead of single-node: the stage graph becomes a cluster
// plan (map/shuffle/reduce over a key-range shuffle, coordinated by a phase
// server), with every worker submitting fine-grain work to the session's
// shared executor. Output bytes are identical to the single-node run for
// any node count. nodes < 1 keeps the single-node scheduler.
//
// A distributed pipeline must have the canonical fused shape: a Read
// source, then optionally Align, then Sort (the shuffle is the sort),
// then optionally MarkDuplicates and Filter, then one sink.
func (p *Pipeline) Distributed(nodes int) *Pipeline {
	p.nodes = nodes
	return p
}

// distPlan translates the recorded stage graph into a cluster pipeline
// plan, rejecting shapes the distributed scheduler cannot run.
func (p *Pipeline) distPlan() (cluster.PipelinePlan, *pipeStage, error) {
	var plan cluster.PipelinePlan
	src := p.stages[0]
	if src.kind != stageRead {
		return plan, nil, fmt.Errorf("persona: distributed pipelines need a Read source, not %s", src.kind)
	}
	plan.Dataset = src.dataset
	sink := &p.stages[len(p.stages)-1]
	if !sink.kind.isSink() {
		return plan, nil, fmt.Errorf("persona: pipeline must end in a sink, not %s", sink.kind)
	}
	// The transforms must be (Align?, Sort, MarkDup?, Filter?), in order —
	// the canonical fused preprocessing graph the shuffle distributes.
	sorted := false
	pos := 0 // 0: before sort, 1: after sort, 2: after markdup, 3: after filter
	for _, st := range p.stages[1 : len(p.stages)-1] {
		switch st.kind {
		case stageAlign:
			if pos != 0 || plan.Align {
				return plan, nil, fmt.Errorf("persona: distributed pipeline: Align must come before Sort")
			}
			if st.idx == nil {
				return plan, nil, fmt.Errorf("persona: Align needs an index")
			}
			plan.Align = true
			plan.Index = st.idx
		case stageSort:
			if sorted {
				return plan, nil, fmt.Errorf("persona: distributed pipeline has two Sort stages")
			}
			sorted = true
			pos = 1
			plan.By = st.by
		case stageMarkDup:
			if pos != 1 {
				return plan, nil, fmt.Errorf("persona: distributed pipeline: MarkDuplicates must follow Sort")
			}
			pos = 2
			plan.MarkDup = true
		case stageFilter:
			if pos != 1 && pos != 2 {
				return plan, nil, fmt.Errorf("persona: distributed pipeline: Filter must follow Sort")
			}
			pos = 3
			plan.Filter = st.pred
		default:
			return plan, nil, fmt.Errorf("persona: distributed pipeline cannot run a %s stage", st.kind)
		}
	}
	if !sorted {
		return plan, nil, fmt.Errorf("persona: distributed pipeline needs a Sort stage (the shuffle is the sort)")
	}
	return plan, sink, nil
}

// runDistributed executes the pipeline as a cluster plan: the whole fused
// graph runs across worker nodes and the reduce writes an ordered output
// dataset. A Write sink keeps that dataset, gzip like any other. For an
// export sink it is a staging dataset, stored raw, that the export streams
// out once; it lives under the run's namespace, which is swept once the
// export is done (inside the report's Elapsed and Storage) and on every
// failure.
func (p *Pipeline) runDistributed(ctx context.Context) (report *PipelineReport, err error) {
	sess := p.sess
	plan, sink, err := p.distPlan()
	if err != nil {
		return nil, err
	}

	// Every blob a run writes lives under one sweepable cluster/run
	// namespace: the shuffle temp always, and the output dataset too when
	// the sink is an export (the dataset is only a staging area for the
	// export stream). A Write sink's output lives at its real name. A
	// caller-set TempPrefix (the job server's jobs/<id>/cluster) relocates
	// the namespace so a job's every blob stays under its own prefix.
	runPrefix := fmt.Sprintf("cluster/run-%06d", sess.seq.Add(1))
	if p.tempPrefix != "" {
		runPrefix = fmt.Sprintf("%s/%d", p.tempPrefix, p.tmpSeq.Add(1))
	}
	plan.TempPrefix = runPrefix + "/tmp"
	if sink.kind == stageWrite {
		plan.OutName = sink.dataset
	} else {
		plan.OutName = runPrefix + "/out"
		plan.Staging = true
	}
	// Once RunPipeline has returned no worker is alive, so a failed run can
	// sweep the namespace whatever happened: its temp blobs, an export's
	// staging dataset (chunks and manifest) before or after a failed export.
	// The run's own error is the one reported.
	defer func() {
		if err != nil {
			_ = sweep(sess.store, runPrefix)
		}
	}()

	cfg := cluster.Config{
		Nodes:    p.nodes,
		Executor: sess.exec,
	}
	if plan.Align {
		for _, st := range p.stages {
			if st.kind == stageAlign {
				cfg.Aligner = snap.Config{MaxDist: st.alignOpts.MaxDist}
			}
		}
	}
	if p.distTune != nil {
		p.distTune(&cfg)
	}

	report = &PipelineReport{}
	base := p.snapshotBase()
	if sink.kind == stageWrite {
		// The run replaces whatever blobs the target dataset had.
		sess.invalidateDataset(sink.dataset)
	}
	res, err := cluster.RunPipeline(ctx, sess.store, plan, cfg)
	if err != nil {
		return nil, err
	}
	report.Cluster = res.Report
	report.Dups = res.Dups
	report.Filtered = res.Filtered
	report.Records = res.Rows

	switch sink.kind {
	case stageWrite:
		report.Manifest = res.Manifest
		sess.rememberManifest(sink.dataset, res.Manifest)
	default:
		// Export sinks: stream the stitched dataset out, then sweep the
		// whole run namespace (output chunks and manifest included).
		n, err := p.exportDistributed(ctx, res.Manifest, report)
		if err != nil {
			return nil, err
		}
		report.Records = n
		if err := sweep(sess.store, runPrefix); err != nil {
			return nil, err
		}
	}

	p.finishBase(report, base)
	// Coarse per-stage attribution: the cluster executes the graph as
	// phases, not as locally pumped stages, so only row counts and the
	// run-level wall are meaningful here.
	for _, name := range p.stageNames() {
		report.Stages = append(report.Stages, StageReport{Stage: name})
	}
	report.Stages[len(report.Stages)-1].Records = report.Records
	report.Stages[len(report.Stages)-1].Elapsed = report.Elapsed
	return report, nil
}

// sweep deletes every blob under prefix.
func sweep(store Store, prefix string) error {
	names, err := store.List(prefix + "/")
	if err != nil {
		return fmt.Errorf("persona: list run %q: %w", prefix, err)
	}
	for _, name := range names {
		if err := store.Delete(name); err != nil {
			return fmt.Errorf("persona: sweep run %q: %w", name, err)
		}
	}
	return nil
}

// exportDistributed streams the distributed run's stitched output dataset
// into the pipeline's export sink.
func (p *Pipeline) exportDistributed(ctx context.Context, m *agd.Manifest, report *PipelineReport) (uint64, error) {
	sess := p.sess
	ds := agd.OpenManifest(sess.store, m)
	// No session cache here: the dataset is a staging area about to be
	// swept, so caching its chunks would only hold doomed entries.
	gs, err := ds.Groups(agd.StreamOptions{Codec: agd.Codec{Exec: sess.exec}})
	if err != nil {
		return 0, err
	}
	defer gs.Close()
	return p.runSink(ctx, gs, nil, time.Time{}, report)
}
