package persona

import (
	"context"
	"fmt"

	"persona/internal/agd"
	"persona/internal/cluster"
)

// Distributed asks Run to execute the pipeline across nodes in-process
// worker nodes instead of single-node, with every worker submitting
// fine-grain work to the session's shared executor. The stages are the
// single-node run's. A pipeline with a Sort splits at it: the stages before
// it run in the map tasks, the stages after it in the reduce tasks, and the
// shuffle between them, a key-range sample sort coordinated by a phase
// server, is the sort. MarkDuplicates declares a halo: it must follow a
// location Sort directly, and each partition seeds its marker with the rows
// just below its cut. A pipeline without a Sort is the map phase alone: one
// task per source chunk runs every stage and writes that chunk's output.
// The source must be Read. Output bytes are identical to the single-node run
// for any node count. nodes < 1 keeps the single-node scheduler.
func (p *Pipeline) Distributed(nodes int) *Pipeline {
	p.nodes = nodes
	return p
}

// split cuts the stages between the source and the sink at their Sort, if
// any, into a cluster plan: the stages before it run in the map tasks, those
// after it in the reduce.
func (p *Pipeline) split() (cluster.PipelinePlan, error) {
	plan := cluster.PipelinePlan{Dataset: p.stages[0].dataset}
	mid := p.stages[1 : len(p.stages)-1]
	for i, st := range mid {
		switch {
		case st.sort != nil && plan.Sort != nil:
			return plan, fmt.Errorf("%w: distributed pipeline has two Sort stages", ErrRefused)
		case st.sort != nil:
			plan.Sort = st.sort
		case st.halo != nil && (i == 0 || mid[i-1].sort == nil):
			return plan, fmt.Errorf("%w: distributed pipeline: %s must directly follow Sort", ErrRefused, st.name)
		case st.halo != nil && *plan.Sort != ByLocation:
			return plan, fmt.Errorf("%w: distributed pipeline: %s needs a location sort", ErrRefused, st.name)
		case st.halo != nil:
			plan.Halo = st.halo
			fallthrough
		case plan.Sort != nil:
			plan.Reduce = append(plan.Reduce, st.Stage)
		default:
			plan.Map = append(plan.Map, st.Stage)
		}
	}
	return plan, nil
}

// runDistributed executes the pipeline as a cluster plan: the stages run
// across worker nodes and the last phase's tasks write an output dataset. A
// Write sink keeps that dataset, gzip like any other. For an export sink it
// is a staging dataset, stored raw, that the export streams out once; it
// lives under the run's namespace, which is swept once the export is done
// (inside the report's Elapsed and Storage) and on every failure. A
// write-back sink's target is the source itself, and the plan has no output
// dataset: the tasks store the column the stages add into the source.
func (p *Pipeline) runDistributed(ctx context.Context) (report *PipelineReport, err error) {
	sess := p.sess
	src, err := p.Validate()
	if err != nil {
		return nil, err
	}
	plan, err := p.split()
	if err != nil {
		return nil, err
	}
	plan.Manifest = src.Manifest
	plan.Columns = p.sourceColumns(src.Manifest.Columns)
	sink := p.stages[len(p.stages)-1]
	names := p.stageNames()
	p.progress.init(names)

	// Every blob a run writes lives under one sweepable cluster/run
	// namespace: the shuffle temp always, and the output dataset too when
	// the sink is an export (the dataset is only a staging area for the
	// export stream). A Write sink's output lives at its real name, a
	// write-back's in the source. A caller-set TempPrefix (the job server's
	// jobs/<id>/cluster) relocates the namespace so a job's every blob stays
	// under its own prefix.
	runPrefix := fmt.Sprintf("cluster/run-%06d", sess.seq.Add(1))
	if p.tempPrefix != "" {
		runPrefix = fmt.Sprintf("%s/%d", p.tempPrefix, p.tmpSeq.Add(1))
	}
	plan.TempPrefix = runPrefix + "/tmp"
	if sink.dataset == "" {
		plan.OutName, plan.Staging = runPrefix+"/out", true
	} else if sink.dataset != plan.Dataset { // a write-back's is the source
		plan.OutName = sink.dataset
	}
	// Once RunPipeline has returned no worker is alive, so a failed run can
	// sweep the namespace whatever happened: its temp blobs, an export's
	// staging dataset (chunks and manifest) before or after a failed export.
	// The run's own error is the one reported.
	defer func() {
		if err != nil {
			_ = agd.DeletePrefix(sess.store, runPrefix+"/")
		}
	}()

	cfg := cluster.Config{
		Nodes:    p.nodes,
		Executor: sess.exec,
	}
	if p.distTune != nil {
		p.distTune(&cfg)
	}

	report = &PipelineReport{}
	_, measured := p.measure()
	if sink.dataset != "" {
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
	report.Records = res.Manifest.NumRecords()

	if sink.dataset != "" {
		report.Manifest = res.Manifest
		sess.rememberManifest(sink.dataset, res.Manifest)
	} else {
		// Export sinks: stream the stitched dataset out, then sweep the
		// whole run namespace (output chunks and manifest included). No
		// session cache here: the dataset is a staging area about to be
		// swept, so caching its chunks would only hold doomed entries.
		gs, err := agd.OpenManifest(sess.store, res.Manifest).Groups(agd.StreamOptions{Codec: agd.Codec{Exec: sess.exec}})
		if err != nil {
			return nil, err
		}
		report.Records, err = sink.drain(&run{Env: cluster.Env{Ctx: ctx, Exec: sess.exec}, report: report}, gs)
		gs.Close()
		if err != nil {
			return nil, err
		}
		if err := agd.DeletePrefix(sess.store, runPrefix+"/"); err != nil {
			return nil, fmt.Errorf("persona: sweep run %q: %w", runPrefix, err)
		}
	}
	p.progress.finish(report.Records, 0)
	measured(report)
	// Coarse per-stage attribution: the cluster executes the graph as
	// phases, not as locally pumped stages, so only row counts and the
	// run-level wall are meaningful here.
	for _, name := range names {
		report.Stages = append(report.Stages, StageReport{Stage: name})
	}
	report.Stages[len(report.Stages)-1].Records = report.Records
	report.Stages[len(report.Stages)-1].Elapsed = report.Elapsed
	return report, nil
}
