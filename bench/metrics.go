package main

// metricDef is one metric of the benchmark's contract. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; a unit
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the base's median it may worsen by
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics a user of the system sees, measured with tracing
// off and reported as on the reference host (hostprobe.go). The three job
// metrics are service_mix's; see printDriverResult for what the driver's line
// carries under them on the pipeline workloads.
//
// The timing bounds are wider than the issue proposed (10–15 %). This
// 2-vCPU VM slows by up to a half for seconds to minutes at a time; putting
// every rep on the reference host takes most of that out (ten runs of a
// pipeline workload spread 1–8 %), but a slow spell that outlasts a run still
// moves service_mix by a tenth or two (README, "Sizing and steadiness"). The
// driver refuses a benchmark whose ten runs spread past a bound, and a later
// change whose median is worse than its parent's by more than the bound, so
// every metric with a clock in it carries the largest bound the driver
// allows. The allocation counts are exact on the pipeline workloads;
// service_mix's include its pollers, which run longer on a slower host.
//
// The ninth end-to-end number, failed_frac, is reported as the result's
// attempted and failed counts (its bound is zero: any failure fails the
// command); it cannot be a bounded metric because its expected value is 0.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"reads_per_s", "records/s", higher, 0.25},
	{"cpu_s_per_mread", "s/Mrecord", lower, 0.25},
	{"allocs_per_read", "count", lower, 0.15},
	{"alloc_bytes_per_read", "B", lower, 0.10},
	{"jobs_per_s", "jobs/s", higher, 0.25},
	{"job_latency_p50_ms", "ms", lower, 0.25},
	{"job_latency_p95_ms", "ms", lower, 0.25},
}

// perLayer are the metrics of single layers: read from the reports the
// public API returns (R), from the traced pass (T), or from isolated calls
// on the workload's data (M). A metric that does not apply to a workload
// reads 0 there.
var perLayer = []metricDef{
	// persona (R)
	{Name: "persona.busy_s.read", Unit: "s", Better: lower},
	{Name: "persona.busy_s.align", Unit: "s", Better: lower},
	{Name: "persona.busy_s.sort", Unit: "s", Better: lower},
	{Name: "persona.busy_s.markdup", Unit: "s", Better: lower},
	{Name: "persona.busy_s.filter", Unit: "s", Better: lower},
	{Name: "persona.busy_s.export", Unit: "s", Better: lower},
	{Name: "persona.busy_s.write", Unit: "s", Better: lower},
	{Name: "persona.blocked_s.read", Unit: "s", Better: lower},
	{Name: "persona.blocked_s.align", Unit: "s", Better: lower},
	{Name: "persona.blocked_s.sort", Unit: "s", Better: lower},
	{Name: "persona.blocked_s.markdup", Unit: "s", Better: lower},
	{Name: "persona.blocked_s.filter", Unit: "s", Better: lower},
	{Name: "persona.blocked_s.export", Unit: "s", Better: lower},
	{Name: "persona.blocked_s.write", Unit: "s", Better: lower},
	{Name: "persona.pump_overlap", Unit: "ratio", Better: higher},
	{Name: "persona.serial_over_pumped", Unit: "ratio", Better: higher},
	{Name: "persona.cold_pass_s", Unit: "s", Better: lower},
	{Name: "persona.warm_pass_s", Unit: "s", Better: lower},
	// dataflow (R)
	{Name: "dataflow.exec_tasks", Unit: "count", Better: lower},
	{Name: "dataflow.exec_steal_frac", Unit: "ratio", Better: lower},
	{Name: "dataflow.exec_busy_s", Unit: "s", Better: lower},
	{Name: "dataflow.exec_util", Unit: "ratio", Better: higher},
	// agd (T, M, R)
	{Name: "agd.read_self_s", Unit: "s", Better: lower},
	{Name: "agd.read_groups", Unit: "count", Better: lower},
	{Name: "agd.write_self_s", Unit: "s", Better: lower},
	{Name: "agd.decode_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "agd.encode_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "agd.edge_handoff_ns", Unit: "ns", Better: lower},
	{Name: "agd.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "agd.cache_fills", Unit: "count", Better: lower},
	{Name: "agd.cache_evictions", Unit: "count", Better: lower},
	// storage (T, R)
	{Name: "storage.get_count", Unit: "count", Better: lower},
	{Name: "storage.get_bytes", Unit: "B", Better: lower},
	{Name: "storage.get_wait_s", Unit: "s", Better: lower},
	{Name: "storage.put_count", Unit: "count", Better: lower},
	{Name: "storage.put_bytes", Unit: "B", Better: lower},
	{Name: "storage.put_busy_s", Unit: "s", Better: lower},
	{Name: "storage.range_count", Unit: "count", Better: lower},
	{Name: "storage.delete_count", Unit: "count", Better: lower},
	{Name: "storage.self_s", Unit: "s", Better: lower},
	{Name: "storage.bytes_per_read", Unit: "B", Better: lower},
	{Name: "storage.retries", Unit: "count", Better: lower},
	{Name: "storage.hedges", Unit: "count", Better: lower},
	// core / snap (T, M)
	{Name: "core.align_self_s", Unit: "s", Better: lower},
	{Name: "snap.align_read_us_p50", Unit: "us", Better: lower},
	{Name: "snap.align_read_us_p99", Unit: "us", Better: lower},
	{Name: "snap.aligned_frac", Unit: "ratio", Better: higher},
	{Name: "snap.lv_per_read", Unit: "count", Better: lower},
	// agdsort (T, R)
	{Name: "agdsort.sort_self_s", Unit: "s", Better: lower},
	{Name: "agdsort.keys_per_s", Unit: "1/s", Better: higher},
	{Name: "agdsort.spill_runs", Unit: "count", Better: lower},
	{Name: "agdsort.spill_stored_bytes", Unit: "B", Better: lower},
	// markdup / filter (T, R)
	{Name: "markdup.mark_self_s", Unit: "s", Better: lower},
	{Name: "markdup.dup_frac", Unit: "ratio", Better: lower},
	{Name: "filter.run_self_s", Unit: "s", Better: lower},
	{Name: "filter.kept_frac", Unit: "ratio", Better: higher},
	// fastq / sam / bam (T)
	{Name: "fastq.import_self_s", Unit: "s", Better: lower},
	{Name: "fastq.import_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "sam.export_self_s", Unit: "s", Better: lower},
	{Name: "sam.export_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "bam.export_self_s", Unit: "s", Better: lower},
	{Name: "bam.export_mb_per_s", Unit: "MB/s", Better: higher},
	// shuffle / cluster (R, T, M)
	{Name: "cluster.shuffle_bytes", Unit: "B", Better: lower},
	{Name: "cluster.partition_skew", Unit: "ratio", Better: lower},
	{Name: "cluster.node_imbalance", Unit: "ratio", Better: lower},
	{Name: "cluster.reassigned", Unit: "count", Better: lower},
	{Name: "cluster.map_s", Unit: "s", Better: lower},
	{Name: "cluster.shuffle_s", Unit: "s", Better: lower},
	{Name: "cluster.reduce_s", Unit: "s", Better: lower},
	{Name: "cluster.wall_over_fused", Unit: "ratio", Better: lower},
	{Name: "cluster.phase_rtt_us_p50", Unit: "us", Better: lower},
	{Name: "cluster.align_n2_reads_per_s", Unit: "records/s", Better: higher},
	// jobs (R, M)
	{Name: "jobs.submit_ms_p50", Unit: "ms", Better: lower},
	{Name: "jobs.result_ms_p50", Unit: "ms", Better: lower},
	{Name: "jobs.queue_wait_ms_p50", Unit: "ms", Better: lower},
	{Name: "jobs.run_ms_p50", Unit: "ms", Better: lower},
	{Name: "jobs.rejected", Unit: "count", Better: lower},
	{Name: "jobs.requeued", Unit: "count", Better: lower},
	{Name: "jobs.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "jobs.journal_put_ms_p50", Unit: "ms", Better: lower},
	// trace (T)
	{Name: "trace.coverage", Unit: "ratio", Better: higher},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: lower},
}

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
