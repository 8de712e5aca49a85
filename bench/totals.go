package main

import (
	"strings"

	"persona"
)

// reportTotals folds the reports the public API already returns from one
// rep — a PipelineReport per pipeline the rep ran — into the per-layer
// numbers that cost nothing to read.
type reportTotals struct {
	wall          float64 // Σ pipeline Elapsed, seconds
	busy, blocked map[string]float64
	pumped        bool

	tasks, steals int64
	execBusy      float64

	cache          *persona.CacheStats
	retries, hedge int64
	spillRuns      int
	spillStored    int64
	dups           persona.DupStats
	filtered       persona.FilterStats
	cluster        *persona.ClusterReport
}

// stageKey maps a report's stage name to the metric suffix: the sort key
// and the export format are dropped, and a FASTQ import counts as the
// pipeline's read stage, which is what it is.
func stageKey(stage string) string {
	switch {
	case strings.HasPrefix(stage, "sort"):
		return "sort"
	case strings.HasPrefix(stage, "export"):
		return "export"
	case stage == "import-fastq":
		return "read"
	}
	return stage
}

func (t *reportTotals) add(r *persona.PipelineReport) {
	if t.busy == nil {
		t.busy, t.blocked = make(map[string]float64), make(map[string]float64)
	}
	t.wall += r.Elapsed.Seconds()
	t.pumped = t.pumped || r.Pumped
	for _, st := range r.Stages {
		k := stageKey(st.Stage)
		t.busy[k] += st.Busy.Seconds()
		t.blocked[k] += st.Blocked.Seconds()
	}
	t.tasks += r.Executor.Completed
	t.steals += r.Executor.Steals
	t.execBusy += r.Executor.Busy.Seconds()
	if r.Cache != nil {
		if t.cache == nil {
			t.cache = &persona.CacheStats{}
		}
		t.cache.Hits += r.Cache.Hits
		t.cache.Misses += r.Cache.Misses
		t.cache.Fills += r.Cache.Fills
		t.cache.Evictions += r.Cache.Evictions
	}
	if r.Storage != nil {
		t.retries += r.Storage.Retries
		t.hedge += r.Storage.Hedges
	}
	if r.Spill != nil {
		t.spillRuns += r.Spill.Runs
		t.spillStored += r.Spill.StoredBytes
	}
	t.dups.Reads += r.Dups.Reads
	t.dups.Duplicates += r.Dups.Duplicates
	t.filtered.In += r.Filtered.In
	t.filtered.Kept += r.Filtered.Kept
	if r.Cluster != nil {
		t.cluster = r.Cluster
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics renders the totals under the issue's metric names.
func (t *reportTotals) metrics() map[string]float64 {
	m := make(map[string]float64)
	var busySum float64
	for k, v := range t.busy {
		m["persona.busy_s."+k] = v
		busySum += v
	}
	for k, v := range t.blocked {
		m["persona.blocked_s."+k] = v
	}
	if t.wall > 0 {
		m["persona.pump_overlap"] = busySum / t.wall
		m["dataflow.exec_tasks"] = float64(t.tasks)
		m["dataflow.exec_steal_frac"] = ratio(float64(t.steals), float64(t.tasks))
		m["dataflow.exec_busy_s"] = t.execBusy
		m["dataflow.exec_util"] = t.execBusy / (t.wall * float64(workers()))
	}
	if c := t.cache; c != nil {
		m["agd.cache_hit_ratio"] = ratio(float64(c.Hits), float64(c.Hits+c.Misses))
		m["agd.cache_fills"] = float64(c.Fills)
		m["agd.cache_evictions"] = float64(c.Evictions)
	}
	m["storage.retries"] = float64(t.retries)
	m["storage.hedges"] = float64(t.hedge)
	m["agdsort.spill_runs"] = float64(t.spillRuns)
	m["agdsort.spill_stored_bytes"] = float64(t.spillStored)
	if t.dups.Reads > 0 {
		m["markdup.dup_frac"] = ratio(float64(t.dups.Duplicates), float64(t.dups.Reads))
	}
	if t.filtered.In > 0 {
		m["filter.kept_frac"] = ratio(float64(t.filtered.Kept), float64(t.filtered.In))
	}
	if c := t.cluster; c != nil {
		m["cluster.shuffle_bytes"] = float64(c.ShuffleBytes)
		m["cluster.partition_skew"] = c.PartitionSkew
		m["cluster.node_imbalance"] = c.Imbalance
		m["cluster.reassigned"] = float64(c.Reassigned)
	}
	return m
}
