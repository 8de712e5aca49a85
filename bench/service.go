package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"persona"
	"persona/internal/agd"
	"persona/internal/jobs"
)

const (
	serviceClients = 2 // closed loop: each waits for its result
	serviceRound   = 4 // jobs a client runs in one round
	// serviceRoundsPerServer is how many timed rounds a server takes before
	// it is replaced by a fresh one, outside the timer: a job's cost grows
	// with the jobs the store already holds (DirStore.List walks the whole
	// store for every job's sweep — 0.54 s a round after 6 jobs, 1.2 s after
	// 1,300), so a rep is only comparable with another at the same age.
	serviceRoundsPerServer = 4
	servicePoll            = 2 * time.Millisecond // client Wait poll
	serviceWarmup          = 6                    // untimed jobs: index build, cache fill
	// serviceTracedSeconds is how long the traced service run lasts.
	serviceTracedSeconds = 1.5
)

// Spec A exports SAM, spec B materializes a dataset; a client alternates
// them, and the two clients start on different ones.
var (
	specA = jobs.Spec{Dataset: dataset, Align: true, Sort: "location", MarkDup: true, Format: "sam"}
	specB = jobs.Spec{Dataset: dataset, Align: true, Sort: "metadata", MappedOnly: true, Format: "dataset"}
)

// service is the job server under a closed loop of small jobs.
type service struct {
	e      *env
	fx     *fixture
	refSAM []byte // every spec-A result must equal this
	mapped uint64 // every spec-B result must hold this many records
	srv    *server
	rounds int // timed rounds srv has taken
}

// server is one running job service: a durable DirStore, one warm session,
// a two-worker manager, and its HTTP front end.
type server struct {
	dir  string
	sess *persona.Session
	mgr  *jobs.Manager
	http *httptest.Server
}

// startServer brings a job service up over the fixture's dataset in a fresh
// directory. wrap, when non-nil, interposes on the store the session and the
// journal share.
func (s *service) startServer(wrap func(agd.BlobStore) agd.BlobStore) (*server, error) {
	dirStore, dir, err := s.e.dirClone(s.fx.store, "service")
	if err != nil {
		return nil, err
	}
	var store agd.BlobStore = dirStore
	if wrap != nil {
		store = wrap(store)
	}
	sess := persona.NewSession(store, persona.SessionOptions{})
	mgr, err := jobs.NewManager(jobs.Config{Store: store, Session: sess, Reference: s.fx.genome, Workers: 2})
	if err == nil {
		_, err = mgr.Recover()
	}
	if err != nil {
		sess.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start job manager: %w", err)
	}
	mgr.Start()
	return &server{dir: dir, sess: sess, mgr: mgr, http: httptest.NewServer(mgr.Handler())}, nil
}

func (sv *server) stop() {
	sv.http.Close()
	sv.mgr.Kill()
	sv.sess.Close()
	os.RemoveAll(sv.dir)
}

func (sv *server) client(tenant string) *jobs.Client {
	return &jobs.Client{Base: sv.http.URL, Tenant: tenant, HTTP: sv.http.Client()}
}

func setupService(ctx context.Context, e *env, seed int64) (instance, error) {
	fx, err := buildFixture(seed, serviceSizes, false)
	if err != nil {
		return nil, err
	}
	// Goldens: the staged free functions on a plain MemStore.
	ref, err := cloneMem(fx.store)
	if err != nil {
		return nil, err
	}
	var sam bytes.Buffer
	if _, _, err = persona.Align(ctx, ref, dataset, fx.index, persona.AlignOptions{}); err == nil {
		if _, err = persona.Sort(ctx, ref, dataset, persona.ByLocation, "s"); err == nil {
			if _, err = persona.MarkDuplicates(ctx, ref, "s"); err == nil {
				_, err = persona.ExportSAM(ctx, ref, "s", &sam)
			}
		}
	}
	var stats persona.FilterStats
	if err == nil {
		_, stats, err = persona.Filter(ctx, ref, dataset, persona.FilterMappedOnly(), "m")
	}
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	s := &service{e: e, fx: fx, refSAM: sam.Bytes(), mapped: stats.Kept}
	if err := s.freshServer(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// freshServer replaces the workload's server with a new, warmed-up one.
func (s *service) freshServer(ctx context.Context) error {
	if s.srv != nil {
		s.srv.stop()
		s.srv = nil
	}
	sv, err := s.startServer(nil)
	if err != nil {
		return err
	}
	if err := s.warmUp(ctx, sv); err != nil {
		sv.stop()
		return err
	}
	s.srv, s.rounds = sv, 0
	return nil
}

// warmUp runs the untimed jobs that build the index and fill the cache.
func (s *service) warmUp(ctx context.Context, sv *server) error {
	c := sv.client("warmup")
	for k := 0; k < serviceWarmup; k++ {
		if _, err := s.oneJob(ctx, c, k, nil); err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
	}
	return nil
}

func (s *service) input() sizes { return s.fx.sizes }
func (s *service) close() {
	if s.srv != nil {
		s.srv.stop()
	}
}

// jobTiming is one job as its client saw it, plus the server's own
// timestamps from the job record.
type jobTiming struct {
	total, submit, result time.Duration
	queueWait, run        time.Duration
	records               uint64
}

// oneJob submits job k of a client's sequence, waits for it and fetches and
// checks its result. The comparison with the golden happens after the
// latency's end timestamp.
func (s *service) oneJob(ctx context.Context, c *jobs.Client, k int, tr *tracer) (jobTiming, error) {
	spec, isA := specA, k%2 == 0
	if !isA {
		spec = specB
	}
	leaf := func(op string) func() {
		if tr == nil {
			return func() {}
		}
		id := tr.beginLeaf("jobs", op, c.Tenant)
		return func() { tr.end(id, 0, 0) }
	}
	var jt jobTiming
	t0 := time.Now()
	done := leaf("submit")
	st, err := c.Submit(ctx, spec)
	done()
	if err != nil {
		return jt, err
	}
	t1 := time.Now()
	done = leaf("wait")
	fin, err := c.Wait(ctx, st.ID, servicePoll)
	done()
	if err != nil {
		return jt, err
	}
	if fin.State != jobs.StateDone {
		return jt, fmt.Errorf("job %s ended %s: %s", fin.ID, fin.State, fin.Error)
	}
	t2 := time.Now()
	done = leaf("result")
	data, _, err := c.Result(ctx, st.ID)
	done()
	if err != nil {
		return jt, err
	}
	t3 := time.Now()
	jt = jobTiming{
		total: t3.Sub(t0), submit: t1.Sub(t0), result: t3.Sub(t2),
		queueWait: fin.StartedAt.Sub(fin.SubmittedAt), run: fin.FinishedAt.Sub(fin.StartedAt),
	}
	if isA {
		if !bytes.Equal(data, s.refSAM) {
			return jt, fmt.Errorf("job %s: SAM differs from reference (%d bytes, reference %d)", fin.ID, len(data), len(s.refSAM))
		}
		jt.records = fin.Result.Records
		return jt, nil
	}
	var meta jobs.ResultMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return jt, fmt.Errorf("job %s: result meta: %w", fin.ID, err)
	}
	if meta.Records != s.mapped {
		return jt, fmt.Errorf("job %s: wrote %d records, %d are mapped", fin.ID, meta.Records, s.mapped)
	}
	jt.records = meta.Records
	return jt, nil
}

// round drives the closed loop for one round: serviceClients clients at
// once, each submitting serviceRound jobs, spec A and spec B in turn — the
// two clients start on different ones — and its next job only once the
// previous one's result is in hand. It returns the jobs' timings; the first
// failure fails the round.
func (s *service) round(ctx context.Context, sv *server, tr *tracer) ([]jobTiming, error) {
	var mu sync.Mutex
	var timings []jobTiming
	var first error
	var wg sync.WaitGroup
	for i := 0; i < serviceClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := sv.client(fmt.Sprintf("t%d", i))
			for k := i; k < i+serviceRound; k++ {
				jt, err := s.oneJob(ctx, c, k, tr)
				mu.Lock()
				if err == nil {
					timings = append(timings, jt)
				} else if first == nil {
					first = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return timings, first
}

func msOf(jts []jobTiming, f func(jobTiming) time.Duration) []float64 {
	out := make([]float64, len(jts))
	for i, jt := range jts {
		out[i] = float64(f(jt).Nanoseconds()) / 1e6
	}
	return out
}

// rep is one timed round against the warm server.
func (s *service) rep(ctx context.Context) (repOutcome, error) {
	if s.rounds == serviceRoundsPerServer {
		if err := s.freshServer(ctx); err != nil {
			return repOutcome{}, err
		}
	}
	s.rounds++
	before := s.srv.mgr.Stats()
	var timings []jobTiming
	u, err := timed(func() error {
		var err error
		timings, err = s.round(ctx, s.srv, nil)
		return err
	})
	if err != nil {
		return repOutcome{}, err
	}
	after := s.srv.mgr.Stats()
	var records uint64
	for _, jt := range timings {
		records += jt.records
	}
	layer := map[string]float64{
		"jobs.submit_ms_p50":     median(msOf(timings, func(j jobTiming) time.Duration { return j.submit })),
		"jobs.result_ms_p50":     median(msOf(timings, func(j jobTiming) time.Duration { return j.result })),
		"jobs.queue_wait_ms_p50": median(msOf(timings, func(j jobTiming) time.Duration { return j.queueWait })),
		"jobs.run_ms_p50":        median(msOf(timings, func(j jobTiming) time.Duration { return j.run })),
	}
	var rejected, requeued int64
	for tenant, ts := range after.Tenants {
		rejected += ts.Rejected - before.Tenants[tenant].Rejected
		requeued += ts.Requeued - before.Tenants[tenant].Requeued
	}
	layer["jobs.rejected"] = float64(rejected)
	layer["jobs.requeued"] = float64(requeued)
	if after.Cache != nil && before.Cache != nil {
		d := after.Cache.Delta(*before.Cache)
		layer["jobs.cache_hit_ratio"] = ratio(float64(d.Hits), float64(d.Hits+d.Misses))
		layer["agd.cache_hit_ratio"] = layer["jobs.cache_hit_ratio"]
		layer["agd.cache_fills"] = float64(d.Fills)
		layer["agd.cache_evictions"] = float64(d.Evictions)
	}
	return repOutcome{usage: u, records: records, layer: layer, jobs: timings}, nil
}

// layers runs a short traced load against a second server whose store is
// wrapped: the store spans and the client-call spans are the trace.
func (s *service) layers(ctx context.Context, tr *tracer, m *measurement) (map[string]float64, error) {
	out := make(map[string]float64)
	sv, err := s.startServer(func(inner agd.BlobStore) agd.BlobStore { return newTraceStore(inner, tr) })
	if err != nil {
		return nil, err
	}
	defer sv.stop()
	if err := s.warmUp(ctx, sv); err != nil {
		return nil, err
	}
	root := tr.beginRep()
	rep := tr.rep
	var timings []jobTiming
	for start := time.Now(); time.Since(start).Seconds() < serviceTracedSeconds; {
		jts, err := s.round(ctx, sv, tr)
		if err != nil {
			return nil, fmt.Errorf("traced round: %w", err)
		}
		timings = append(timings, jts...)
	}
	tr.end(root, 0, 0)
	var records float64
	for _, jt := range timings {
		records += float64(jt.records)
	}
	// The store counters are per completed job (bytes_per_read per record):
	// the traced run's length in jobs varies, a job's store traffic does not.
	// No self time: concurrent clients leave no single chain to attribute.
	for k, v := range traceMetrics([]tracedRep{analyzeRep(tr.snapshot(), rep)}, records) {
		switch {
		case k == "storage.bytes_per_read":
			out[k] = v
		case strings.HasPrefix(k, "storage.") && k != "storage.self_s":
			out[k] = v / float64(len(timings))
		}
	}

	snap, err := snapMetrics(s.fx)
	if err != nil {
		return nil, err
	}
	maps.Copy(out, snap)
	if out["jobs.journal_put_ms_p50"], err = journalPutMS(s.e); err != nil {
		return nil, err
	}
	out["agd.edge_handoff_ns"] = edgeHandoffNS()
	return out, nil
}
