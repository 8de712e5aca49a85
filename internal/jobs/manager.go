package jobs

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"persona"
	"persona/internal/agd"
	"persona/internal/dataflow"
)

// Config configures a Manager. Zero values pick the defaults noted per
// field; negative budgets mean unlimited.
type Config struct {
	// Store holds the journal and every job's blobs — normally the same
	// store the Session reads datasets from, so job states and job outputs
	// share one durability domain (required).
	Store persona.Store
	// Session is the warm runtime jobs execute on (required).
	Session *persona.Session
	// Reference is the genome Align jobs index against; nil servers reject
	// align specs at admission.
	Reference *persona.Genome
	// Workers is how many jobs run concurrently (default 2).
	Workers int
	// MaxQueued bounds the dispatch queue depth (default 64); past it,
	// submissions shed with ErrOverloaded rather than queue unboundedly.
	MaxQueued int
	// MaxQueuedBytes bounds the estimated bytes queued (default 256 MiB).
	MaxQueuedBytes int64
	// BytesPerRecord scales a dataset's record count into the byte estimate
	// admission charges against MaxQueuedBytes (default 256).
	BytesPerRecord int64
	// MaxAttempts is each job's dispatch budget: transient failures requeue
	// until it is spent (default 3).
	MaxAttempts int
	// DefaultDeadline caps an attempt's wall time when the spec does not
	// (default 2m).
	DefaultDeadline time.Duration
	// RetryBase/RetryMax shape the exponential backoff between a job's
	// attempts (defaults 50ms / 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// TenantWeights sets per-tenant dispatch weights for the fair-share
	// queue; unlisted tenants weigh 1.
	TenantWeights map[string]int
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 64
	}
	if c.MaxQueuedBytes == 0 {
		c.MaxQueuedBytes = 256 << 20
	}
	if c.BytesPerRecord <= 0 {
		c.BytesPerRecord = 256
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
}

// job is a Record plus its in-process run state.
type job struct {
	rec    Record
	prog   *persona.Progress  // live per-stage counters of the current attempt
	cancel context.CancelFunc // cancels the in-flight attempt (drain grace expiry)
	done   chan struct{}      // closed once, when the job turns DONE or FAILED
}

// TenantStats is one tenant's cumulative accounting.
type TenantStats struct {
	Weight     int   `json:"weight"`
	Submitted  int64 `json:"submitted"`
	Rejected   int64 `json:"rejected"`
	Dispatched int64 `json:"dispatched"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Requeued   int64 `json:"requeued"`
}

// Stats is a point-in-time view of the service.
type Stats struct {
	Queued      int                    `json:"queued"`
	QueuedBytes int64                  `json:"queued_bytes"`
	Running     int                    `json:"running"`
	Jobs        int                    `json:"jobs"`
	Draining    bool                   `json:"draining"`
	Tenants     map[string]TenantStats `json:"tenants"`
	// Cache is the session chunk cache's cumulative counters (nil when the
	// session runs without a cache) — how much of the fleet's read traffic
	// repeat jobs are absorbing.
	Cache *persona.CacheStats `json:"cache,omitempty"`
	// Cluster is the most recent distributed job's cluster report (nil until
	// a Nodes >= 1 job completes a run).
	Cluster *persona.ClusterReport `json:"cluster,omitempty"`
}

// RecoveryReport summarizes a journal replay at boot.
type RecoveryReport struct {
	// CleanShutdown reports the previous incarnation drained cleanly.
	CleanShutdown bool `json:"clean_shutdown"`
	// Finished journal records were already terminal (kept queryable).
	Finished int `json:"finished"`
	// Interrupted jobs were journaled RUNNING — the previous process died
	// mid-attempt. They requeue (attempt preserved) or fail if the budget
	// is spent.
	Interrupted int `json:"interrupted"`
	// Requeued counts jobs put back on the dispatch queue (interrupted and
	// never-started PENDING records).
	Requeued int `json:"requeued"`
	// Corrupt counts journal records skipped as unreadable.
	Corrupt int `json:"corrupt"`
}

// dispatchLogCap bounds the recent-dispatch ring kept for fairness tests
// and the stats endpoint.
const dispatchLogCap = 256

// Manager is the job engine: admission control, durable journaling, fair
// dispatch, retry, drain and crash recovery over one persona.Session. The
// lifecycle is single-use: NewManager → Recover (replay the journal) →
// Start → serve → Drain or Kill.
type Manager struct {
	cfg     Config
	journal *Journal
	q       *fairQueue

	// runCtx is the parent of every attempt. Kill cancels it, and so does
	// Drain once its workers stop; either way it releases held waits.
	runCtx  context.Context
	stopRun context.CancelFunc
	killed  atomic.Bool

	mu          sync.Mutex
	seq         uint64
	jobs        map[string]*job
	order       []string // job IDs in submission order
	running     int
	draining    bool
	tenants     map[string]*TenantStats
	dispatchLog []string
	lastCluster *persona.ClusterReport

	wg sync.WaitGroup
}

// NewManager builds a Manager; it serves nothing until Start.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Store == nil || cfg.Session == nil {
		return nil, fmt.Errorf("jobs: config needs Store and Session")
	}
	cfg.fill()
	m := &Manager{
		cfg:     cfg,
		journal: NewJournal(cfg.Store),
		jobs:    make(map[string]*job),
		tenants: make(map[string]*TenantStats),
	}
	m.q = newFairQueue(func(tenant string) int { return cfg.TenantWeights[tenant] })
	m.runCtx, m.stopRun = context.WithCancel(context.Background())
	return m, nil
}

// tenantStats returns (creating) a tenant's counters; callers hold mu.
func (m *Manager) tenantStats(tenant string) *TenantStats {
	ts, ok := m.tenants[tenant]
	if !ok {
		w := m.cfg.TenantWeights[tenant]
		if w < 1 {
			w = 1
		}
		ts = &TenantStats{Weight: w}
		m.tenants[tenant] = ts
	}
	return ts
}

// Recover replays the journal before Start: terminal records stay
// queryable, PENDING records requeue, and RUNNING records — the mark of a
// crash mid-attempt — requeue with their attempt count preserved (the
// crashed claim spent one) or fail permanently if the budget is gone.
// Re-running an interrupted job is safe because its every blob lives under
// jobs/<id>/, swept at dispatch.
func (m *Manager) Recover() (RecoveryReport, error) {
	recs, loadErrs, err := m.journal.Load()
	if err != nil {
		return RecoveryReport{}, fmt.Errorf("recover: %w", err)
	}
	clean, _ := m.journal.TakeCleanMarker()
	// A store with no journal at all is a first boot, not a crash.
	if len(recs) == 0 && len(loadErrs) == 0 {
		clean = true
	}
	rep := RecoveryReport{CleanShutdown: clean, Corrupt: len(loadErrs)}

	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range recs {
		j := &job{rec: *rec, done: make(chan struct{})}
		m.jobs[rec.ID] = j
		m.order = append(m.order, rec.ID)
		var n uint64
		if _, err := fmt.Sscanf(rec.ID, "j%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
		ts := m.tenantStats(rec.Tenant)
		ts.Submitted++
		switch rec.State {
		case StateDone, StateFailed:
			close(j.done)
			rep.Finished++
		case StateRunning:
			rep.Interrupted++
			if rec.Attempts >= rec.MaxAttempts {
				j.rec.State = StateFailed
				j.rec.FinishedAt = time.Now().UTC()
				j.rec.Error = "interrupted by crash with attempt budget spent: " + j.rec.Error
				ts.Failed++
				close(j.done)
				cp := j.rec
				m.journal.Put(&cp) // best effort: re-derived next boot
				// Sweep the orphaned partial blobs.
				agd.DeletePrefix(m.cfg.Store, jobPrefix(rec.ID)+"/")
				rep.Finished++
				continue
			}
			j.rec.State = StatePending
			cp := j.rec
			if err := m.journal.Put(&cp); err != nil {
				return rep, fmt.Errorf("recover %q: %w", rec.ID, err)
			}
			m.q.push(j)
			rep.Requeued++
		case StatePending:
			m.q.push(j)
			rep.Requeued++
		}
	}
	return rep, nil
}

// Start launches the worker pool.
func (m *Manager) Start() {
	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// worker runs jobs until the queue closes, exporting each into one buffer
// it keeps: a store keeps no reference to a Put's bytes.
func (m *Manager) worker() {
	defer m.wg.Done()
	var buf bytes.Buffer
	for {
		j := m.q.pop()
		if j == nil {
			return
		}
		buf.Reset()
		m.runJob(j, &buf)
		if buf.Cap() > dataflow.MaxPooledBytes {
			buf = bytes.Buffer{} // too large to keep for the next job
		}
	}
}

// unbuiltIndex is the seed index of an Align stage at admission: Validate
// checks that the stage has one and never reads it, so no index is built.
var unbuiltIndex = new(persona.Index)

// pipeline is a job's Spec.Pipeline: every blob it writes under jobs/<id>/,
// an export's bytes in w, and an Align stage against the session's index
// of the server's reference, or unbuiltIndex at admission (build false).
func (m *Manager) pipeline(spec Spec, id string, build bool, w io.Writer) (*persona.Pipeline, error) {
	var idx *persona.Index
	if spec.Align {
		if m.cfg.Reference == nil {
			return nil, fmt.Errorf("server has no reference genome for align: %w", ErrBadSpec)
		}
		idx = unbuiltIndex
		if build {
			var err error
			if idx, err = m.cfg.Session.Index(m.cfg.Reference); err != nil {
				return nil, err
			}
		}
	}
	p, err := spec.Pipeline(m.cfg.Session, idx, w, outDataset(id))
	if err != nil {
		return nil, err
	}
	return p.TempPrefix(clusterPrefix(id)), nil
}

// admit refuses, with Run's message wrapped in ErrBadSpec, a spec whose
// pipeline Run would refuse, and returns the byte estimate charged against
// the queue budget. It reads the source's manifest and nothing else.
func (m *Manager) admit(spec Spec) (int64, error) {
	p, err := m.pipeline(spec, "", false, io.Discard)
	if err != nil {
		return 0, err
	}
	ds, err := p.Validate()
	if errors.Is(err, persona.ErrRefused) {
		return 0, fmt.Errorf("%w: %w", err, ErrBadSpec)
	}
	if err != nil {
		return 0, err
	}
	return int64(ds.Manifest.NumRecords()) * m.cfg.BytesPerRecord, nil
}

// countRejected counts one refused submit against tenant ("default" when
// empty).
func (m *Manager) countRejected(tenant string) {
	m.mu.Lock()
	m.tenantStats(cmp.Or(tenant, "default")).Rejected++
	m.mu.Unlock()
}

// Submit admits a job: validate, estimate, journal PENDING (the durable
// acknowledgment point — once Submit returns, a crash cannot lose the job),
// then enqueue atomically against the admission budgets. Budget rejections
// unwind the journal record and surface as ErrOverloaded (429) or
// ErrDraining (503).
func (m *Manager) Submit(tenant string, spec Spec) (*JobStatus, error) {
	if tenant == "" {
		tenant = "default"
	}
	est, err := m.admit(spec)
	if err != nil {
		m.countRejected(tenant)
		return nil, fmt.Errorf("submit: %w", err)
	}

	m.mu.Lock()
	if m.draining {
		m.tenantStats(tenant).Rejected++
		m.mu.Unlock()
		return nil, fmt.Errorf("submit: %w", ErrDraining)
	}
	m.seq++
	id := fmt.Sprintf("j%08d", m.seq)
	j := &job{rec: Record{
		ID:          id,
		Tenant:      tenant,
		Spec:        spec,
		State:       StatePending,
		MaxAttempts: m.cfg.MaxAttempts,
		EstBytes:    est,
		SubmittedAt: time.Now().UTC(),
	}, done: make(chan struct{})}
	m.jobs[id] = j
	m.order = append(m.order, id)
	ts := m.tenantStats(tenant)
	ts.Submitted++
	rec := j.rec
	m.mu.Unlock()

	unwind := func() {
		m.mu.Lock()
		delete(m.jobs, id)
		if n := len(m.order); n > 0 && m.order[n-1] == id {
			m.order = m.order[:n-1]
		}
		ts.Submitted--
		ts.Rejected++
		m.mu.Unlock()
	}
	if err := m.journal.Put(&rec); err != nil {
		unwind()
		return nil, fmt.Errorf("submit: %w", err)
	}
	if err := m.q.tryAdmit(j, m.cfg.MaxQueued, m.cfg.MaxQueuedBytes); err != nil {
		unwind()
		m.journal.Delete(id) // best effort; a leftover PENDING re-runs idempotently
		return nil, fmt.Errorf("submit: %w", err)
	}
	st := &JobStatus{Record: rec}
	return st, nil
}

// runJob is one attempt: journal the RUNNING claim, sweep the job's blob
// namespace (idempotent re-run), execute the pipeline, then classify the
// outcome into DONE, FAILED, a backoff requeue, or a drain checkpoint.
func (m *Manager) runJob(j *job, buf *bytes.Buffer) {
	if m.killed.Load() {
		return
	}
	m.mu.Lock()
	j.rec.State = StateRunning
	j.rec.Attempts++
	j.rec.StartedAt = time.Now().UTC()
	j.rec.Error, j.rec.Transient = "", false
	deadline := m.cfg.DefaultDeadline
	if j.rec.Spec.DeadlineMS > 0 {
		deadline = time.Duration(j.rec.Spec.DeadlineMS) * time.Millisecond
	}
	jctx, cancel := context.WithTimeout(m.runCtx, deadline)
	j.cancel = cancel
	j.prog = persona.NewProgress()
	m.running++
	ts := m.tenantStats(j.rec.Tenant)
	ts.Dispatched++
	m.dispatchLog = append(m.dispatchLog, j.rec.Tenant)
	if len(m.dispatchLog) > dispatchLogCap {
		m.dispatchLog = m.dispatchLog[len(m.dispatchLog)-dispatchLogCap:]
	}
	rec := j.rec
	m.mu.Unlock()
	defer func() {
		cancel()
		m.mu.Lock()
		m.running--
		j.cancel = nil
		m.mu.Unlock()
	}()

	// Write-ahead: the attempt claim is durable before any job blob is
	// touched, so a crash from here on is seen as an interrupted RUNNING job.
	if err := m.journalPut(&rec); err != nil {
		m.finish(j, jctx, nil, err)
		return
	}
	// Sweeping the job's blob namespace is the idempotence lever that makes
	// re-running an interrupted job safe.
	if err := agd.DeletePrefix(m.cfg.Store, jobPrefix(rec.ID)+"/"); err != nil {
		m.finish(j, jctx, nil, fmt.Errorf("run %q: sweep: %w", rec.ID, err))
		return
	}
	res, err := m.execute(jctx, j.prog, rec, buf)
	m.finish(j, jctx, res, err)
}

// execute builds and runs the spec's pipeline, an export into buf. Every
// blob the run writes — a distributed run's shuffle and staging blobs, the
// result blob, the output dataset — lands under jobs/<id>/.
func (m *Manager) execute(ctx context.Context, prog *persona.Progress, rec Record, buf *bytes.Buffer) (*ResultMeta, error) {
	p, err := m.pipeline(rec.Spec, rec.ID, true, buf)
	if err != nil {
		return nil, fmt.Errorf("run %q: %w", rec.ID, err)
	}
	report, err := p.Observe(prog).Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("run %q: %w", rec.ID, err)
	}
	if report.Cluster != nil {
		m.mu.Lock()
		m.lastCluster = report.Cluster
		m.mu.Unlock()
	}
	res := &ResultMeta{
		Records: report.Records,
		Elapsed: report.Elapsed,
		Storage: report.Storage,
	}
	for _, st := range report.Stages {
		res.Stages = append(res.Stages, StageMeta{
			Stage: st.Stage, Records: st.Records, Groups: st.Groups, Elapsed: st.Elapsed,
		})
	}
	if rec.Spec.Format != "dataset" {
		if err := m.cfg.Store.Put(resultBlob(rec.ID), buf.Bytes()); err != nil {
			return nil, fmt.Errorf("run %q: %w", rec.ID, err)
		}
		res.ResultBlob = resultBlob(rec.ID)
		res.ResultBytes = int64(buf.Len())
	} else {
		res.OutDataset = outDataset(rec.ID)
	}
	return res, nil
}

// finish classifies an attempt's outcome and journals the transition. On a
// kill, nothing is journaled — the journal keeps the RUNNING claim, exactly
// the state a real process death leaves behind. jctx is the attempt's
// context: a drain checkpoint is detected by the context being cancelled
// (not deadline-expired) while draining, since a torn-down pipeline does
// not reliably surface context.Canceled itself.
func (m *Manager) finish(j *job, jctx context.Context, res *ResultMeta, err error) {
	if m.killed.Load() {
		return
	}
	now := time.Now().UTC()
	var requeueAfter time.Duration

	m.mu.Lock()
	ts := m.tenantStats(j.rec.Tenant)
	switch {
	case err == nil:
		j.rec.State = StateDone
		j.rec.FinishedAt = now
		j.rec.Result = res
		j.rec.Error, j.rec.Transient = "", false
		ts.Completed++
	case m.draining && errors.Is(jctx.Err(), context.Canceled):
		// Checkpointing drain: the grace window expired and cancelled the
		// attempt. Roll the claim back — the interrupted attempt does not
		// count against the budget — and leave the job PENDING for the next
		// incarnation (the queue is closed, so no requeue here).
		j.rec.State = StatePending
		j.rec.Attempts--
		j.rec.Error = "checkpointed by drain: " + err.Error()
		j.rec.Transient = true
		ts.Requeued++
	case IsTransient(err) && j.rec.Attempts < j.rec.MaxAttempts:
		j.rec.State = StatePending
		j.rec.Error = err.Error()
		j.rec.Transient = true
		ts.Requeued++
		requeueAfter = m.backoff(j.rec.Attempts)
	default:
		j.rec.State = StateFailed
		j.rec.FinishedAt = now
		j.rec.Error = err.Error()
		j.rec.Transient = IsTransient(err)
		ts.Failed++
	}
	if j.rec.State.Terminal() {
		// Where Status first shows the end, not after the journal write: the
		// client's next submit overlaps this worker's fsync.
		close(j.done)
	}
	rec := j.rec
	m.mu.Unlock()

	// Best effort: if this journal write is lost to a crash, the job replays
	// from its RUNNING claim and re-runs idempotently.
	m.journalPut(&rec)
	if requeueAfter > 0 {
		time.AfterFunc(requeueAfter, func() {
			// push fails only when the queue closed (drain/kill): the job
			// stays journaled PENDING for the next incarnation.
			m.q.push(j)
		})
	}
}

// backoff returns the delay before attempt n+1: RetryBase doubled per spent
// attempt, capped at RetryMax.
func (m *Manager) backoff(attempts int) time.Duration {
	d := m.cfg.RetryBase
	for i := 1; i < attempts && d < m.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > m.cfg.RetryMax {
		d = m.cfg.RetryMax
	}
	return d
}

// journalPut writes a transition unless the manager is killed (a killed
// process writes nothing — that is the point of the chaos hook).
func (m *Manager) journalPut(rec *Record) error {
	if m.killed.Load() {
		return nil
	}
	return m.journal.Put(rec)
}

// Status returns a job's record plus, for an in-flight attempt, the live
// per-stage progress of its pipeline.
func (m *Manager) Status(id string) (*JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("status %q: %w", id, ErrUnknownJob)
	}
	st := &JobStatus{Record: j.rec}
	prog := j.prog
	m.mu.Unlock()
	if prog != nil {
		st.Progress = prog.Snapshot()
	}
	return st, nil
}

// waitHold bounds how long Wait holds a job that does not end.
const waitHold = 30 * time.Second

// Wait returns a job's status once the job is terminal — at once if it
// already is. It returns the current, non-terminal status instead when ctx
// ends, waitHold passes, Kill is called or Drain has stopped its workers, so
// no waiter outlives the service.
func (m *Manager) Wait(ctx context.Context, id string) (*JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("wait %q: %w", id, ErrUnknownJob)
	}
	hold := time.NewTimer(waitHold)
	defer hold.Stop()
	select {
	case <-j.done:
	case <-ctx.Done():
	case <-hold.C:
	case <-m.runCtx.Done():
	}
	return m.Status(id)
}

// Jobs lists every known job in submission order, optionally filtered by
// tenant.
func (m *Manager) Jobs(tenant string) []*JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*JobStatus, 0, len(m.order))
	for _, id := range m.order {
		j := m.jobs[id]
		if tenant != "" && j.rec.Tenant != tenant {
			continue
		}
		out = append(out, &JobStatus{Record: j.rec})
	}
	return out
}

// Result fetches a DONE job's exported bytes (or, for dataset-format jobs,
// no bytes — the ResultMeta names the output dataset).
func (m *Manager) Result(id string) (*ResultMeta, []byte, error) {
	res, data, _, err := m.result(id)
	return res, data, err
}

// result is Result plus the job's sink format, read under the same lock.
func (m *Manager) result(id string) (*ResultMeta, []byte, string, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, nil, "", fmt.Errorf("result %q: %w", id, ErrUnknownJob)
	}
	state, res, format := j.rec.State, j.rec.Result, j.rec.Spec.Format
	lastErr := j.rec.Error
	m.mu.Unlock()
	if state != StateDone || res == nil {
		if state == StateFailed {
			return nil, nil, "", fmt.Errorf("result %q: job failed: %s: %w", id, lastErr, ErrNotDone)
		}
		return nil, nil, "", fmt.Errorf("result %q: state %s: %w", id, state, ErrNotDone)
	}
	if res.ResultBlob == "" {
		return res, nil, format, nil
	}
	data, err := m.cfg.Store.Get(res.ResultBlob)
	if err != nil {
		return nil, nil, "", fmt.Errorf("result %q: %w", id, err)
	}
	return res, data, format, nil
}

// Stats snapshots the service counters.
func (m *Manager) Stats() Stats {
	depth, qbytes := m.q.load()
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Queued:      depth,
		QueuedBytes: qbytes,
		Running:     m.running,
		Jobs:        len(m.jobs),
		Draining:    m.draining,
		Tenants:     make(map[string]TenantStats, len(m.tenants)),
	}
	for name, ts := range m.tenants {
		s.Tenants[name] = *ts
	}
	if cs, ok := m.cfg.Session.CacheStats(); ok {
		s.Cache = &cs
	}
	s.Cluster = m.lastCluster
	return s
}

// FlushCache empties the session's chunk cache and cached manifests — the
// admin escape hatch after out-of-band store mutation. Returns what was
// dropped.
func (m *Manager) FlushCache() (entries int, bytes int64) {
	return m.cfg.Session.FlushCache()
}

// DispatchOrder returns the recent tenant dispatch sequence (most recent
// last, bounded) — what fairness tests assert weighted interleaving on.
func (m *Manager) DispatchOrder() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.dispatchLog))
	copy(out, m.dispatchLog)
	return out
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain shuts down gracefully: admission stops (submissions get
// ErrDraining), queued jobs stay journaled PENDING, and in-flight jobs get
// until ctx expires to finish — then their attempts are cancelled and
// checkpointed back to PENDING with no budget charge. When every worker has
// stopped, held waits answer and a clean-shutdown marker is journaled so the
// next incarnation knows the journal is at rest.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.draining = true
	m.mu.Unlock()

	m.q.close()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Grace expired: checkpoint in-flight attempts via their contexts.
		m.mu.Lock()
		for _, id := range m.order {
			if c := m.jobs[id].cancel; c != nil {
				c()
			}
		}
		m.mu.Unlock()
		<-done
	}
	m.stopRun() // no attempt is left: this releases held waits
	if m.killed.Load() {
		return fmt.Errorf("drain: %w", ErrDraining)
	}
	return m.journal.WriteCleanMarker(time.Now())
}

// Kill simulates a hard process death (SIGKILL) for chaos tests: all
// journal writes stop instantly, every in-flight attempt's context is
// cancelled, held waits answer, and workers are joined so the process's
// goroutines unwind — but the journal is left exactly as a real kill would
// leave it (RUNNING claims in place, no clean marker). In-process resources
// (chunk pools) still drain, which is what the leak checks assert.
func (m *Manager) Kill() {
	m.killed.Store(true)
	m.q.close()
	m.stopRun()
	m.wg.Wait()
}
