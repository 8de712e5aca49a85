package jobs

// Manager suite: the full job lifecycle over a real Session — durable
// admission, classified rejections, transient-failure retry, graceful drain
// with checkpointing, and weighted fair-share dispatch.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"persona"
)

// newTestManager builds a started manager over store with fast retries.
func newTestManager(t testing.TB, store persona.Store, g *persona.Genome, mut func(*Config)) (*Manager, *persona.Session) {
	t.Helper()
	sess := persona.NewSession(store, persona.SessionOptions{})
	t.Cleanup(sess.Close)
	cfg := Config{
		Store:     store,
		Session:   sess,
		Reference: g,
		Workers:   2,
		RetryBase: time.Millisecond,
		RetryMax:  4 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	m.Start()
	return m, sess
}

// TestJobLifecycle: a submitted WGS job runs to DONE with journaled
// transitions, live progress along the way, and a result byte-identical to
// the same pipeline run directly; every blob it wrote sits under jobs/<id>/.
func TestJobLifecycle(t *testing.T) {
	store := persona.NewMemStore()
	g := importTestDataset(t, store, "ds")
	want := directWGS(t, store, g)
	m, sess := newTestManager(t, store, g, nil)

	st, err := m.Submit("acme", Spec{Dataset: "ds", Align: true, Sort: "location", MarkDup: true, Format: "sam"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePending || st.ID == "" {
		t.Fatalf("submit status = %+v, want a PENDING id", st.Record)
	}
	fin := waitTerminal(t, m, st.ID, 30*time.Second)
	if fin.State != StateDone || fin.Attempts != 1 {
		t.Fatalf("final = %s after %d attempts (%s), want DONE in 1", fin.State, fin.Attempts, fin.Error)
	}
	if fin.Result == nil || fin.Result.Records == 0 || len(fin.Result.Stages) != 5 {
		t.Fatalf("result meta = %+v, want 5 stages and records", fin.Result)
	}
	if len(fin.Progress) != 5 {
		t.Fatalf("progress has %d stages, want 5", len(fin.Progress))
	}
	for _, sp := range fin.Progress {
		if !sp.Done {
			t.Fatalf("stage %s not marked done after completion", sp.Stage)
		}
	}
	res, data, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("job SAM differs from direct pipeline run (%d vs %d bytes)", len(data), len(want))
	}
	if res.ResultBlob != "jobs/"+st.ID+"/result" {
		t.Fatalf("result blob = %q", res.ResultBlob)
	}
	// The job's blob namespace holds exactly the result.
	names, err := store.List("jobs/" + st.ID + "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != res.ResultBlob {
		t.Fatalf("job namespace = %v, want only the result blob", names)
	}
	checkNoLeak(t, sess)

	// The DONE record is journaled: a fresh manager over the same store
	// serves the result without re-running anything. The record is written
	// after Status reports it; Drain joins the workers, so it has landed.
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m2, _ := newTestManager(t, store, g, nil)
	st2, err := m2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone {
		t.Fatalf("replayed state = %s, want DONE", st2.State)
	}
	if _, data2, err := m2.Result(st.ID); err != nil || !bytes.Equal(data2, want) {
		t.Fatalf("replayed result fetch: %v", err)
	}
}

// TestDoneReportedBeforeJournaled: the DONE record's journal write is off the
// client's path — while it is held the job already reports DONE and counts
// its completion — and Drain returns only once it has landed, so the next
// incarnation replays DONE.
func TestDoneReportedBeforeJournaled(t *testing.T) {
	inner := persona.NewMemStore()
	g := importTestDataset(t, inner, "ds")
	store := &holdPutStore{
		Store: inner, prefix: journalPrefix, substr: `"state":"DONE"`,
		reached: make(chan struct{}), release: make(chan struct{}),
	}
	m, _ := newTestManager(t, store, g, nil)
	var released sync.Once
	release := func() { released.Do(func() { close(store.release) }) }
	t.Cleanup(release)

	st, err := m.Submit("acme", Spec{Dataset: "ds", Format: "fastq"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-store.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the DONE journal write")
	}
	if fin := waitTerminal(t, m, st.ID, 30*time.Second); fin.State != StateDone {
		t.Fatalf("state = %s (%s) while the DONE journal write is held, want DONE", fin.State, fin.Error)
	}
	if got := m.Stats().Tenants["acme"].Completed; got != 1 {
		t.Fatalf("completed = %d while the DONE journal write is held, want 1", got)
	}
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while the DONE journal write was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	m2, _ := newTestManager(t, inner, g, nil)
	if st2, err := m2.Status(st.ID); err != nil || st2.State != StateDone {
		t.Fatalf("replayed status = %+v, %v, want DONE", st2, err)
	}
}

// TestSubmitClassifiedRejections: impossible specs and missing datasets are
// rejected at admission with permanent classifications and 4xx mappings —
// no worker attempt is burned.
func TestSubmitClassifiedRejections(t *testing.T) {
	store := persona.NewMemStore()
	g := importTestDataset(t, store, "ds")
	m, _ := newTestManager(t, store, g, func(c *Config) { c.Reference = nil })

	cases := []struct {
		name   string
		spec   Spec
		sent   error
		status int
	}{
		{"missing dataset name", Spec{Format: "sam"}, ErrBadSpec, 400},
		{"bad format", Spec{Dataset: "ds", Format: "vcf"}, ErrBadSpec, 400},
		{"bad sort key", Spec{Dataset: "ds", Sort: "name", Format: "fastq"}, ErrBadSpec, 400},
		{"dedup without markdup", Spec{Dataset: "ds", Align: true, Dedup: true, Format: "sam"}, ErrBadSpec, 400},
		{"unknown dataset", Spec{Dataset: "nope", Format: "fastq"}, nil, 404},
		{"sam needs alignment", Spec{Dataset: "ds", Format: "sam"}, ErrBadSpec, 400},
		{"align without reference", Spec{Dataset: "ds", Align: true, Format: "sam"}, ErrBadSpec, 400},
		// Numbers from the request body, range-checked before they size
		// anything: the aligner's scratch, a uint8 threshold, a Duration.
		{"negative max_dist", Spec{Dataset: "ds", MaxDist: -1, Format: "fastq"}, ErrBadSpec, 400},
		{"max_dist past the bound", Spec{Dataset: "ds", MaxDist: maxDistLimit + 1, Format: "fastq"}, ErrBadSpec, 400},
		{"negative min_mapq", Spec{Dataset: "ds", MinMapQ: -1, Format: "fastq"}, ErrBadSpec, 400},
		{"min_mapq past 255", Spec{Dataset: "ds", MinMapQ: 256, Format: "fastq"}, ErrBadSpec, 400},
		{"negative deadline", Spec{Dataset: "ds", DeadlineMS: -1, Format: "fastq"}, ErrBadSpec, 400},
		{"deadline past a Duration", Spec{Dataset: "ds", DeadlineMS: math.MaxInt64/int64(time.Millisecond) + 1, Format: "fastq"}, ErrBadSpec, 400},
	}
	for _, tc := range cases {
		_, err := m.Submit("acme", tc.spec)
		if err == nil {
			t.Fatalf("%s: submit succeeded", tc.name)
		}
		if tc.sent != nil && !errors.Is(err, tc.sent) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.sent)
		}
		if IsTransient(err) {
			t.Fatalf("%s: classified transient", tc.name)
		}
		if status, _ := HTTPStatus(err); status != tc.status {
			t.Fatalf("%s: status = %d, want %d", tc.name, status, tc.status)
		}
	}
	if got := m.Stats().Tenants["acme"].Rejected; got != int64(len(cases)) {
		t.Fatalf("rejected count = %d, want %d", got, len(cases))
	}
}

// TestSubmitRefusesWhatRunRefuses: over HTTP, a spec whose pipeline Run
// refuses is a 400 carrying Run's message, with no attempt run and no
// journal record left; so is a body past the size cap.
func TestSubmitRefusesWhatRunRefuses(t *testing.T) {
	store := persona.NewMemStore()
	g := importTestDataset(t, store, "ds")
	m, sess := newTestManager(t, store, g, nil)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// What Run says of the same graph, built by hand.
	idx, err := sess.Index(g)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := sess.Read("ds").Align(idx, persona.AlignOptions{}).Sort(persona.ByMetadata).MarkDuplicates().
		ExportSAM(io.Discard).Distributed(2).Run(context.Background())
	if runErr == nil {
		t.Fatal("Run accepted a distributed markdup after a metadata sort")
	}
	cases := []struct{ name, body, want string }{
		{"distributed markdup after a metadata sort",
			`{"align":true,"sort":"metadata","markdup":true,"format":"sam","nodes":2,"dataset":"ds"}`, runErr.Error()},
		{"sam of an unaligned dataset", `{"dataset":"ds","format":"sam"}`,
			"persona: export-sam needs alignment results: the stream has no results column"},
		{"body past the cap", `{"dataset":"ds","format":"fastq","pad":"` + strings.Repeat("x", maxSpecBytes) + `"}`,
			"request body too large"},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 400 || !strings.Contains(body.Error, tc.want) {
			t.Errorf("%s: %d %q (%v), want 400 with %q", tc.name, resp.StatusCode, body.Error, err, tc.want)
		}
	}
	if s := m.Stats(); s.Jobs != 0 || s.Tenants["default"].Submitted != 0 || s.Tenants["default"].Dispatched != 0 {
		t.Errorf("stats after the refusals = %+v, want no job", s)
	}
	if names, err := store.List(journalPrefix); err != nil || len(names) != 0 {
		t.Errorf("journal after the refusals = %v, %v, want empty", names, err)
	}
}

// countGetStore counts Gets.
type countGetStore struct {
	persona.Store
	gets atomic.Int64
}

func (s *countGetStore) Get(name string) ([]byte, error) {
	s.gets.Add(1)
	return s.Store.Get(name)
}

// TestAdmissionReadsOnlyTheManifest: admitting a spec reads one blob, the
// source's manifest, and builds no seed index. The server's reference is a
// genome no index can be built from, so its align specs are admitted only
// because admission never builds one.
func TestAdmissionReadsOnlyTheManifest(t *testing.T) {
	inner := persona.NewMemStore()
	importTestDataset(t, inner, "ds")
	empty := &persona.Genome{}
	if _, err := persona.BuildIndex(empty); err == nil {
		t.Fatal("the empty genome has an index")
	}
	store := &countGetStore{Store: inner}
	sess := persona.NewSession(store, persona.SessionOptions{})
	t.Cleanup(sess.Close)
	// Never started: admission is all that happens.
	m, err := NewManager(Config{Store: store, Session: sess, Reference: empty})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{
		{Dataset: "ds", Format: "fastq"},
		{Dataset: "ds", Align: true, Sort: "location", MarkDup: true, Format: "sam"},
		{Dataset: "ds", Align: true, Sort: "metadata", MappedOnly: true, Format: "dataset", Nodes: 2},
	} {
		before := store.gets.Load()
		if _, err := m.Submit("acme", spec); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if n := store.gets.Load() - before; n != 1 {
			t.Errorf("%+v: admission read %d blobs, want the manifest alone", spec, n)
		}
	}
}

// TestEmptyResultFailsOnce: a run left with no records — every read
// filtered away after the align, sort and markdup — fails permanently on
// its first attempt; a retry would redo the whole run to the same end.
func TestEmptyResultFailsOnce(t *testing.T) {
	store := persona.NewMemStore()
	g := importTestDataset(t, store, "ds")
	m, sess := newTestManager(t, store, g, nil)
	st, err := m.Submit("acme", Spec{Dataset: "ds", Align: true, Sort: "location", MarkDup: true, MinMapQ: 255, Format: "dataset"})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, st.ID, 30*time.Second)
	if fin.State != StateFailed || fin.Attempts != 1 || fin.Transient || !strings.Contains(fin.Error, "no records") {
		t.Fatalf("final = %s after %d attempts (transient=%v): %s, want FAILED after 1, permanent, no records",
			fin.State, fin.Attempts, fin.Transient, fin.Error)
	}
	if names, err := store.List("jobs/" + st.ID + "/"); err != nil || len(names) != 0 {
		t.Fatalf("job namespace = %v, %v, want empty", names, err)
	}
	waitNoLeak(t, sess)
}

// TestTransientFailureRetries: a deterministic transient fault on the
// result write fails attempt 1; the job requeues with backoff and attempt 2
// succeeds, with the retry visible in the record and tenant accounting.
func TestTransientFailureRetries(t *testing.T) {
	inner := persona.NewMemStore()
	g := importTestDataset(t, inner, "ds")
	store := &failNStore{Store: inner, substr: "/result", n: 1}
	m, sess := newTestManager(t, store, g, nil)

	st, err := m.Submit("acme", Spec{Dataset: "ds", Format: "fastq"})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, st.ID, 30*time.Second)
	if fin.State != StateDone {
		t.Fatalf("final = %s (%s), want DONE", fin.State, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one transient failure, one success)", fin.Attempts)
	}
	ts := m.Stats().Tenants["acme"]
	if ts.Requeued != 1 || ts.Completed != 1 || ts.Dispatched != 2 {
		t.Fatalf("tenant stats = %+v, want 1 requeue, 1 completion, 2 dispatches", ts)
	}
	checkNoLeak(t, sess)
}

// TestAttemptBudgetExhaustion: a fault that outlives the attempt budget
// fails the job permanently with the transient classification recorded.
func TestAttemptBudgetExhaustion(t *testing.T) {
	inner := persona.NewMemStore()
	g := importTestDataset(t, inner, "ds")
	store := &failNStore{Store: inner, substr: "/result", n: 100}
	m, _ := newTestManager(t, store, g, func(c *Config) { c.MaxAttempts = 2 })

	st, err := m.Submit("acme", Spec{Dataset: "ds", Format: "fastq"})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, st.ID, 30*time.Second)
	if fin.State != StateFailed || fin.Attempts != 2 || !fin.Transient {
		t.Fatalf("final = %s after %d attempts (transient=%v), want FAILED after 2 transient", fin.State, fin.Attempts, fin.Transient)
	}
	if _, _, err := m.Result(st.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("result of failed job = %v, want ErrNotDone", err)
	}
}

// TestDrainCheckpointsInFlight: a drain whose grace expires cancels the
// in-flight attempt, rolls it back to PENDING with no budget charge, writes
// the clean-shutdown marker — and the next incarnation resumes the job to
// an identical result.
func TestDrainCheckpointsInFlight(t *testing.T) {
	inner := persona.NewMemStore()
	g := importTestDataset(t, inner, "ds")
	want := directWGS(t, inner, g)
	gate := make(chan struct{})
	gated := &gateStore{Store: inner, substr: "chunk-000002", gate: gate}
	m, sess := newTestManager(t, gated, g, func(c *Config) { c.Workers = 1 })

	st, err := m.Submit("acme", Spec{Dataset: "ds", Align: true, Sort: "location", MarkDup: true, Format: "sam"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "job to start", func() bool {
		cur, err := m.Status(st.ID)
		return err == nil && cur.State == StateRunning
	})
	st2, err := m.Submit("acme", Spec{Dataset: "ds", Format: "fastq"})
	if err != nil {
		t.Fatal(err) // queued behind the gated job; must survive the drain too
	}

	// Grace already expired: drain checkpoints immediately.
	drainCtx, cancel := context.WithCancel(context.Background())
	cancel()
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(drainCtx) }()
	time.Sleep(20 * time.Millisecond) // let the cancellation reach the pipeline
	close(gate)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("acme", Spec{Dataset: "ds", Format: "fastq"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}
	cur, err := m.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cur.State != StatePending || cur.Attempts != 0 {
		t.Fatalf("checkpointed job = %s after %d attempts, want PENDING with the attempt uncharged", cur.State, cur.Attempts)
	}
	waitNoLeak(t, sess)

	// Next incarnation: clean shutdown detected, both jobs resume and finish.
	sess2 := persona.NewSession(inner, persona.SessionOptions{})
	defer sess2.Close()
	m2, err := NewManager(Config{Store: inner, Session: sess2, Reference: g, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CleanShutdown || rep.Requeued != 2 {
		t.Fatalf("recovery = %+v, want clean shutdown with 2 requeued", rep)
	}
	m2.Start()
	fin := waitTerminal(t, m2, st.ID, 30*time.Second)
	if fin.State != StateDone || fin.Attempts != 1 {
		t.Fatalf("resumed job = %s after %d attempts (%s), want DONE in 1", fin.State, fin.Attempts, fin.Error)
	}
	if _, data, err := m2.Result(st.ID); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("resumed result differs from baseline: %v", err)
	}
	if fin2 := waitTerminal(t, m2, st2.ID, 30*time.Second); fin2.State != StateDone {
		t.Fatalf("queued job after restart = %s (%s), want DONE", fin2.State, fin2.Error)
	}
	checkNoLeak(t, sess2)
}

// TestFairShareDispatchOrder: with one worker held busy, queued jobs from
// tenants weighted a=2, b=1 dispatch in the a,a,b weighted round-robin
// pattern, and the accounting reflects it.
func TestFairShareDispatchOrder(t *testing.T) {
	store := persona.NewMemStore()
	g := importTestDataset(t, store, "ds")
	importTestDataset(t, store, "gate-ds")
	gate := make(chan struct{})
	gated := &gateStore{Store: store, substr: "gate-ds/chunk-000000", gate: gate}
	m, _ := newTestManager(t, gated, g, func(c *Config) {
		c.Workers = 1
		c.TenantWeights = map[string]int{"a": 2, "b": 1}
	})

	warm, err := m.Submit("warm", Spec{Dataset: "gate-ds", Format: "fastq"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "gate job to hold the worker", func() bool {
		cur, err := m.Status(warm.ID)
		return err == nil && cur.State == StateRunning
	})
	var last *JobStatus
	for i := 0; i < 4; i++ {
		if last, err = m.Submit("a", Spec{Dataset: "ds", Format: "fastq"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if last, err = m.Submit("b", Spec{Dataset: "ds", Format: "fastq"}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	waitTerminal(t, m, last.ID, 30*time.Second)
	waitFor(t, 30*time.Second, "all jobs to finish", func() bool {
		s := m.Stats()
		return s.Tenants["a"].Completed == 4 && s.Tenants["b"].Completed == 2
	})

	order := m.DispatchOrder()
	want := []string{"warm", "a", "a", "b", "a", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
	s := m.Stats()
	if s.Tenants["a"].Weight != 2 || s.Tenants["b"].Weight != 1 {
		t.Fatalf("tenant weights = %+v", s.Tenants)
	}
}

// TestSpecEdgeDepthIgnored: a spec still carrying "edge_depth", which older
// servers took, decodes and runs as one without it, whether it is submitted
// over HTTP or replayed from the journal.
func TestSpecEdgeDepthIgnored(t *testing.T) {
	store := persona.NewMemStore()
	g := importTestDataset(t, store, "ds")
	want := directWGS(t, store, g)
	spec := map[string]any{"dataset": "ds", "align": true, "sort": "location", "markdup": true, "format": "sam", "edge_depth": 3}

	// Replayed: a pending record written with the field, as an older server
	// journaled it before a crash.
	rec := map[string]any{"id": "j00000007", "tenant": "acme", "spec": spec, "state": StatePending, "max_attempts": 3}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(journalPrefix+"j00000007", data); err != nil {
		t.Fatal(err)
	}
	m, _ := newTestManager(t, store, g, nil)
	if fin := waitTerminal(t, m, "j00000007", 30*time.Second); fin.State != StateDone {
		t.Fatalf("replayed job = %s (%s), want DONE", fin.State, fin.Error)
	}
	if _, got, err := m.Result("j00000007"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replayed job's result differs from the direct run: %v", err)
	}

	// Submitted over HTTP.
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", srv.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, %v", resp.StatusCode, err)
	}
	if fin := waitTerminal(t, m, st.ID, 30*time.Second); fin.State != StateDone {
		t.Fatalf("submitted job = %s (%s), want DONE", fin.State, fin.Error)
	}
	if _, got, err := m.Result(st.ID); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("submitted job's result differs from the direct run: %v", err)
	}
}
