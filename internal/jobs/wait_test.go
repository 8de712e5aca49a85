package jobs

// Blocking wait: GET /v1/jobs/{id}/wait holds until the job is DONE or
// FAILED, so a client sees the end when it happens with one request, and
// nothing — a drain, a kill, a client that goes away — leaves a wait held.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"persona"
)

// countingHandler counts the requests h serves by method and path.
type countingHandler struct {
	h      http.Handler
	mu     sync.Mutex
	counts map[string]int
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.counts[r.Method+" "+r.URL.Path]++
	c.mu.Unlock()
	c.h.ServeHTTP(w, r)
}

// TestWaitThreeRequestsAJob: a job held ~50 ms by a gated store costs its
// client three requests — the submit, one wait and the result — and no
// status poll.
func TestWaitThreeRequestsAJob(t *testing.T) {
	inner := persona.NewMemStore()
	g := importTestDataset(t, inner, "ds")
	gate := make(chan struct{})
	m, _ := newTestManager(t, &gateStore{Store: inner, substr: "ds/chunk-", gate: gate}, g, nil)
	counter := &countingHandler{h: m.Handler(), counts: map[string]int{}}
	srv := httptest.NewServer(counter)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := &Client{Base: srv.URL}
	t0 := time.Now()
	st, err := c.Submit(ctx, Spec{Dataset: "ds", Format: "fastq"})
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(50*time.Millisecond, func() { close(gate) })
	fin, err := c.Wait(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("job = %s (%s), want DONE", fin.State, fin.Error)
	}
	if _, _, err := c.Result(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took < 50*time.Millisecond {
		t.Fatalf("job took %s, less than its gate", took)
	}
	want := map[string]int{
		"POST /v1/jobs":                     1,
		"GET /v1/jobs/" + st.ID + "/wait":   1,
		"GET /v1/jobs/" + st.ID + "/result": 1,
	}
	counter.mu.Lock()
	defer counter.mu.Unlock()
	if !reflect.DeepEqual(counter.counts, want) {
		t.Fatalf("requests = %v, want %v", counter.counts, want)
	}
}

// getWait issues one wait request for job id and sends its decoded answer
// (nil on an error) on the returned channel.
func getWait(url, id string) <-chan *JobStatus {
	out := make(chan *JobStatus, 1)
	go func() {
		st := &JobStatus{}
		if err := (&Client{Base: url}).do(context.Background(), http.MethodGet, "/v1/jobs/"+id+"/wait", nil, st); err != nil {
			st = nil
		}
		out <- st
	}()
	return out
}

// heldWaitServer starts a one-worker manager and its HTTP server over a
// store gated on every chunk read, with a running job j00000001 and a job
// j00000002 queued behind it, and holds a wait request on the queued one. It
// returns the gate and the channel the wait's answer arrives on.
func heldWaitServer(t *testing.T) (m *Manager, srv *httptest.Server, gate chan struct{}, answer <-chan *JobStatus) {
	inner := persona.NewMemStore()
	g := importTestDataset(t, inner, "ds")
	gate = make(chan struct{})
	m, _ = newTestManager(t, &gateStore{Store: inner, substr: "ds/chunk-", gate: gate}, g, func(c *Config) { c.Workers = 1 })
	entered := make(chan struct{}, 1)
	h := m.Handler()
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		h.ServeHTTP(w, r)
	}))
	for _, want := range []string{"j00000001", "j00000002"} {
		if st, err := m.Submit("acme", Spec{Dataset: "ds", Format: "fastq"}); err != nil || st.ID != want {
			t.Fatalf("submit = %v, %v; want job %s", st, err, want)
		}
	}
	waitFor(t, 10*time.Second, "job to start", func() bool {
		cur, err := m.Status("j00000001")
		return err == nil && cur.State == StateRunning
	})
	answer = getWait(srv.URL, "j00000002")
	<-entered
	select {
	case st := <-answer:
		t.Fatalf("wait on a queued job answered at once: %+v", st)
	case <-time.After(20 * time.Millisecond):
	}
	return m, srv, gate, answer
}

// TestWaitReleasedByDrain: a drain whose grace has expired answers a wait
// held on a queued job with its PENDING status once the workers stop, so
// the HTTP server then closes at once.
func TestWaitReleasedByDrain(t *testing.T) {
	m, srv, gate, answer := heldWaitServer(t)
	defer srv.Close()
	drainCtx, cancel := context.WithCancel(context.Background())
	cancel()
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(drainCtx) }()
	waitFor(t, 10*time.Second, "drain to begin", m.Draining)
	close(gate)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-answer:
		if st == nil || st.State != StatePending {
			t.Fatalf("wait released by drain = %+v, want PENDING", st)
		}
	case <-time.After(time.Second):
		t.Fatal("wait still held 1 s after Drain returned")
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("server close held after the drain")
	}
}

// TestWaitReleasedByKill: Kill answers a held wait as it is called, before
// the gated worker it joins has stopped.
func TestWaitReleasedByKill(t *testing.T) {
	m, srv, gate, answer := heldWaitServer(t)
	defer srv.Close()
	killed := make(chan struct{})
	go func() { m.Kill(); close(killed) }()
	select {
	case st := <-answer:
		if st == nil || st.State != StatePending {
			t.Fatalf("wait released by kill = %+v, want PENDING", st)
		}
	case <-time.After(time.Second):
		t.Fatal("wait still held 1 s after Kill")
	}
	close(gate)
	<-killed
}

// TestWaitEndsWithClient: a client that gives up ends its held wait on the
// server, and every goroutine the request started exits.
func TestWaitEndsWithClient(t *testing.T) {
	store := persona.NewMemStore()
	importTestDataset(t, store, "ds")
	sess := persona.NewSession(store, persona.SessionOptions{})
	t.Cleanup(sess.Close)
	m, err := NewManager(Config{Store: store, Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: the job stays PENDING.
	st, err := m.Submit("acme", Spec{Dataset: "ds", Format: "fastq"})
	if err != nil {
		t.Fatal(err)
	}
	entered, exited := make(chan struct{}), make(chan struct{})
	h := m.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		defer close(exited)
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	baseline := runtime.NumGoroutine()

	tr := &http.Transport{}
	c := &Client{Base: srv.URL, HTTP: &http.Client{Transport: tr}}
	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() {
		_, err := c.Wait(ctx, st.ID, time.Millisecond)
		waited <- err
	}()
	<-entered
	cancel()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("wait after cancel = %v, want context.Canceled", err)
	}
	select {
	case <-exited:
	case <-time.After(time.Second):
		t.Fatal("wait handler still held 1 s after its client went away")
	}
	tr.CloseIdleConnections()
	waitFor(t, 5*time.Second, "goroutines to return to the baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// TestWaitAnswersAtOnce: a job already DONE, a recovered DONE record and a
// recovered RUNNING record whose budget is spent answer at once; an unknown
// job is a 404 at once.
func TestWaitAnswersAtOnce(t *testing.T) {
	store := persona.NewMemStore()
	g := importTestDataset(t, store, "ds")
	m, _ := newTestManager(t, store, g, nil)
	st, err := m.Submit("acme", Spec{Dataset: "ds", Format: "fastq"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID, 30*time.Second)
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	spent := Record{
		ID: "j00000002", Tenant: "acme", Spec: Spec{Dataset: "ds", Format: "fastq"},
		State: StateRunning, Attempts: 3, MaxAttempts: 3, SubmittedAt: time.Now().UTC(),
	}
	if err := NewJournal(store).Put(&spent); err != nil {
		t.Fatal(err)
	}

	sess2 := persona.NewSession(store, persona.SessionOptions{})
	t.Cleanup(sess2.Close)
	m2, err := NewManager(Config{Store: store, Session: sess2, Reference: g})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m2.Handler())
	defer srv.Close()
	for _, tc := range []struct {
		m     *Manager
		id    string
		state State
	}{
		{m, st.ID, StateDone},
		{m2, st.ID, StateDone},
		{m2, spent.ID, StateFailed},
	} {
		t0 := time.Now()
		got, err := tc.m.Wait(context.Background(), tc.id)
		if err != nil || got.State != tc.state || time.Since(t0) > time.Second {
			t.Fatalf("wait on %s = %+v, %v after %s; want %s at once", tc.id, got, err, time.Since(t0), tc.state)
		}
	}
	t0 := time.Now()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/wait")
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || got.State != StateDone || time.Since(t0) > time.Second {
		t.Fatalf("wait over HTTP = %d %s, %v after %s; want 200 DONE at once", resp.StatusCode, got.State, err, time.Since(t0))
	}

	if _, err := m2.Wait(context.Background(), "j99999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("wait on an unknown job = %v, want ErrUnknownJob", err)
	}
	c := &Client{Base: srv.URL}
	t0 = time.Now()
	var he *HTTPError
	if _, err := c.Wait(context.Background(), "j99999999", time.Millisecond); !errors.As(err, &he) || he.Status != http.StatusNotFound || time.Since(t0) > time.Second {
		t.Fatalf("client wait on an unknown job = %v after %s, want a 404 at once", err, time.Since(t0))
	}
}

// TestWaitHeldAcrossRequeue: a transient failure that requeues the job
// leaves the wait held; it answers when the retry ends the job.
func TestWaitHeldAcrossRequeue(t *testing.T) {
	inner := persona.NewMemStore()
	g := importTestDataset(t, inner, "ds")
	gate := make(chan struct{})
	store := &gateStore{Store: &failNStore{Store: inner, substr: "/result", n: 1}, substr: "ds/chunk-", gate: gate}
	m, _ := newTestManager(t, store, g, nil)
	st, err := m.Submit("acme", Spec{Dataset: "ds", Format: "fastq"})
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(20*time.Millisecond, func() { close(gate) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Attempts != 2 {
		t.Fatalf("wait = %s after %d attempts (%s), want DONE after the retry", fin.State, fin.Attempts, fin.Error)
	}
}

// TestWaitEqualsStatus: what a wait answers is what Status answers at that
// moment, per-stage progress included — for a job held mid-run when the
// wait's context ends, and for a finished one.
func TestWaitEqualsStatus(t *testing.T) {
	inner := persona.NewMemStore()
	g := importTestDataset(t, inner, "ds")
	gate := make(chan struct{})
	m, _ := newTestManager(t, &gateStore{Store: inner, substr: "ds/chunk-", gate: gate}, g, nil)
	st, err := m.Submit("acme", Spec{Dataset: "ds", Align: true, Sort: "location", MarkDup: true, Format: "sam"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "job to start", func() bool {
		cur, err := m.Status(st.ID)
		return err == nil && len(cur.Progress) > 0
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	held, err := m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	now, err := m.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if held.State != StateRunning || !reflect.DeepEqual(held, now) {
		t.Fatalf("wait released mid-run = %+v, status = %+v", held, now)
	}

	close(gate)
	fin := waitTerminal(t, m, st.ID, 30*time.Second)
	now, err = m.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || len(fin.Progress) != 5 || !reflect.DeepEqual(fin, now) {
		t.Fatalf("wait = %+v, status = %+v; want the same DONE status with 5 stages", fin, now)
	}
}
