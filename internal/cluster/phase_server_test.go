package cluster

// PhaseServer protocol tests: phase barriers, held phases, payload acks,
// first-wins idempotence, fleet-spread dealing, lease expiry on a clock the
// tests advance by hand, and validation of everything that arrives on the
// wire.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is the lease clock of a server under test: time passes only
// when the test says so, and a timer fires only when advance reaches it.
type fakeClock struct {
	mu     sync.Mutex
	t      time.Time
	timers map[*fakeTimer]bool
}

type fakeTimer struct {
	at   time.Time
	fire chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0), timers: make(map[*fakeTimer]bool)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) at(t time.Time) (<-chan time.Time, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tm := &fakeTimer{at: t, fire: make(chan time.Time, 1)}
	if t.After(c.t) {
		c.timers[tm] = true
	} else {
		tm.fire <- c.t
	}
	return tm.fire, func() {
		c.mu.Lock()
		delete(c.timers, tm)
		c.mu.Unlock()
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	for tm := range c.timers {
		if !tm.at.After(c.t) {
			tm.fire <- c.t
			delete(c.timers, tm)
		}
	}
}

// newClockedServer starts a phase server on a fake clock.
func newClockedServer(t *testing.T, counts []int, opts ServerOptions) (*PhaseServer, *fakeClock) {
	t.Helper()
	srv, err := NewPhaseServer(counts, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	clk := newFakeClock()
	srv.mu.Lock()
	srv.clock = clk
	srv.mu.Unlock()
	return srv, clk
}

// polled is a closed stop channel: NextTask and Cuts given it return not-ok
// at the first WAIT instead of parking.
var polled = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func dialPhase(t *testing.T, srv *PhaseServer, worker int) *ManifestClient {
	t.Helper()
	c, err := DialManifestWorker(srv.Addr(), worker)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestPhaseBarrier: phase 1 tasks are withheld until every phase 0 task is
// acked, and DONE follows the last ack.
func TestPhaseBarrier(t *testing.T) {
	srv, err := NewPhaseServer([]int{2, 1}, nil, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c := dialPhase(t, srv, 0)

	for want := 0; want < 2; want++ {
		p, i, ok, err := c.NextTask(nil)
		if err != nil || !ok || p != 0 {
			t.Fatalf("task %d: phase=%d ok=%v err=%v, want phase 0", want, p, ok, err)
		}
		if err := c.AckTask(p, i, fmt.Sprintf("pay%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p, i, ok, err := c.NextTask(nil)
	if err != nil || !ok || p != 1 || i != 0 {
		t.Fatalf("after barrier: phase=%d idx=%d ok=%v err=%v, want phase 1 task 0", p, i, ok, err)
	}
	if err := c.AckTask(1, 0, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := c.NextTask(nil); ok || err != nil {
		t.Fatalf("after all phases: ok=%v err=%v, want DONE", ok, err)
	}
	if !srv.AllDone() {
		t.Error("AllDone = false after draining every phase")
	}
	if got := srv.Payloads(0); got[0] != "pay0" || got[1] != "pay1" {
		t.Errorf("phase 0 payloads = %v", got)
	}
}

// TestHeldPhaseAndCuts: a held phase deals nothing until Open, and CUTS
// polls WAIT until SetCuts publishes.
func TestHeldPhaseAndCuts(t *testing.T) {
	srv, err := NewPhaseServer([]int{0, 1}, []int{1}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c := dialPhase(t, srv, 0)

	stop := make(chan struct{})
	close(stop)
	// Held: the only incomplete phase answers WAIT, so a closed stop channel
	// makes NextTask return not-ok without error.
	if _, _, ok, err := c.NextTask(stop); ok || err != nil {
		t.Fatalf("held phase dealt a task (ok=%v err=%v)", ok, err)
	}
	if _, ok, err := c.Cuts(stop); ok || err != nil {
		t.Fatalf("unset cuts served (ok=%v err=%v)", ok, err)
	}
	srv.SetCuts("abc123")
	srv.Open(1)
	if pay, ok, err := c.Cuts(nil); err != nil || !ok || pay != "abc123" {
		t.Fatalf("cuts = %q ok=%v err=%v", pay, ok, err)
	}
	if p, _, ok, err := c.NextTask(nil); err != nil || !ok || p != 1 {
		t.Fatalf("opened phase: phase=%d ok=%v err=%v", p, ok, err)
	}
}

// TestTackFirstWins: double-acking a task keeps the first payload and
// counts the task once.
func TestTackFirstWins(t *testing.T) {
	srv, err := NewPhaseServer([]int{1}, nil, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c := dialPhase(t, srv, 0)
	if _, _, ok, err := c.NextTask(nil); !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if err := c.AckTask(0, 0, "first"); err != nil {
		t.Fatal(err)
	}
	if err := c.AckTask(0, 0, "second"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Payloads(0); got[0] != "first" {
		t.Errorf("payload = %q, want first-wins", got[0])
	}
	if !srv.AllDone() {
		t.Error("AllDone = false")
	}
}

// TestPhaseSpreadsFreshTasks: with two live workers, the second fresh task
// of a phase is reserved for the worker that has none yet — the first
// worker is told WAIT rather than draining the phase.
func TestPhaseSpreadsFreshTasks(t *testing.T) {
	srv, err := NewPhaseServer([]int{2}, nil, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c0 := dialPhase(t, srv, 0)
	c1 := dialPhase(t, srv, 1)

	// Both workers announce themselves (BEAT), so both are live and
	// undealt.
	if err := c0.Beat(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Beat(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := c0.NextTask(nil); !ok || err != nil {
		t.Fatalf("worker 0 first deal: ok=%v err=%v", ok, err)
	}
	// Worker 0's second request must WAIT: the last fresh task is reserved
	// for live worker 1.
	stop := make(chan struct{})
	close(stop)
	if _, _, ok, err := c0.NextTask(stop); ok || err != nil {
		t.Fatalf("worker 0 drained the reserved task (ok=%v err=%v)", ok, err)
	}
	if _, i, ok, err := c1.NextTask(nil); !ok || err != nil {
		t.Fatalf("worker 1 reserved deal: ok=%v err=%v", ok, err)
	} else if err := c1.AckTask(0, i, ""); err != nil {
		t.Fatal(err)
	}
}

// TestPhaseDeadWorkerReassigned: a worker that takes a task and stops
// beating has its lease re-dealt to the survivor once its heartbeats lapse —
// not before — and a duplicate completion by the straggler changes nothing.
func TestPhaseDeadWorkerReassigned(t *testing.T) {
	srv, clk := newClockedServer(t, []int{1}, ServerOptions{
		LeaseTimeout: 10 * time.Second,
		BeatTimeout:  50 * time.Millisecond,
		MaxAttempts:  3,
	})
	dead := dialPhase(t, srv, 0)
	if _, _, ok, err := dead.NextTask(nil); !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	// The dead worker never acks and never beats again.
	alive := dialPhase(t, srv, 1)
	clk.advance(40 * time.Millisecond)
	if _, _, ok, err := alive.NextTask(polled); ok || err != nil {
		t.Fatalf("live lease re-dealt early (ok=%v err=%v)", ok, err)
	}
	if srv.Reassigned() != 0 {
		t.Fatalf("Reassigned = %d before any lease expired", srv.Reassigned())
	}
	clk.advance(20 * time.Millisecond) // 60 ms of silence > BeatTimeout
	p, i, ok, err := alive.NextTask(polled)
	if err != nil || !ok || p != 0 || i != 0 {
		t.Fatalf("survivor lease = (%d, %d) ok=%v err=%v, want task (0, 0)", p, i, ok, err)
	}
	if srv.Reassigned() != 1 {
		t.Fatalf("Reassigned = %d, want 1", srv.Reassigned())
	}
	if err := alive.AckTask(0, 0, "survivor"); err != nil {
		t.Fatal(err)
	}
	if !srv.AllDone() {
		t.Fatal("run not complete after survivor's ack")
	}
	// The straggler finished after all: accepted, first payload kept.
	if err := dead.AckTask(0, 0, "straggler"); err != nil {
		t.Fatal(err)
	}
	if !srv.AllDone() || srv.Payloads(0)[0] != "survivor" {
		t.Fatalf("duplicate ack changed the run: AllDone=%v payload=%q", srv.AllDone(), srv.Payloads(0)[0])
	}
}

// TestPhaseStragglerLeaseExpires: a worker that keeps beating but blows the
// lease deadline is a straggler, and its task is re-dealt just the same.
func TestPhaseStragglerLeaseExpires(t *testing.T) {
	srv, clk := newClockedServer(t, []int{1}, ServerOptions{
		LeaseTimeout: 100 * time.Millisecond,
		BeatTimeout:  time.Hour,
	})
	slow := dialPhase(t, srv, 0)
	fast := dialPhase(t, srv, 1)
	if _, _, ok, err := slow.NextTask(nil); !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	clk.advance(90 * time.Millisecond)
	if err := slow.Beat(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := fast.NextTask(polled); ok {
		t.Fatal("task re-dealt inside its lease")
	}
	clk.advance(20 * time.Millisecond)
	if _, _, ok, err := fast.NextTask(polled); !ok || err != nil {
		t.Fatalf("expired lease not re-dealt (ok=%v err=%v)", ok, err)
	}
}

// TestPhaseAbortsAfterMaxAttempts: a task that keeps failing its lease
// aborts the run — for every worker, and for good — instead of spinning.
func TestPhaseAbortsAfterMaxAttempts(t *testing.T) {
	srv, clk := newClockedServer(t, []int{1}, ServerOptions{
		LeaseTimeout: 10 * time.Millisecond,
		BeatTimeout:  time.Hour,
		MaxAttempts:  2,
	})
	c := dialPhase(t, srv, 0)
	for lease := 0; lease < 2; lease++ {
		if _, _, ok, err := c.NextTask(polled); err != nil || !ok {
			t.Fatalf("lease %d: ok=%v err=%v", lease, ok, err)
		}
		clk.advance(20 * time.Millisecond) // blow the lease deadline
	}
	if _, _, _, err := c.NextTask(polled); !errors.Is(err, ErrAborted) {
		t.Fatalf("third lease: err = %v, want ErrAborted", err)
	}
	other := dialPhase(t, srv, 1)
	if _, _, _, err := other.NextTask(polled); !errors.Is(err, ErrAborted) {
		t.Fatalf("second worker: err = %v, want ErrAborted", err)
	}
	if srv.AllDone() {
		t.Fatal("aborted run reported AllDone")
	}
	if srv.Served() != 2 {
		t.Fatalf("Served = %d, want the 2 leases dealt before the abort", srv.Served())
	}
}

// TestPhaseAbort: an aborted run poisons TASK and CUTS with ErrAborted.
func TestPhaseAbort(t *testing.T) {
	srv, err := NewPhaseServer([]int{1}, nil, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.Abort("cut selection failed")
	c := dialPhase(t, srv, 0)
	if _, _, _, err := c.NextTask(nil); !errors.Is(err, ErrAborted) {
		t.Errorf("NextTask err = %v, want ErrAborted", err)
	}
	if _, _, err := c.Cuts(nil); !errors.Is(err, ErrAborted) {
		t.Errorf("Cuts err = %v, want ErrAborted", err)
	}
	if srv.AllDone() {
		t.Error("AllDone = true on an aborted run")
	}
}

// phaseSnapshot is everything a request may change, for before/after
// comparison.
type phaseSnapshot struct {
	tasks      string
	payloads   string
	beats      int
	served     int64
	reassigned int64
}

func snapshotPhases(s *PhaseServer) phaseSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := phaseSnapshot{beats: len(s.lastBeat), served: s.served.Load(), reassigned: s.reassigned}
	for p := range s.phases {
		snap.tasks += fmt.Sprintf("%d:%+v;", s.phases[p].remaining, s.phases[p].tasks)
		snap.payloads += strings.Join(s.phases[p].payloads, ",") + ";"
	}
	return snap
}

// TestPhaseServerRejectsMalformedRequests: every verb answers ERR to a
// worker, phase or task index that is missing, not a number, negative or out
// of range — and to an ack of a task nobody leased — and changes nothing.
func TestPhaseServerRejectsMalformedRequests(t *testing.T) {
	srv, _ := newClockedServer(t, []int{2, 1}, ServerOptions{})
	c := dialPhase(t, srv, 0)
	if p, i, ok, err := c.NextTask(nil); err != nil || !ok || p != 0 || i != 0 {
		t.Fatalf("lease = (%d, %d) ok=%v err=%v", p, i, ok, err)
	}
	before := snapshotPhases(srv)
	for _, line := range []string{
		"TASK", "TASK x", "TASK -1", "TASK 1 2", "TASK 99999999999999999999",
		"TACK", "TACK 0 0 0", "TACK x 0 0 p", "TACK 0 y 0 p", "TACK 0 0 z p", "TACK x y z p",
		"TACK -1 0 0 p", "TACK 0 -1 0 p", "TACK 0 0 -1 p", "TACK 0 2 0 p", "TACK 0 0 2 p",
		"TACK 0 0 0 p extra",
		"TACK 0 0 1 p", // task (0, 1) exists but was never leased
		"TACK 0 1 0 p", // so does (1, 0), behind the barrier
		"CUTS", "CUTS x", "CUTS -3", "CUTS 0 0",
		"BEAT", "BEAT x", "BEAT -1", "BEAT 0 0",
		"PARK", "PARK 0", "PARK x 0", "PARK 0 y", "PARK -1 0", "PARK 0 -1", "PARK 0 0 0",
		"NEXT", "NEXT 0", "ACK 0 0", "STATS", "bogus",
	} {
		reply, err := c.roundTrip(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if !strings.HasPrefix(reply, "ERR ") {
			t.Errorf("%q answered %q, want ERR", line, reply)
		}
		if after := snapshotPhases(srv); after != before {
			t.Fatalf("%q changed server state:\n before %+v\n after  %+v", line, before, after)
		}
	}
	// The malformed ack the old server mistook for (phase 0, task 0, worker
	// 0) left the real lease alone: it still completes normally.
	if err := c.AckTask(0, 0, "real"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Payloads(0)[0]; got != "real" {
		t.Fatalf("payload = %q, want the real ack's", got)
	}
}

// TestClientSurfacesErrReplies: an ERR line is an error to the caller of
// every client verb, Beat included.
func TestClientSurfacesErrReplies(t *testing.T) {
	srv, _ := newClockedServer(t, []int{1}, ServerOptions{})
	bad := dialPhase(t, srv, -5) // a worker id the server refuses
	if err := bad.Beat(); err == nil {
		t.Error("Beat swallowed an ERR reply")
	}
	if _, _, _, err := bad.NextTask(polled); err == nil {
		t.Error("NextTask swallowed an ERR reply")
	}
	if err := bad.AckTask(0, 0, ""); err == nil {
		t.Error("AckTask swallowed an ERR reply")
	}
	if _, _, err := bad.Cuts(polled); err == nil {
		t.Error("Cuts swallowed an ERR reply")
	}
	if srv.Served() != 0 {
		t.Errorf("refused worker was dealt a task: Served = %d", srv.Served())
	}
}

// FuzzPhaseServerLine feeds arbitrary request lines to a live server through
// handleLine, the function serve hands every scanned line to (the socket
// itself is TestPhaseServerRejectsMalformedRequests' part, and a PARK's hold
// is serve's, so handleLine answers it at once). The server must answer every
// non-blank line with one well-formed reply, never panic, and never count a
// task complete that it did not first lease.
func FuzzPhaseServerLine(f *testing.F) {
	for _, seed := range []string{
		"TASK 0", "TASK 0\nTACK 0 0 0 cGF5\nTASK 0", "TACK 0 0 0 -", "TACK x y z p", "TACK 0 1 0 p",
		"BEAT 0", "BEAT x", "CUTS 1", "TASK -1", "TASK 18446744073709551616", "\n\n", "TACK 0 0 0",
		"TASK 1\nTASK 2\nTACK 2 0 1 x\nTACK 1 0 0 y\nTASK 1\nTACK 1 1 0 z", "NEXT", "\x00\xff TASK",
		"PARK 0 0", "TASK 0\nTASK 0\nPARK 0 1", "PARK x 1", "PARK 0 -1", "PARK 0 0 0", "PARK 99999999999999999999 0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		srv, err := NewPhaseServer([]int{2, 1}, nil, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for _, line := range strings.Split(input, "\n") {
			reply := srv.handleLine(line)
			if blank := len(strings.Fields(line)) == 0; blank != (reply == "") {
				t.Fatalf("line %q: reply %q", line, reply)
			}
			switch verb, _, _ := strings.Cut(reply, " "); verb {
			case "", "TASK", "WAIT", "DONE", "ABORT", "OK", "CUTS", "ERR":
			default:
				t.Fatalf("line %q: reply %q is not in the protocol", line, reply)
			}
			if strings.ContainsAny(reply, "\r\n") {
				t.Fatalf("line %q: reply %q spans lines", line, reply)
			}
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for p := range srv.phases {
			ph := &srv.phases[p]
			undone := 0
			for i, c := range ph.tasks {
				if !c.done {
					undone++
				} else if c.attempts == 0 {
					t.Fatalf("task (%d, %d) completed without ever being leased", p, i)
				}
			}
			if undone != ph.remaining {
				t.Fatalf("phase %d: remaining = %d, %d tasks undone", p, ph.remaining, undone)
			}
		}
		if srv.phases[1].remaining == 0 && srv.phases[0].remaining != 0 {
			t.Fatal("phase 1 completed across the barrier")
		}
	})
}

// lineProxy forwards connections to a phase server and reports every request
// line its clients send, each before the server sees it.
type lineProxy struct {
	ln    net.Listener
	lines chan string
}

func newLineProxy(t *testing.T, target string) *lineProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	px := &lineProxy{ln: ln, lines: make(chan string, 64)} // far more than a test sends
	done := make(chan struct{})
	var wg sync.WaitGroup
	t.Cleanup(func() {
		close(done)
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			wg.Add(2)
			go func() {
				defer wg.Done()
				defer client.Close()
				_, _ = io.Copy(client, server)
			}()
			go func() {
				defer wg.Done()
				defer server.Close()
				sc := bufio.NewScanner(client)
				for sc.Scan() {
					select {
					case px.lines <- sc.Text():
					case <-done:
						return
					}
					if _, err := fmt.Fprintf(server, "%s\n", sc.Text()); err != nil {
						return
					}
				}
			}()
		}
	}()
	return px
}

// next returns the next line a client sent through the proxy.
func (px *lineProxy) next(t *testing.T) string {
	t.Helper()
	select {
	case line := <-px.lines:
		return line
	case <-time.After(10 * time.Second):
		t.Fatal("no request reached the proxy")
		return ""
	}
}

// awaitPark returns once a client of the proxy has sent a PARK, skipping
// the lines before it. The server may not hold it yet, which no test needs:
// an event or instant that passes before the hold starts ends it at once.
func (px *lineProxy) awaitPark(t *testing.T) {
	t.Helper()
	for !strings.HasPrefix(px.next(t), "PARK ") {
	}
}

// dialProxied connects worker to srv through a lineProxy of its own.
func dialProxied(t *testing.T, srv *PhaseServer, worker int) (*ManifestClient, *lineProxy) {
	t.Helper()
	px := newLineProxy(t, srv.Addr())
	c, err := DialManifestWorker(px.ln.Addr().String(), worker)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, px
}

// taskResult is one NextTask call's outcome, run on another goroutine.
type taskResult struct {
	phase, idx int
	ok         bool
	err        error
}

func nextTaskAsync(c *ManifestClient, stop <-chan struct{}) <-chan taskResult {
	out := make(chan taskResult, 1)
	go func() {
		p, i, ok, err := c.NextTask(stop)
		out <- taskResult{p, i, ok, err}
	}()
	return out
}

// TestPhaseParkTwoRequests: a worker waiting through a barrier sends two
// requests however long the wait lasts — the TASK answered WAIT and the PARK
// that holds it — and one more once the barrier lifts. Heartbeats from the
// worker holding the barrier and an hour of server time do not wake it.
func TestPhaseParkTwoRequests(t *testing.T) {
	srv, clk := newClockedServer(t, []int{1, 1}, ServerOptions{
		LeaseTimeout: 2 * time.Hour,
		BeatTimeout:  2 * time.Hour,
	})
	holder := dialPhase(t, srv, 0)
	if p, i, ok, err := holder.NextTask(nil); err != nil || !ok || p != 0 || i != 0 {
		t.Fatalf("holder lease = (%d, %d) ok=%v err=%v", p, i, ok, err)
	}
	waiter, px := dialProxied(t, srv, 1)
	got := nextTaskAsync(waiter, nil)
	if line := px.next(t); line != "TASK 1" {
		t.Fatalf("first request %q, want TASK 1", line)
	}
	if line := px.next(t); !strings.HasPrefix(line, "PARK 1 ") {
		t.Fatalf("second request while waiting %q, want the PARK that holds it", line)
	}
	clk.advance(time.Hour)
	for i := 0; i < 20; i++ {
		if err := holder.Beat(); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case line := <-px.lines:
		t.Fatalf("parked worker sent %q before the barrier lifted", line)
	default:
	}
	if err := holder.AckTask(0, 0, ""); err != nil {
		t.Fatal(err)
	}
	if r := <-got; r.err != nil || !r.ok || r.phase != 1 || r.idx != 0 {
		t.Fatalf("after the barrier: %+v, want task (1, 0)", r)
	}
	if line := px.next(t); line != "TASK 1" {
		t.Fatalf("request after the wake %q, want TASK 1", line)
	}
	select {
	case line := <-px.lines:
		t.Fatalf("extra request %q: a wait costs one PARK", line)
	default:
	}
}

// TestPhaseParkReleasedBy: a held TASK (or CUTS) returns once the answer can
// change — the phase's last TACK, SetCuts and Open, Abort, Close — and a
// change that leaves the answer WAIT parks it again.
func TestPhaseParkReleasedBy(t *testing.T) {
	t.Run("last TACK", func(t *testing.T) {
		srv, _ := newClockedServer(t, []int{2, 1}, ServerOptions{})
		holder := dialPhase(t, srv, 0)
		for i := 0; i < 2; i++ {
			if _, _, ok, err := holder.NextTask(nil); !ok || err != nil {
				t.Fatalf("holder lease %d: ok=%v err=%v", i, ok, err)
			}
		}
		waiter, px := dialProxied(t, srv, 1)
		got := nextTaskAsync(waiter, nil)
		px.awaitPark(t)
		if err := holder.AckTask(0, 0, ""); err != nil {
			t.Fatal(err)
		}
		// One task of phase 0 is still leased: the waiter parks again.
		px.awaitPark(t)
		select {
		case r := <-got:
			t.Fatalf("released before the last TACK: %+v", r)
		default:
		}
		if err := holder.AckTask(0, 1, ""); err != nil {
			t.Fatal(err)
		}
		if r := <-got; r.err != nil || !r.ok || r.phase != 1 {
			t.Fatalf("after the last TACK: %+v, want a phase 1 task", r)
		}
	})
	t.Run("SetCuts and Open", func(t *testing.T) {
		srv, err := NewPhaseServer([]int{0, 1}, []int{1}, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		tasker, tpx := dialProxied(t, srv, 0)
		task := nextTaskAsync(tasker, nil)
		cutter, cpx := dialProxied(t, srv, 1)
		cuts := make(chan string, 1)
		go func() {
			pay, ok, err := cutter.Cuts(nil)
			if err != nil || !ok {
				pay = fmt.Sprintf("ok=%v err=%v", ok, err)
			}
			cuts <- pay
		}()
		tpx.awaitPark(t)
		cpx.awaitPark(t)
		srv.SetCuts("c1")
		if pay := <-cuts; pay != "c1" {
			t.Fatalf("Cuts = %q, want c1", pay)
		}
		// SetCuts woke the TASK too, but the phase is still held.
		tpx.awaitPark(t)
		srv.Open(1)
		if r := <-task; r.err != nil || !r.ok || r.phase != 1 {
			t.Fatalf("after Open: %+v, want the phase 1 task", r)
		}
	})
	t.Run("Abort", func(t *testing.T) {
		srv, err := NewPhaseServer([]int{1}, []int{0}, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		c, px := dialProxied(t, srv, 0)
		got := nextTaskAsync(c, nil)
		px.awaitPark(t)
		srv.Abort("cut selection failed")
		if r := <-got; r.ok || !errors.Is(r.err, ErrAborted) {
			t.Fatalf("after Abort: %+v, want ErrAborted", r)
		}
	})
	t.Run("Close", func(t *testing.T) {
		srv, err := NewPhaseServer([]int{1}, []int{0}, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		c, px := dialProxied(t, srv, 0)
		got := nextTaskAsync(c, nil)
		px.awaitPark(t)
		srv.Close()
		if r := <-got; r.ok || r.err == nil {
			t.Fatalf("after Close: %+v, want a connection error", r)
		}
	})
}

// TestPhaseParkStopEndsHold: closing stop mid-hold returns not-ok with no
// error, closes the hold on the server, leaves no goroutine behind and leaves
// the connection in step for the next request.
func TestPhaseParkStopEndsHold(t *testing.T) {
	srv, _ := newClockedServer(t, []int{1, 1}, ServerOptions{})
	holder := dialPhase(t, srv, 0)
	if _, _, ok, err := holder.NextTask(nil); !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	waiter, px := dialProxied(t, srv, 1)
	stop := make(chan struct{})
	got := nextTaskAsync(waiter, stop)
	px.awaitPark(t)
	close(stop)
	if r := <-got; r.ok || r.err != nil {
		t.Fatalf("stopped mid-hold: %+v, want not-ok and no error", r)
	}
	// The client's stop watcher and the server's hold are gone; the
	// goroutine that called NextTask is on its way out.
	deadline := time.Now().Add(10 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		left := strings.Count(stacks, "(*ManifestClient).wait") + strings.Count(stacks, "(*PhaseServer).hold") + strings.Count(stacks, "nextTaskAsync")
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines of the hold left behind:\n%s", stacks)
		}
		runtime.Gosched()
	}
	if err := holder.AckTask(0, 0, ""); err != nil {
		t.Fatal(err)
	}
	if p, i, ok, err := waiter.NextTask(nil); err != nil || !ok || p != 1 || i != 0 {
		t.Fatalf("next lease = (%d, %d) ok=%v err=%v, want task (1, 0)", p, i, ok, err)
	}
}

// TestPhaseParkRedealsLapsedTask: a worker parked behind a dead worker's
// lease wakes when the dead worker's heartbeats lapse on the server's clock,
// not before, and is re-dealt the task.
func TestPhaseParkRedealsLapsedTask(t *testing.T) {
	srv, clk := newClockedServer(t, []int{1}, ServerOptions{
		LeaseTimeout: time.Hour,
		BeatTimeout:  50 * time.Millisecond,
	})
	dead := dialPhase(t, srv, 0)
	if _, _, ok, err := dead.NextTask(nil); !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	survivor, px := dialProxied(t, srv, 1)
	got := nextTaskAsync(survivor, nil)
	px.awaitPark(t)
	clk.advance(40 * time.Millisecond)
	if n := srv.Reassigned(); n != 0 {
		t.Fatalf("Reassigned = %d inside the heartbeat window", n)
	}
	clk.advance(20 * time.Millisecond) // 60 ms of silence > BeatTimeout
	if r := <-got; r.err != nil || !r.ok || r.phase != 0 || r.idx != 0 {
		t.Fatalf("parked survivor: %+v, want the re-dealt task (0, 0)", r)
	}
	if n := srv.Reassigned(); n != 1 {
		t.Fatalf("Reassigned = %d, want 1", n)
	}
}

// TestPhaseParkLapseBeforePark: a heartbeat lapse that falls between the
// WAIT and the PARK still counts. The only fresh task left is reserved for a
// worker that has not been dealt one yet; that worker goes silent before the
// waiter parks, so the PARK returns at once and the next TASK is dealt the
// task. Nothing else could wake the hold: no lease is open.
func TestPhaseParkLapseBeforePark(t *testing.T) {
	srv, clk := newClockedServer(t, []int{2}, ServerOptions{
		LeaseTimeout: time.Hour,
		BeatTimeout:  50 * time.Millisecond,
	})
	if err := dialPhase(t, srv, 1).Beat(); err != nil { // known, never dealt
		t.Fatal(err)
	}
	w := dialPhase(t, srv, 0)
	if p, i, ok, err := w.NextTask(nil); err != nil || !ok || p != 0 || i != 0 {
		t.Fatalf("first lease = (%d, %d) ok=%v err=%v", p, i, ok, err)
	}
	if err := w.AckTask(0, 0, ""); err != nil {
		t.Fatal(err)
	}
	reply, err := w.roundTrip("TASK 0")
	if err != nil || !strings.HasPrefix(reply, "WAIT ") {
		t.Fatalf("TASK with task 1 reserved = %q, %v; want WAIT", reply, err)
	}
	clk.advance(60 * time.Millisecond) // worker 1's heartbeats lapse
	if err := w.conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if ok, err := w.roundTrip("PARK 0 " + strings.TrimPrefix(reply, "WAIT ")); err != nil || ok != "OK" {
		t.Fatalf("PARK after the lapse = %q, %v; want OK at once", ok, err)
	}
	if p, i, ok, err := w.NextTask(nil); err != nil || !ok || p != 0 || i != 1 {
		t.Fatalf("lease after the lapse = (%d, %d) ok=%v err=%v, want task (0, 1)", p, i, ok, err)
	}
}

// TestPhaseParkWorkerDiesParked: a worker that dies while parked, holding a
// lease, is caught by its heartbeats. Both workers park behind the barrier;
// the holder hangs up and falls silent, and once BeatTimeout passes on the
// server's clock the parked survivor wakes and is re-dealt the task, long
// before the lease deadline.
func TestPhaseParkWorkerDiesParked(t *testing.T) {
	srv, clk := newClockedServer(t, []int{1, 1}, ServerOptions{
		LeaseTimeout: time.Hour,
		BeatTimeout:  50 * time.Millisecond,
	})
	holder, hpx := dialProxied(t, srv, 0)
	if p, i, ok, err := holder.NextTask(nil); err != nil || !ok || p != 0 || i != 0 {
		t.Fatalf("holder lease = (%d, %d) ok=%v err=%v", p, i, ok, err)
	}
	held := nextTaskAsync(holder, nil)
	hpx.awaitPark(t)
	survivor, spx := dialProxied(t, srv, 1)
	got := nextTaskAsync(survivor, nil)
	spx.awaitPark(t)

	holder.Close()
	if r := <-held; r.ok || r.err == nil {
		t.Fatalf("holder after hanging up: %+v, want a connection error", r)
	}
	clk.advance(40 * time.Millisecond)
	select {
	case r := <-got:
		t.Fatalf("survivor woke inside the heartbeat window: %+v", r)
	default:
	}
	clk.advance(20 * time.Millisecond) // 60 ms of silence > BeatTimeout
	select {
	case r := <-got:
		if r.err != nil || !r.ok || r.phase != 0 || r.idx != 0 {
			t.Fatalf("parked survivor: %+v, want the re-dealt task (0, 0)", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked survivor not woken by the dead holder's lapse")
	}
	if n := srv.Reassigned(); n != 1 {
		t.Fatalf("Reassigned = %d, want 1", n)
	}
}
