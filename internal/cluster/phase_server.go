package cluster

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// phaseState is one phase's dealing state: a queue of leased tasks plus the
// payload each completed task reported.
type phaseState struct {
	tasks     []chunkLease
	payloads  []string
	remaining int
	held      bool
	dealt     map[int]bool  // workers that have received >= 1 task here
	done      chan struct{} // closed when remaining reaches 0
}

// PhaseServer is the cluster's coordinator: the paper's manifest server —
// "a simple message queue" of chunk names (§5.2) — with leases, and with the
// queue generalized to phases. Tasks are grouped into strictly ordered
// phases (one for an alignment run; map, shuffle, reduce for the fused
// pipeline), a phase's tasks are dealt only once every earlier phase has
// completed, and a completing worker attaches a payload to its ack — which
// is how per-run key samples reach the coordinator (SAMPLE, the map acks)
// and per-partition results reach the stitcher (the reduce acks). A phase
// can be created held (SHUFFLE): its tasks are withheld until the
// coordinator calls Open, after it has computed the global cuts from the
// map payloads and published them (SetCuts / the CUTS verb).
//
// Protocol (line-oriented; payloads are single base64 tokens):
//
//	C: TASK <worker>\n                         S: TASK <phase> <idx>\n, WAIT <epoch>\n, DONE\n or ABORT <msg>\n
//	C: TACK <worker> <phase> <idx> <payload>\n S: OK\n    ("-" = no payload)
//	C: CUTS <worker>\n                         S: CUTS <payload>\n, WAIT <epoch>\n or ABORT <msg>\n
//	C: BEAT <worker>\n                         S: OK\n
//	C: PARK <worker> <epoch>\n                 S: OK\n    once the hold ends
//
// Every request names its worker. A request that does not parse — a missing
// field, a worker, phase, task index or epoch that is not a non-negative
// integer or is out of range, a TACK for a task never leased — answers
// ERR <msg>\n and changes no state.
//
// The server is also the failure detector: a worker leases each task it is
// handed and heartbeats while it works. A task whose worker misses its
// heartbeats (dead) or blows its lease deadline (straggling) is re-dealt to
// the next worker that asks — bounded by MaxAttempts, after which the run
// aborts — so a run completes on the surviving workers instead of hanging on
// a lost one. TACK is idempotent with first-wins payloads, so a reassigned
// task completed twice — the straggler finished after all — reports once.
//
// WAIT means every remaining task of the current phase is leased to a live
// worker, or the phase is held, or (for CUTS) the cuts are not published
// yet. It carries the epoch: a count of the changes that can turn a WAIT
// into another answer — a task dealt or completed, Open, SetCuts, Abort. The
// worker then sends PARK with that epoch, and the connection holds the
// request until the answer can change: the epoch moves, the earliest lease
// deadline or heartbeat lapse passes that could re-deal a task or release
// one reserved for a silent worker (on the server's clock), another line
// arrives on the connection, or the server closes. Those instants are judged
// from when the WAIT was answered, so one that passed before the PARK
// arrived ends the hold at once. Nothing polls. A hold is not a heartbeat: a
// parked worker beats on its other connection like any other.
type PhaseServer struct {
	ln      net.Listener
	wg      sync.WaitGroup
	closed  atomic.Bool
	closing chan struct{} // closed by Close: ends every hold and connection
	opts    ServerOptions
	served  atomic.Int64

	mu sync.Mutex
	// clock is the lease clock and the timer a hold wakes on, read under mu;
	// tests advance a fake one by hand instead of sleeping through timeouts.
	clock    clock
	phases   []phaseState
	lastBeat map[int]time.Time
	// waited is when each worker was last answered WAIT: the instant its
	// hold judges lapses and deadlines from (a worker parks one request at
	// a time).
	waited     map[int]time.Time
	reassigned int64
	abortMsg   string
	cuts       string
	cutsSet    bool
	// epoch counts the changes that can turn a WAIT into another answer;
	// changed is closed, and replaced, each time it moves.
	epoch   int
	changed chan struct{}
}

// clock is the phase server's time: the instant leases and heartbeats are
// judged at, and a timer that fires once that instant reaches t (stop
// releases it).
type clock interface {
	now() time.Time
	at(t time.Time) (fire <-chan time.Time, stop func())
}

type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }

func (wallClock) at(t time.Time) (<-chan time.Time, func()) {
	tm := time.NewTimer(time.Until(t))
	return tm.C, func() { tm.Stop() }
}

// NewPhaseServer starts a phase server on a random localhost port. counts
// gives each phase's task count in order; phases listed in held start
// withheld and deal nothing until Open.
func NewPhaseServer(counts []int, held []int, opts ServerOptions) (*PhaseServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &PhaseServer{
		ln:       ln,
		closing:  make(chan struct{}),
		opts:     opts.withDefaults(),
		clock:    wallClock{},
		phases:   make([]phaseState, len(counts)),
		lastBeat: make(map[int]time.Time),
		waited:   make(map[int]time.Time),
		changed:  make(chan struct{}),
	}
	for p, n := range counts {
		s.phases[p] = phaseState{
			tasks:     make([]chunkLease, n),
			payloads:  make([]string, n),
			remaining: n,
			dealt:     make(map[int]bool),
			done:      make(chan struct{}),
		}
		if n == 0 {
			close(s.phases[p].done)
		}
	}
	for _, p := range held {
		s.phases[p].held = true
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's address for clients.
func (s *PhaseServer) Addr() string { return s.ln.Addr().String() }

func (s *PhaseServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

// serve answers one connection's request lines in order until the client
// hangs up or the server closes. A reader goroutine scans the lines, so that
// a PARK held here still sees the next line arrive.
func (s *PhaseServer) serve(conn net.Conn) {
	defer conn.Close()
	lines := make(chan string)
	done := make(chan struct{})
	defer close(done)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(lines)
		sc := bufio.NewScanner(conn)
		// Acks carry run-sample / partition-result payloads well past the
		// scanner's default token limit.
		sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-done:
				return
			}
		}
	}()
	next := func() (string, bool) {
		select {
		case line, ok := <-lines:
			return line, ok
		case <-s.closing:
			return "", false
		}
	}
	w := bufio.NewWriter(conn)
	line, ok := next()
	for ok {
		reply := s.handleLine(line)
		following, interrupted := "", false
		if worker, epoch, park := parkArgs(line); park {
			if following, interrupted, ok = s.hold(worker, epoch, lines); !ok {
				return
			}
		}
		if reply != "" {
			fmt.Fprintf(w, "%s\n", reply)
			if err := w.Flush(); err != nil {
				return
			}
		}
		if interrupted {
			line = following
		} else {
			line, ok = next()
		}
	}
}

// hold keeps a worker's PARK open until the epoch it names moves, until the
// earliest instant a lease deadline or heartbeat lapse could change what the
// worker is told, or until the connection sends its next line (returned as
// following, for serve to answer after the PARK). ok is false when the
// connection or the server closed during the hold.
func (s *PhaseServer) hold(worker, epoch int, lines <-chan string) (following string, interrupted, ok bool) {
	s.mu.Lock()
	if epoch != s.epoch {
		s.mu.Unlock()
		return "", false, true
	}
	changed, clk := s.changed, s.clock
	since, asked := s.waited[worker]
	if !asked {
		since = clk.now() // a PARK no WAIT asked for
	}
	wakeAt, timed := s.wakeAtLocked(worker, since)
	s.mu.Unlock()

	var fire <-chan time.Time // nil: nothing but an event can wake the hold
	if timed {
		var stop func()
		fire, stop = clk.at(wakeAt)
		defer stop()
	}
	select {
	case <-changed:
	case <-fire:
	case following, ok = <-lines:
		return following, ok, ok
	case <-s.closing:
		return "", false, false
	}
	return "", false, true
}

// wakeAtLocked returns the earliest instant after since, the time the worker
// was answered WAIT, at which time alone could change its answer: a leased
// task passes its deadline, or another worker's heartbeats lapse (which may
// make its leases reclaimable or release a fresh task reserved for it). An
// instant at or before since already shaped the WAIT. timed is false when no
// such instant exists; a past one fires the hold's timer at once.
func (s *PhaseServer) wakeAtLocked(worker int, since time.Time) (wakeAt time.Time, timed bool) {
	// Leases expire and heartbeats lapse strictly after their instant.
	consider := func(t time.Time) {
		if t = t.Add(time.Nanosecond); t.After(since) && (!timed || t.Before(wakeAt)) {
			wakeAt, timed = t, true
		}
	}
	for p := range s.phases {
		for i := range s.phases[p].tasks {
			if c := &s.phases[p].tasks[i]; c.assigned && !c.done {
				consider(c.deadline)
			}
		}
	}
	for wkr, lb := range s.lastBeat {
		if wkr != worker {
			consider(lb.Add(s.opts.BeatTimeout))
		}
	}
	return wakeAt, timed
}

// waitLocked is the WAIT reply to worker at now: it carries the epoch the
// worker parks on, and records when it was answered for the hold.
func (s *PhaseServer) waitLocked(worker int, now time.Time) string {
	s.waited[worker] = now
	return "WAIT " + strconv.Itoa(s.epoch)
}

// bumpLocked moves the epoch, waking every hold.
func (s *PhaseServer) bumpLocked() {
	s.epoch++
	close(s.changed)
	s.changed = make(chan struct{})
}

// parkArgs parses a PARK request line.
func parkArgs(line string) (worker, epoch int, ok bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != "PARK" {
		return 0, 0, false
	}
	v, ok := wireInts(fields[1:], 2)
	if !ok {
		return 0, 0, false
	}
	return v[0], v[1], true
}

// handleLine answers one request line ("" for a blank one, which gets no
// reply). The line comes from the network: every field is checked before
// any state changes.
func (s *PhaseServer) handleLine(line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return ""
	}
	verb, args := fields[0], fields[1:]
	switch verb {
	case "TASK":
		if v, ok := wireInts(args, 1); ok {
			return s.handleTask(v[0])
		}
	case "TACK":
		if len(args) == 4 {
			if v, ok := wireInts(args[:3], 3); ok {
				payload := args[3]
				if payload == "-" {
					payload = ""
				}
				return s.handleTack(v[0], v[1], v[2], payload)
			}
		}
	case "CUTS":
		if v, ok := wireInts(args, 1); ok {
			return s.handleCuts(v[0])
		}
	case "BEAT":
		if v, ok := wireInts(args, 1); ok {
			s.mu.Lock()
			s.lastBeat[v[0]] = s.clock.now()
			s.mu.Unlock()
			return "OK"
		}
	case "PARK":
		// The hold itself is serve's: here a well-formed PARK is answered
		// at once, as if its epoch had already moved.
		if _, _, ok := parkArgs(line); ok {
			return "OK"
		}
	default:
		return "ERR unknown command"
	}
	return "ERR bad " + strings.ToLower(verb)
}

// wireInts parses exactly n request fields as non-negative integers.
func wireInts(args []string, n int) ([]int, bool) {
	if len(args) != n {
		return nil, false
	}
	out := make([]int, n)
	for i, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil || v < 0 {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// expiredLocked reports whether a leased task is reclaimable: its worker is
// dead (heartbeats stopped) or straggling (lease deadline passed).
func (s *PhaseServer) expiredLocked(c *chunkLease, now time.Time) bool {
	return now.After(c.deadline) || s.silentLocked(c.worker, now)
}

// silentLocked reports whether a worker the server has heard from has missed
// its heartbeats: no request within BeatTimeout.
func (s *PhaseServer) silentLocked(worker int, now time.Time) bool {
	lb, ok := s.lastBeat[worker]
	return ok && now.Sub(lb) > s.opts.BeatTimeout
}

// handleTask deals one task of the lowest incomplete phase — the phase
// barrier: later phases wait until every task of the phase completes, and a
// held phase answers WAIT until the coordinator opens it.
func (s *PhaseServer) handleTask(worker int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.now()
	s.lastBeat[worker] = now
	if s.abortMsg != "" {
		return "ABORT " + s.abortMsg
	}
	for p := range s.phases {
		ph := &s.phases[p]
		if ph.remaining == 0 {
			continue
		}
		if ph.held {
			return s.waitLocked(worker, now)
		}
		deal := func(i int) string {
			c := &ph.tasks[i]
			c.assigned = true
			c.worker = worker
			c.deadline = now.Add(s.opts.LeaseTimeout)
			c.attempts++
			ph.dealt[worker] = true
			s.served.Add(1)
			s.bumpLocked()
			return fmt.Sprintf("TASK %d %d", p, i)
		}
		// Fresh tasks first — spread across the fleet: one fresh task stays
		// reserved for every live worker yet to receive any task of this
		// phase, so a fast node cannot drain a cheap phase before slower
		// peers get their share started. A reserved-for worker that dies
		// releases its reservation once its heartbeats lapse.
		fresh := 0
		for i := range ph.tasks {
			if c := &ph.tasks[i]; !c.assigned && !c.done {
				fresh++
			}
		}
		if fresh > 0 {
			reserved := 0
			if ph.dealt[worker] {
				for wkr := range s.lastBeat {
					if wkr != worker && !ph.dealt[wkr] && !s.silentLocked(wkr, now) {
						reserved++
					}
				}
			}
			if fresh > reserved {
				for i := range ph.tasks {
					if c := &ph.tasks[i]; !c.assigned && !c.done {
						return deal(i)
					}
				}
			}
		}
		// Then expired leases (dead or straggling workers).
		for i := range ph.tasks {
			c := &ph.tasks[i]
			if !c.assigned || c.done || !s.expiredLocked(c, now) {
				continue
			}
			if c.attempts >= s.opts.MaxAttempts {
				s.abortMsg = fmt.Sprintf("phase %d task %d failed %d leases", p, i, c.attempts)
				s.bumpLocked()
				return "ABORT " + s.abortMsg
			}
			s.reassigned++
			return deal(i)
		}
		// Everything left in this phase is leased to a live worker; the
		// barrier forbids dealing from later phases.
		return s.waitLocked(worker, now)
	}
	return "DONE"
}

// handleTack marks a task complete and records its payload. Idempotent with
// first-wins payloads: a straggler finishing after reassignment changes
// nothing. Any worker may complete a task some worker leased; a task nobody
// was ever handed cannot have been done.
func (s *PhaseServer) handleTack(worker, phase, idx int, payload string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if phase >= len(s.phases) || idx >= len(s.phases[phase].tasks) {
		return "ERR no such task"
	}
	ph := &s.phases[phase]
	c := &ph.tasks[idx]
	if !c.assigned {
		return "ERR task not leased"
	}
	s.lastBeat[worker] = s.clock.now()
	if !c.done {
		c.done = true
		ph.payloads[idx] = payload
		ph.remaining--
		if ph.remaining == 0 {
			close(ph.done)
		}
		s.bumpLocked()
	}
	return "OK"
}

// handleCuts serves the coordinator's published cut decision, or WAIT while
// it is still being computed.
func (s *PhaseServer) handleCuts(worker int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.now()
	s.lastBeat[worker] = now
	if s.abortMsg != "" {
		return "ABORT " + s.abortMsg
	}
	if !s.cutsSet {
		return s.waitLocked(worker, now)
	}
	return "CUTS " + s.cuts
}

// SetCuts publishes the coordinator's cut payload to workers asking CUTS.
func (s *PhaseServer) SetCuts(payload string) {
	s.mu.Lock()
	s.cuts = payload
	s.cutsSet = true
	s.bumpLocked()
	s.mu.Unlock()
}

// Open releases a held phase for dealing.
func (s *PhaseServer) Open(phase int) {
	s.mu.Lock()
	s.phases[phase].held = false
	s.bumpLocked()
	s.mu.Unlock()
}

// Abort poisons the run: every subsequent TASK answers ABORT, unwinding the
// workers. Used by the coordinator when cut computation fails.
func (s *PhaseServer) Abort(msg string) {
	s.mu.Lock()
	if s.abortMsg == "" {
		s.abortMsg = msg
		s.bumpLocked()
	}
	s.mu.Unlock()
}

// PhaseDone returns a channel closed once every task of the phase has
// completed.
func (s *PhaseServer) PhaseDone(phase int) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phases[phase].done
}

// Payloads returns the payload each task of a phase reported (indexed by
// task).
func (s *PhaseServer) Payloads(phase int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.phases[phase].payloads))
	copy(out, s.phases[phase].payloads)
	return out
}

// Served returns how many task leases have been handed out (reassignments
// included).
func (s *PhaseServer) Served() int64 { return s.served.Load() }

// Reassigned returns how many tasks were re-dealt after an expired lease.
func (s *PhaseServer) Reassigned() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reassigned
}

// AllDone reports whether every task of every phase has completed.
func (s *PhaseServer) AllDone() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.abortMsg != "" {
		return false
	}
	for p := range s.phases {
		if s.phases[p].remaining != 0 {
			return false
		}
	}
	return true
}

// Close stops the server: it ends every hold, drops every connection and
// returns once their goroutines have exited.
func (s *PhaseServer) Close() {
	if s.closed.CompareAndSwap(false, true) {
		close(s.closing)
		s.ln.Close()
		s.wg.Wait()
	}
}

// NextTask fetches the next (phase, task) pair from a phase server, parking
// through WAIT (phase barriers, held phases) until the server's state moves;
// ok is false when every phase is drained or stop closed (at the first WAIT
// already closed, or during a hold).
func (c *ManifestClient) NextTask(stop <-chan struct{}) (phase, idx int, ok bool, err error) {
	req := fmt.Sprintf("TASK %d", c.worker)
	for {
		line, err := c.roundTrip(req)
		if err != nil {
			return 0, 0, false, err
		}
		switch {
		case line == "DONE":
			return 0, 0, false, nil
		case strings.HasPrefix(line, "WAIT "):
			if woke, err := c.wait(line, stop); !woke {
				return 0, 0, false, err
			}
		case strings.HasPrefix(line, "TASK "):
			var p, i int
			if _, err := fmt.Sscanf(line, "TASK %d %d", &p, &i); err != nil {
				return 0, 0, false, fmt.Errorf("cluster: bad task response %q", line)
			}
			return p, i, true, nil
		case strings.HasPrefix(line, "ABORT"):
			return 0, 0, false, fmt.Errorf("%w: %s", ErrAborted, strings.TrimSpace(strings.TrimPrefix(line, "ABORT")))
		default:
			return 0, 0, false, fmt.Errorf("cluster: bad task response %q", line)
		}
	}
}

// AckTask reports task idx of phase complete, attaching payload (a single
// token; empty for none).
func (c *ManifestClient) AckTask(phase, idx int, payload string) error {
	if payload == "" {
		payload = "-"
	}
	line, err := c.roundTrip(fmt.Sprintf("TACK %d %d %d %s", c.worker, phase, idx, payload))
	if err != nil {
		return err
	}
	if line != "OK" {
		return fmt.Errorf("cluster: bad tack response %q", line)
	}
	return nil
}

// Cuts fetches the coordinator's published cut payload, parking through WAIT
// like NextTask (ok false when stop closed).
func (c *ManifestClient) Cuts(stop <-chan struct{}) (payload string, ok bool, err error) {
	req := fmt.Sprintf("CUTS %d", c.worker)
	for {
		line, err := c.roundTrip(req)
		if err != nil {
			return "", false, err
		}
		switch {
		case strings.HasPrefix(line, "CUTS "):
			return strings.TrimPrefix(line, "CUTS "), true, nil
		case strings.HasPrefix(line, "WAIT "):
			if woke, err := c.wait(line, stop); !woke {
				return "", false, err
			}
		case strings.HasPrefix(line, "ABORT"):
			return "", false, fmt.Errorf("%w: %s", ErrAborted, strings.TrimSpace(strings.TrimPrefix(line, "ABORT")))
		default:
			return "", false, fmt.Errorf("cluster: bad cuts response %q", line)
		}
	}
}
