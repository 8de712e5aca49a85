package jobs

// Chaos suite of the job service: a hard kill mid-job (no journal writes,
// no cleanup — exactly what SIGKILL leaves behind) followed by a restart
// over the same store must resume the job and produce byte-identical
// output, with no leaked blobs and no leaked pooled chunks. Fault
// injection runs under fixed seeds so CI replays the same schedules.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"persona"
)

// chaosPolicy is the fixed fault mix both incarnations run under: transient
// read/write errors and latency spikes on every blob — dataset chunks,
// journal records and the result blob all flow through it.
func chaosPolicy(seed int64) persona.FaultPolicy {
	return persona.FaultPolicy{
		Seed:   seed,
		Reads:  persona.OpFaults{ErrProb: 0.15, LatencyProb: 0.05, Latency: 200 * time.Microsecond},
		Writes: persona.OpFaults{ErrProb: 0.1},
	}
}

func chaosRetry() persona.RetryPolicy {
	return persona.RetryPolicy{MaxAttempts: 8, BaseDelay: 100 * time.Microsecond, MaxDelay: 2 * time.Millisecond}
}

// TestChaosKillAndResume: kill the server mid-attempt under injected
// faults; a fresh incarnation over the same store must detect the unclean
// shutdown, replay the RUNNING claim, re-run the job idempotently and end
// with a byte-identical result and a clean blob namespace.
func TestChaosKillAndResume(t *testing.T) {
	for _, seed := range []int64{5, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inner := persona.NewMemStore()
			g := importTestDataset(t, inner, "ds")
			want := directWGS(t, inner, g)
			base, err := inner.List("")
			if err != nil {
				t.Fatal(err)
			}
			spec := Spec{Dataset: "ds", Align: true, Sort: "location", MarkDup: true, Format: "sam"}

			// Incarnation 1: gated so the attempt reliably hangs mid-read,
			// then killed. The gate sits inside the fault/retry stack, as a
			// slow disk would.
			gate := make(chan struct{})
			gated := &gateStore{Store: inner, substr: "ds/chunk-000002", gate: gate}
			faulty := persona.NewFaultStore(gated, chaosPolicy(seed))
			resilient := persona.NewRetryStore(faulty, chaosRetry())
			sess := persona.NewSession(resilient, persona.SessionOptions{})
			m, err := NewManager(Config{
				Store: resilient, Session: sess, Reference: g,
				Workers: 1, RetryBase: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Recover(); err != nil {
				t.Fatal(err)
			}
			m.Start()
			st, err := m.Submit("acme", spec)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, "job to start", func() bool {
				cur, err := m.Status(st.ID)
				return err == nil && cur.State == StateRunning
			})
			killed := make(chan struct{})
			go func() {
				m.Kill()
				close(killed)
			}()
			time.Sleep(20 * time.Millisecond) // killed flag is set; journal is frozen
			close(gate)                       // let the blocked read unwind into the dead run
			<-killed
			waitNoLeak(t, sess) // pooled chunks drain even on a hard kill
			sess.Close()
			faulty.Close()

			// The journal must hold the RUNNING claim and no clean marker —
			// the crash signature recovery keys off.
			recs, loadErrs, err := NewJournal(inner).Load()
			if err != nil || len(loadErrs) > 0 {
				t.Fatalf("journal load after kill: %v %v", err, loadErrs)
			}
			if len(recs) != 1 || recs[0].State != StateRunning || recs[0].Attempts != 1 {
				t.Fatalf("journal after kill = %+v, want one RUNNING claim with 1 attempt", recs[0])
			}

			// Incarnation 2: same store, fresh wrappers (a new process),
			// different fault schedule.
			faulty2 := persona.NewFaultStore(inner, chaosPolicy(seed+100))
			defer faulty2.Close()
			resilient2 := persona.NewRetryStore(faulty2, chaosRetry())
			sess2 := persona.NewSession(resilient2, persona.SessionOptions{})
			defer sess2.Close()
			m2, err := NewManager(Config{
				Store: resilient2, Session: sess2, Reference: g,
				Workers: 1, RetryBase: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := m2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rep.CleanShutdown || rep.Interrupted != 1 || rep.Requeued != 1 {
				t.Fatalf("recovery = %+v, want unclean with 1 interrupted job requeued", rep)
			}
			m2.Start()
			fin := waitTerminal(t, m2, st.ID, 60*time.Second)
			if fin.State != StateDone {
				t.Fatalf("resumed job = %s (%s), want DONE", fin.State, fin.Error)
			}
			if fin.Attempts != 2 {
				t.Fatalf("attempts = %d, want 2 (the killed claim plus the resume)", fin.Attempts)
			}
			_, data, err := m2.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("seed %d: resumed SAM differs from fault-free baseline (%d vs %d bytes)", seed, len(data), len(want))
			}

			// No debris: the job namespace holds exactly the result blob,
			// and outside it and the journal the store holds what it held
			// before the job.
			names, err := inner.List("jobs/" + st.ID + "/")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 1 || names[0] != resultBlob(st.ID) {
				t.Fatalf("job namespace after resume = %v, want only the result blob", names)
			}
			all, err := inner.List("")
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range all {
				if !slices.Contains(base, name) && !strings.HasPrefix(name, "jobs/"+st.ID+"/") && !strings.HasPrefix(name, journalPrefix) {
					t.Fatalf("leaked blob %q", name)
				}
			}
			if fs := faulty2.Stats(); fs.InjectedErrors+fs.InjectedLatency == 0 {
				t.Fatalf("seed %d: no faults injected on resume; the chaos run is vacuous", seed)
			}
			checkNoLeak(t, sess2)

			// And the second incarnation drains cleanly.
			if err := m2.Drain(t.Context()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSaturationLoadShedding: with one worker held busy and a 2-deep
// admission budget, extra submissions shed with ErrOverloaded (429 +
// Retry-After) instead of queueing unboundedly — while every admitted job
// still completes once the worker frees up.
func TestSaturationLoadShedding(t *testing.T) {
	store := persona.NewMemStore()
	g := importTestDataset(t, store, "ds")
	importTestDataset(t, store, "gate-ds")
	gate := make(chan struct{})
	gated := &gateStore{Store: store, substr: "gate-ds/chunk-000000", gate: gate}
	m, sess := newTestManager(t, gated, g, func(c *Config) {
		c.Workers = 1
		c.MaxQueued = 2
	})

	warm, err := m.Submit("acme", Spec{Dataset: "gate-ds", Format: "fastq"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "gate job to hold the worker", func() bool {
		cur, err := m.Status(warm.ID)
		return err == nil && cur.State == StateRunning
	})
	admitted := []*JobStatus{warm}
	for i := 0; i < 2; i++ {
		st, err := m.Submit("acme", Spec{Dataset: "ds", Format: "fastq"})
		if err != nil {
			t.Fatal(err)
		}
		admitted = append(admitted, st)
	}
	var sheds int
	for i := 0; i < 5; i++ {
		_, err := m.Submit("acme", Spec{Dataset: "ds", Format: "fastq"})
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit past budget = %v, want ErrOverloaded", err)
		}
		if !IsTransient(err) {
			t.Fatal("overload classified permanent")
		}
		status, retryAfter := HTTPStatus(err)
		if status != 429 || retryAfter <= 0 {
			t.Fatalf("overload maps to %d/%v, want 429 with Retry-After", status, retryAfter)
		}
		sheds++
	}
	if s := m.Stats(); s.Queued != 2 {
		t.Fatalf("queued = %d under shedding, want the budget's 2", s.Queued)
	}

	close(gate)
	for _, st := range admitted {
		if fin := waitTerminal(t, m, st.ID, 30*time.Second); fin.State != StateDone {
			t.Fatalf("admitted job %s = %s (%s), want DONE", st.ID, fin.State, fin.Error)
		}
	}
	s := m.Stats()
	if s.Tenants["acme"].Rejected != int64(sheds) || s.Tenants["acme"].Completed != int64(len(admitted)) {
		t.Fatalf("accounting = %+v, want %d rejections and %d completions", s.Tenants["acme"], sheds, len(admitted))
	}
	checkNoLeak(t, sess)
}
