package jobs

// Shared fixtures of the jobs suite: a small simulated dataset, deterministic
// store wrappers (a gate that blocks reads of chosen blobs until released, a
// wrapper that fails the first N writes of a blob), and wait helpers. The
// chaos and drain tests use the gate to hold a job mid-attempt at an exact,
// reproducible point instead of racing timers against the pipeline.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"persona"
	"persona/internal/formats/fastq"
	"persona/internal/reads"
)

// importTestDataset imports a simulated read set into store as dataset name
// and returns the genome it was simulated from.
func importTestDataset(t testing.TB, store persona.Store, name string) *persona.Genome {
	t.Helper()
	g, err := persona.SynthesizeGenome(100_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := reads.NewSimulator(g, reads.SimConfig{
		Seed: 8, N: 400, ReadLen: 80, ErrorRate: 0.003, DuplicateFraction: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := sim.All()
	var fq bytes.Buffer
	w := fastq.NewWriter(&fq)
	for i := range rs {
		if err := w.Write(&rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := persona.ImportFASTQ(context.Background(), store, name, strings.NewReader(fq.String()), persona.RefSeqs(g), 100); err != nil {
		t.Fatal(err)
	}
	return g
}

// directWGS runs the aligned/sorted/deduplicated SAM pipeline directly over
// a store — the byte-identity baseline job results are compared against.
func directWGS(t testing.TB, store persona.Store, g *persona.Genome) []byte {
	t.Helper()
	sess := persona.NewSession(store, persona.SessionOptions{})
	defer sess.Close()
	idx, err := sess.Index(g)
	if err != nil {
		t.Fatal(err)
	}
	var sam bytes.Buffer
	if _, err := sess.Read("ds").
		Align(idx, persona.AlignOptions{}).
		Sort(persona.ByLocation).
		MarkDuplicates().
		ExportSAM(&sam).
		Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sam.Bytes()
}

// pinsHeld is the session's leak probe: the pins readers still hold on
// cached chunks (CacheStats.Pinned), which a row group never released keeps
// above zero.
func pinsHeld(sess *persona.Session) int {
	st, _ := sess.CacheStats()
	return st.Pinned
}

// checkNoLeak asserts every group a job's source delivered was released.
func checkNoLeak(t testing.TB, sess *persona.Session) {
	t.Helper()
	if n := pinsHeld(sess); n != 0 {
		t.Fatalf("chunk leak: %d pins on cached chunks still held", n)
	}
}

// waitNoLeak polls for the pins to drain — after a cancelled or killed run,
// a stage may release its last group a beat later.
func waitNoLeak(t testing.TB, sess *persona.Session) {
	t.Helper()
	waitFor(t, 5*time.Second, "cached chunk pins to drain", func() bool { return pinsHeld(sess) == 0 })
}

// gateStore blocks Get of blobs whose name contains substr until the gate
// channel closes — a deterministic way to hold a job mid-pipeline.
type gateStore struct {
	persona.Store
	substr string
	gate   chan struct{}
}

func (s *gateStore) Get(name string) ([]byte, error) {
	if strings.Contains(name, s.substr) {
		<-s.gate
	}
	return s.Store.Get(name)
}

// failNStore fails the first n Puts of blobs whose name contains substr
// with a transient error, then passes through — deterministic transient
// failure for retry tests.
type failNStore struct {
	persona.Store
	substr string
	mu     sync.Mutex
	n      int
}

func (s *failNStore) Put(name string, data []byte) error {
	if strings.Contains(name, s.substr) {
		s.mu.Lock()
		if s.n > 0 {
			s.n--
			s.mu.Unlock()
			return fmt.Errorf("put %q: injected transient fault", name)
		}
		s.mu.Unlock()
	}
	return s.Store.Put(name, data)
}

// holdPutStore blocks Puts whose name starts with prefix and whose payload
// contains substr until release closes; reached closes at the first one.
type holdPutStore struct {
	persona.Store
	prefix, substr string
	reached        chan struct{}
	release        chan struct{}
	once           sync.Once
}

func (s *holdPutStore) Put(name string, data []byte) error {
	if strings.HasPrefix(name, s.prefix) && bytes.Contains(data, []byte(s.substr)) {
		s.once.Do(func() { close(s.reached) })
		<-s.release
	}
	return s.Store.Put(name, data)
}

// waitFor polls cond until true or the deadline lapses.
func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitTerminal waits, at most timeout, for a job to end and returns its
// status.
func waitTerminal(t testing.TB, m *Manager, id string, timeout time.Duration) *JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() {
		t.Fatalf("timed out waiting for job %s to finish: %s", id, st.State)
	}
	return st
}
