package persona

// Tests for the pumped pipeline scheduler: golden byte-equivalence against
// the serial pull scheduler at different GOMAXPROCS settings and edge
// depths, stage accounting sanity, and teardown hygiene when the sink fails
// mid-merge (the sort spill sweep). All of these are meant to run under
// -race with GOMAXPROCS=4 in CI.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"persona/internal/agd"
	"persona/internal/storage"
)

// runWGSBoth runs the canonical Read→Align→Sort→MarkDup pipeline over "ds" into
// SAM and BAM buffers, serial or pumped (at depth, 0 = default).
func runWGSBoth(t *testing.T, sess *Session, idx *Index, serial bool, depth int) ([]byte, []byte, *PipelineReport) {
	t.Helper()
	ctx := context.Background()
	build := func(sink func(p *Pipeline) *Pipeline) *Pipeline {
		p := sink(sess.Read("ds").Align(idx, AlignOptions{}).Sort(ByLocation).MarkDuplicates())
		if serial {
			p = p.Serial()
		}
		if depth > 0 {
			p = p.EdgeDepth(depth)
		}
		return p
	}
	var sam, bam bytes.Buffer
	report, err := build(func(p *Pipeline) *Pipeline { return p.ExportSAM(&sam) }).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := build(func(p *Pipeline) *Pipeline { return p.ExportBAM(&bam) }).Run(ctx); err != nil {
		t.Fatal(err)
	}
	return sam.Bytes(), bam.Bytes(), report
}

// schedules are the ways the one run loop links its stages: no edges, edges
// that are bare handoffs, and the default depth.
var schedules = []struct {
	name   string
	serial bool
	depth  int
}{
	{"serial", true, 0},
	{"depth1", false, 1},
	{"default", false, 0},
}

// checkStageReports holds a serial and a pumped report of the same graph to
// what every schedule must agree on, and each to its own accounting rules.
func checkStageReports(t *testing.T, serial, pumped *PipelineReport) {
	t.Helper()
	if len(serial.Stages) != len(pumped.Stages) {
		t.Fatalf("stage reports: serial %d, pumped %d", len(serial.Stages), len(pumped.Stages))
	}
	last := len(serial.Stages) - 1
	var sum time.Duration
	for i, st := range serial.Stages {
		pu := pumped.Stages[i]
		if st.Stage != pu.Stage || st.Records != pu.Records {
			t.Errorf("stage %d: serial %s/%d records, depth %d %s/%d", i, st.Stage, st.Records, pumped.EdgeDepth, pu.Stage, pu.Records)
		}
		if i < last && st.Groups != pu.Groups {
			t.Errorf("stage %s: serial %d groups, depth %d %d", st.Stage, st.Groups, pumped.EdgeDepth, pu.Groups)
		}
		if st.Blocked != 0 || st.PeakQueue != 0 || st.Busy < 0 {
			t.Errorf("serial stage %s: blocked=%v peak=%d busy=%v", st.Stage, st.Blocked, st.PeakQueue, st.Busy)
		}
		sum += st.Busy
		if pu.Elapsed != pu.Busy || pu.PeakQueue > pumped.EdgeDepth {
			t.Errorf("depth %d stage %s: elapsed=%v busy=%v peak=%d", pumped.EdgeDepth, pu.Stage, pu.Elapsed, pu.Busy, pu.PeakQueue)
		}
	}
	if sum > serial.Elapsed {
		t.Errorf("serial stages were busy %v of a %v run", sum, serial.Elapsed)
	}
	if sink, before := pumped.Stages[last], pumped.Stages[last-1]; sink.Groups != before.Groups {
		t.Errorf("depth %d sink drew %d groups, %s delivered %d", pumped.EdgeDepth, sink.Groups, before.Stage, before.Groups)
	}
}

// checkConstructionFailures runs, under every schedule, graphs whose sort
// fails while it is being built — its input turns out empty, or its spill
// cannot be stored — with stages above it already streaming. Each must
// return the stage's error and leave no pooled chunk checked out, no spill
// blob and no goroutine behind, and the session must run a pipeline
// afterwards.
func checkConstructionFailures(t *testing.T, store Store, idx *Index) {
	noSpills := NewFaultStore(store, FaultPolicy{
		Keys: []KeyFaults{{Substr: ".pipeline/", Writes: OpFaults{ErrProb: 1}}},
	})
	defer noSpills.Close()
	cases := []struct {
		name  string
		store Store
		graph func(p *Pipeline) *Pipeline
		want  string
	}{
		{"sort-of-nothing", store, func(p *Pipeline) *Pipeline {
			return p.Filter(func(*agd.ResultView) bool { return false }).Sort(ByLocation)
		}, "stream has no records"},
		{"spill-put-fails", noSpills, func(p *Pipeline) *Pipeline {
			return p.Sort(ByLocation)
		}, storage.ErrInjected.Error()},
	}
	for _, tc := range cases {
		sess := NewSession(tc.store, SessionOptions{})
		time.Sleep(10 * time.Millisecond) // let executor workers reach steady state
		for _, sch := range schedules {
			t.Run(tc.name+"/"+sch.name, func(t *testing.T) {
				goroutines := runtime.NumGoroutine()
				schedule := func(p *Pipeline) *Pipeline {
					if sch.serial {
						p = p.Serial()
					}
					return p.EdgeDepth(sch.depth)
				}
				var out bytes.Buffer
				_, err := schedule(tc.graph(sess.Read("ds").Align(idx, AlignOptions{})).
					MarkDuplicates().ExportSAM(&out)).Run(context.Background())
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("run returned %v, want %q", err, tc.want)
				}
				if left, _ := store.List(".pipeline/"); len(left) != 0 {
					t.Fatalf("spill blobs left: %v", left)
				}
				waitGoroutines(t, goroutines)
				if size, free := sess.PoolStats(); size != free {
					t.Fatalf("chunk pool leak: %d of %d free", free, size)
				}
				report, err := schedule(sess.Read("ds").Align(idx, AlignOptions{}).ExportSAM(&out)).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if report.Records != 800 {
					t.Fatalf("run after the failure exported %d records", report.Records)
				}
			})
		}
		sess.Close()
	}
}

// TestPipelinePumpedMatchesSerial is the pumped scheduler's golden check:
// identical SAM and BAM bytes to the serial pull scheduler, at GOMAXPROCS 1
// and 4 — overlap must change timing only, never order or content.
func TestPipelinePumpedMatchesSerial(t *testing.T) {
	store, g := pipelineFixture(t, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			serialSAM, serialBAM, serialRep := runWGSBoth(t, sess, idx, true, 0)
			pumpedSAM, pumpedBAM, pumpedRep := runWGSBoth(t, sess, idx, false, 0)

			if !bytes.Equal(serialSAM, pumpedSAM) {
				t.Fatalf("pumped SAM differs from serial (%d vs %d bytes)", len(pumpedSAM), len(serialSAM))
			}
			if !bytes.Equal(serialBAM, pumpedBAM) {
				t.Fatalf("pumped BAM differs from serial (%d vs %d bytes)", len(pumpedBAM), len(serialBAM))
			}
			if serialRep.Pumped || serialRep.EdgeDepth != 0 {
				t.Fatalf("serial run reported pumped=%v depth=%d", serialRep.Pumped, serialRep.EdgeDepth)
			}
			if !pumpedRep.Pumped || pumpedRep.EdgeDepth != DefaultEdgeDepth {
				t.Fatalf("pumped run reported pumped=%v depth=%d", pumpedRep.Pumped, pumpedRep.EdgeDepth)
			}
			if pumpedRep.Records != 800 || serialRep.Records != 800 {
				t.Fatalf("records pumped=%d serial=%d", pumpedRep.Records, serialRep.Records)
			}

			// Stage accounting sanity on the pumped run: every stage moved
			// all groups, no queue exceeded the edge depth, and attribution
			// never went negative.
			if len(pumpedRep.Stages) != 5 {
				t.Fatalf("stage reports: %v", pumpedRep.Stages)
			}
			for _, st := range pumpedRep.Stages {
				if st.PeakQueue > pumpedRep.EdgeDepth {
					t.Errorf("stage %s peak queue %d exceeds edge depth %d", st.Stage, st.PeakQueue, pumpedRep.EdgeDepth)
				}
				if st.Busy < 0 || st.Blocked < 0 {
					t.Errorf("stage %s negative attribution: busy=%v blocked=%v", st.Stage, st.Busy, st.Blocked)
				}
				if st.Elapsed != st.Busy {
					t.Errorf("stage %s pumped Elapsed %v != Busy %v", st.Stage, st.Elapsed, st.Busy)
				}
				if st.Groups == 0 {
					t.Errorf("stage %s moved no groups", st.Stage)
				}
			}
			if size, free := sess.PoolStats(); size != free {
				t.Fatalf("chunk pool leak: %d of %d free", free, size)
			}
			checkStageReports(t, serialRep, pumpedRep)
			checkConstructionFailures(t, store, idx)
		})
	}
}

// TestPipelineEdgeDepthSweep: output bytes are identical at every queue
// depth, including depth 1 (maximum backpressure — every edge is a
// handoff).
func TestPipelineEdgeDepthSweep(t *testing.T) {
	store, g := pipelineFixture(t, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()

	baseSAM, baseBAM, baseRep := runWGSBoth(t, sess, idx, true, 0)
	for _, depth := range []int{1, 2, 8} {
		sam, bam, report := runWGSBoth(t, sess, idx, false, depth)
		if !bytes.Equal(baseSAM, sam) || !bytes.Equal(baseBAM, bam) {
			t.Fatalf("depth %d output differs from serial", depth)
		}
		if report.EdgeDepth != depth {
			t.Fatalf("report depth %d, want %d", report.EdgeDepth, depth)
		}
		if size, free := sess.PoolStats(); size != free {
			t.Fatalf("depth %d chunk pool leak: %d of %d free", depth, free, size)
		}
		checkStageReports(t, baseRep, report)
	}
}

// failingWriter fails every Write after limit bytes — a sink dying
// mid-stream (disk full) partway through sort's merge.
type failingWriter struct {
	n, limit int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > w.limit {
		return 0, errors.New("sink: disk full")
	}
	return len(p), nil
}

// TestPipelineSinkFailureSweepsSortSpills is the satellite-3 check: when the
// sink dies partway through sort's merge, the teardown cascade must reach
// the sort stage's stop hook and sweep the phase-1 spill blobs — the store
// ends with exactly the keys it started with, the pools drain, and no pump
// goroutine outlives the run.
func TestPipelineSinkFailureSweepsSortSpills(t *testing.T) {
	store, g := pipelineFixture(t, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()
	time.Sleep(10 * time.Millisecond) // let executor workers reach steady state
	goroutines := runtime.NumGoroutine()
	keysBefore, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	putsBefore := len(store.putNames())

	_, err = sess.Read("ds").
		Align(idx, AlignOptions{}).
		Sort(ByLocation).
		MarkDuplicates().
		ExportSAM(&failingWriter{limit: 512}).
		Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("run with failing sink returned %v, want the sink's error", err)
	}

	// The sort must actually have spilled (the failure landed mid-merge,
	// after phase 1 staged and wrote superchunks)...
	spilled := false
	for _, name := range store.putNames()[putsBefore:] {
		if strings.HasPrefix(name, ".pipeline/") {
			spilled = true
			break
		}
	}
	if !spilled {
		t.Fatal("sort never spilled; the failure did not land mid-merge")
	}
	// ...and the sweep must have removed every spill again: key count back
	// to the pre-run state.
	if left, _ := store.List(".pipeline/"); len(left) != 0 {
		t.Fatalf("spill blobs left after sink failure: %v", left)
	}
	keysAfter, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keysAfter) != len(keysBefore) {
		t.Fatalf("store key count changed across failed run: %d -> %d", len(keysBefore), len(keysAfter))
	}

	// Pools and pump goroutines drain back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		size, free := sess.PoolStats()
		ngo := runtime.NumGoroutine()
		if size == free && ngo <= goroutines {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after sink failure: pool %d/%d free, goroutines %d (was %d)",
				free, size, ngo, goroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The same session still completes the pipeline cleanly afterwards.
	var out bytes.Buffer
	report, err := sess.Read("ds").
		Align(idx, AlignOptions{}).
		Sort(ByLocation).
		MarkDuplicates().
		ExportSAM(&out).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Records != 800 {
		t.Fatalf("post-failure run exported %d records", report.Records)
	}
}
