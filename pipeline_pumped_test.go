package persona

// Tests for the run loop's two schedules — no edges, and pumped edges of
// depth 1 — forced through the testDepth hook so they run at any
// GOMAXPROCS: golden byte-equivalence between them at GOMAXPROCS 1 and 4,
// the schedule a run derives from the processor count, stage accounting
// sanity, and teardown hygiene when the sink fails mid-merge. All of these
// are meant to run under -race with GOMAXPROCS=4 in CI.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"persona/internal/agd"
)

// schedule is one way the run loop links its stages, whatever GOMAXPROCS
// is; the zero value leaves the choice to the run.
type schedule struct {
	name   string
	serial bool
	depth  int
}

func (s schedule) apply(p *Pipeline) *Pipeline {
	if s.serial {
		return p.Serial()
	}
	p.testDepth = s.depth
	return p
}

// schedules are the two the run loop has: no edges, and edges of depth 1.
var schedules = []schedule{
	{name: "serial", serial: true},
	{name: "depth1", depth: 1},
}

// wgsGraph is the canonical Read→Align→Sort→MarkDup pipeline over "ds",
// ended by sink.
func wgsGraph(sess *Session, idx *Index, sink func(p *Pipeline) *Pipeline) *Pipeline {
	return sink(sess.Read("ds").Align(idx, AlignOptions{}).Sort(ByLocation).MarkDuplicates())
}

// runWGSBoth runs the canonical graph into SAM and BAM buffers under sch.
func runWGSBoth(t *testing.T, sess *Session, idx *Index, sch schedule) ([]byte, []byte, *PipelineReport) {
	t.Helper()
	ctx := context.Background()
	var sam, bam bytes.Buffer
	report, err := sch.apply(wgsGraph(sess, idx, func(p *Pipeline) *Pipeline { return p.ExportSAM(&sam) })).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sch.apply(wgsGraph(sess, idx, func(p *Pipeline) *Pipeline { return p.ExportBAM(&bam) })).Run(ctx); err != nil {
		t.Fatal(err)
	}
	return sam.Bytes(), bam.Bytes(), report
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
		if st.Groups != pu.Groups {
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
	for _, r := range []*PipelineReport{serial, pumped} {
		if sink, before := r.Stages[last], r.Stages[last-1]; sink.Groups != before.Groups {
			t.Errorf("depth %d sink drew %d groups, %s delivered %d", r.EdgeDepth, sink.Groups, before.Stage, before.Groups)
		}
	}
}

// checkConstructionFailures runs, under every schedule, graphs whose sort
// fails while it is being built — its input turns out empty — with stages
// above it already streaming. Each must return the stage's error and leave
// no cached chunk pinned and no goroutine behind, and the session must
// run a pipeline afterwards.
func checkConstructionFailures(t *testing.T, store Store, idx *Index) {
	cases := []struct {
		name  string
		graph func(p *Pipeline) *Pipeline
		want  string
	}{
		{"sort-of-nothing", func(p *Pipeline) *Pipeline {
			return p.Filter(func(*agd.ResultView) bool { return false }).Sort(ByLocation)
		}, "stream has no records"},
	}
	for _, tc := range cases {
		sess := NewSession(store, SessionOptions{})
		for _, sch := range schedules {
			t.Run(tc.name+"/"+sch.name, func(t *testing.T) {
				goroutines := runtime.NumGoroutine()
				var out bytes.Buffer
				_, err := sch.apply(tc.graph(sess.Read("ds").Align(idx, AlignOptions{})).
					MarkDuplicates().ExportSAM(&out)).Run(context.Background())
				if err == nil || !strings.Contains(err.Error(), tc.want) || !errors.Is(err, agd.ErrNoRecords) {
					t.Fatalf("run returned %v, want %q", err, tc.want)
				}
				waitGoroutines(t, goroutines)
				checkNoLeak(t, sess)
				report, err := sch.apply(sess.Read("ds").Align(idx, AlignOptions{}).ExportSAM(&out)).Run(context.Background())
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

// TestPipelinePumpedMatchesSerial is the pumped schedule's golden check:
// identical SAM and BAM bytes to the edge-free one, both forced, at
// GOMAXPROCS 1 and 4 — overlap must change timing only, never order or
// content.
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

			serialSAM, serialBAM, serialRep := runWGSBoth(t, sess, idx, schedules[0])
			pumpedSAM, pumpedBAM, pumpedRep := runWGSBoth(t, sess, idx, schedules[1])

			if !bytes.Equal(serialSAM, pumpedSAM) {
				t.Fatalf("pumped SAM differs from serial (%d vs %d bytes)", len(pumpedSAM), len(serialSAM))
			}
			if !bytes.Equal(serialBAM, pumpedBAM) {
				t.Fatalf("pumped BAM differs from serial (%d vs %d bytes)", len(pumpedBAM), len(serialBAM))
			}
			if serialRep.Pumped || serialRep.EdgeDepth != 0 {
				t.Fatalf("serial run reported pumped=%v depth=%d", serialRep.Pumped, serialRep.EdgeDepth)
			}
			if !pumpedRep.Pumped || pumpedRep.EdgeDepth != 1 {
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
			checkNoLeak(t, sess)
			checkStageReports(t, serialRep, pumpedRep)
			checkConstructionFailures(t, store, idx)

			// Over a store that refuses every Put and Delete — so a sort
			// spill could not be stored — every schedule still sorts and
			// writes the same bytes: the sort needs no store.
			readOnly := NewFaultStore(store, FaultPolicy{Writes: OpFaults{ErrProb: 1}})
			defer readOnly.Close()
			roSess := NewSession(readOnly, SessionOptions{})
			defer roSess.Close()
			for _, sch := range schedules {
				t.Run("spill-put-fails/"+sch.name, func(t *testing.T) {
					sam, bam, _ := runWGSBoth(t, roSess, idx, sch)
					if !bytes.Equal(sam, serialSAM) || !bytes.Equal(bam, serialBAM) {
						t.Fatal("output over a store refusing writes differs from serial")
					}
					checkNoLeak(t, roSess)
				})
			}
		})
	}
}

// pumpProbe is a sink that records, at its first write, whether any pump
// goroutine is alive: by then the sort has staged its input and every stage
// is streaming.
type pumpProbe struct {
	bytes.Buffer
	once   sync.Once
	pumped bool
}

func (w *pumpProbe) Write(p []byte) (int, error) {
	w.once.Do(func() {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		w.pumped = strings.Contains(stacks, "agd.RunPump")
	})
	return w.Buffer.Write(p)
}

// raceEnabled is set when the race detector is on (race_test.go). Its
// sync.Pool drops a random share of Puts, so byte counts measured under it
// vary from run to run by more than the schedules differ.
var raceEnabled bool

// allocBytes is the least the canonical graph, ended in a BAM export and
// run under sch, allocated over three runs, after one that warms the
// session's pools.
func allocBytes(t *testing.T, sess *Session, idx *Index, sch schedule) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p := sch.apply(wgsGraph(sess, idx, func(p *Pipeline) *Pipeline { return p.ExportBAM(io.Discard) }))
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i > 0 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	return least
}

// TestScheduleFollowsProcessors: a run left to choose its schedule has no
// edges at GOMAXPROCS 1 — no pump goroutine, and no more bytes allocated
// than the same graph run Serial — and edges of depth 1 above that, with
// the same output bytes and stage accounting either way.
func TestScheduleFollowsProcessors(t *testing.T) {
	store, g := pipelineFixture(t, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()
	serialSAM, serialBAM, serialRep := runWGSBoth(t, sess, idx, schedules[0])

	for _, tc := range []struct{ procs, depth int }{{1, 0}, {2, 1}} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", tc.procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(tc.procs)
			defer runtime.GOMAXPROCS(prev)

			sam, bam, report := runWGSBoth(t, sess, idx, schedule{})
			if !bytes.Equal(sam, serialSAM) || !bytes.Equal(bam, serialBAM) {
				t.Fatal("output differs from the serial run's")
			}
			if report.Pumped != (tc.depth > 0) || report.EdgeDepth != tc.depth {
				t.Fatalf("run reported pumped=%v depth=%d, want depth %d", report.Pumped, report.EdgeDepth, tc.depth)
			}
			for _, st := range report.Stages {
				if st.PeakQueue > tc.depth {
					t.Errorf("stage %s peak queue %d exceeds depth %d", st.Stage, st.PeakQueue, tc.depth)
				}
			}
			checkStageReports(t, serialRep, report)
			checkNoLeak(t, sess)

			// The probe sees pumps exactly where the run has edges, so its
			// "none" at one processor is a finding, not a blind spot.
			var probe pumpProbe
			if _, err := wgsGraph(sess, idx, func(p *Pipeline) *Pipeline { return p.ExportSAM(&probe) }).Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if probe.pumped != (tc.depth > 0) {
				t.Fatalf("pump goroutine alive during the run: %v, want %v", probe.pumped, tc.depth > 0)
			}

			if tc.depth == 0 && !raceEnabled {
				def, ser := allocBytes(t, sess, idx, schedule{}), allocBytes(t, sess, idx, schedules[0])
				if float64(def) > 1.05*float64(ser) {
					t.Fatalf("default run allocated %d B, serial %d B (over 1.05x)", def, ser)
				}
			}
		})
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

// TestPipelineSinkFailureReturnsPooledChunks: when the sink dies partway
// through sort's merge, the teardown cascade must still reach every stage —
// the store ends with exactly the keys it started with, every cached chunk's
// pin is released, and no pump goroutine outlives the run.
func TestPipelineSinkFailureReturnsPooledChunks(t *testing.T) {
	store, g := pipelineFixture(t, "ds")
	idx, err := BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(store, SessionOptions{})
	defer sess.Close()
	goroutines := runtime.NumGoroutine()
	keysBefore, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}

	prog := NewProgress()
	_, err = sess.Read("ds").
		Align(idx, AlignOptions{}).
		Sort(ByLocation).
		MarkDuplicates().
		ExportSAM(&failingWriter{limit: 512}).
		Observe(prog).
		Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("run with failing sink returned %v, want the sink's error", err)
	}

	// The failure landed mid-merge: the sort had delivered groups...
	if stages := prog.Snapshot(); len(stages) != 5 || stages[2].Groups == 0 {
		t.Fatalf("sort delivered no group before the sink failed: %+v", stages)
	}
	// ...and the store holds exactly what it held before the run.
	keysAfter, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keysAfter) != len(keysBefore) {
		t.Fatalf("store key count changed across failed run: %d -> %d", len(keysBefore), len(keysAfter))
	}

	// Chunk pins and pump goroutines drain back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		leak := chunkLeak(sess)
		ngo := runtime.NumGoroutine()
		if leak == nil && ngo <= goroutines {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after sink failure: %v, goroutines %d (was %d)", leak, ngo, goroutines)
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
