package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// usage is what one timed section cost the process, and what the host probe
// took right before it.
type usage struct {
	probe      time.Duration
	wall       time.Duration
	cpuSeconds float64 // user + system
	mallocs    uint64
	allocBytes uint64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// theProbe is the one host probe of the process, made on first use.
var theProbe *hostProbe

// timed runs fn between two resource samples. The collection that empties
// the heap, the host probe and the samples themselves are outside the wall.
func timed(fn func() error) (usage, error) {
	if theProbe == nil {
		theProbe = newHostProbe()
		theProbe.run() // untimed: the probe's own first-run costs
	}
	runtime.GC()
	probe := theProbe.run()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return usage{
		probe:      probe,
		wall:       wall,
		cpuSeconds: c1 - c0,
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
	}, err
}

// slowness is how many times slower than the reference host this host ran
// the probe right before the section.
func (u usage) slowness() float64 { return u.probe.Seconds() / probeReferenceSeconds }

// onReferenceHost returns the section's wall and CPU seconds as they would
// have been on the reference host: the time the process was on a processor
// shrinks by the host's slowness, the time it waited — for a store's
// latency, for an fsync — does not.
func (u usage) onReferenceHost() (wall, cpu float64) {
	wall, cpu = u.wall.Seconds(), u.cpuSeconds
	slow := u.slowness()
	return wall - min(cpu, wall)*(1-1/slow), cpu / slow
}

// repOutcome is one timed rep: what it cost, how many records reached its
// sinks, and the per-layer numbers its reports carried. A rep of the service
// workload is a round of jobs; it also carries each job's timings.
type repOutcome struct {
	usage   usage
	records uint64
	layer   map[string]float64
	jobs    []jobTiming
}

// measurement is everything a run measured with tracing off: its set-ups
// and its timed reps, each with the host probe's wall before it.
type measurement struct {
	// Operations are reps. A rep that errors — a wrong output is an error —
	// is a failed operation and contributes no sample; the first few
	// failures' messages are kept.
	attempted, failed int
	failures          []string

	setups []usage
	reps   []repOutcome
}

// probeWalls returns the host probe's wall before every set-up and rep.
func (m *measurement) probeWalls() []float64 {
	var walls []float64
	for _, u := range m.setups {
		walls = append(walls, u.probe.Seconds())
	}
	for _, r := range m.reps {
		walls = append(walls, r.usage.probe.Seconds())
	}
	return walls
}

// repWalls returns every completed rep's wall in seconds, as measured.
func (m *measurement) repWalls() []float64 {
	walls := make([]float64, len(m.reps))
	for i, r := range m.reps {
		walls[i] = r.usage.wall.Seconds()
	}
	return walls
}

// repCPUs returns every completed rep's CPU seconds, as measured.
func (m *measurement) repCPUs() []float64 {
	cpus := make([]float64, len(m.reps))
	for i, r := range m.reps {
		cpus[i] = r.usage.cpuSeconds
	}
	return cpus
}

// repWall is the median rep wall on the reference host, which the timing
// metrics stand on. (The traced pass compares its own walls, as measured,
// with the reps' walls as measured: the per-layer numbers are this host's.)
func (m *measurement) repWall() float64 {
	walls := make([]float64, len(m.reps))
	for i, r := range m.reps {
		walls[i], _ = r.usage.onReferenceHost()
	}
	return median(walls)
}

// measureReps runs rep until seconds have passed (untimed preparation and
// verification included, so a run's length is predictable) and at least
// atLeast more reps have completed.
func (m *measurement) measureReps(ctx context.Context, seconds float64, atLeast int, rep func(context.Context) (repOutcome, error)) error {
	start, done := time.Now(), len(m.reps)+atLeast
	for time.Since(start).Seconds() < seconds || len(m.reps) < done {
		if err := ctx.Err(); err != nil {
			return err
		}
		if m.failed >= atLeast {
			return fmt.Errorf("%d reps failed, first: %s", m.failed, m.failures[0])
		}
		m.attempted++
		out, err := rep(ctx)
		if err != nil {
			m.failed++
			if len(m.failures) < 3 {
				m.failures = append(m.failures, err.Error())
			}
			continue
		}
		m.reps = append(m.reps, out)
	}
	return nil
}
