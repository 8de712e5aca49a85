package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// rootLayer is the layer of the span that encloses one traced rep. Its self
// time is the part of the wall no layer span covers, which trace.coverage
// reports as missing.
const rootLayer = "bench"

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a rep's root span
	Rep    int    `json:"rep"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"` // blob name, for store calls
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Records and Bytes are what the call moved, counted at the boundary.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	// Leaf marks a call that may overlap its siblings: a store operation
	// issued from a helper goroutine or resolved asynchronously, or a
	// concurrent client call. Synchronous spans nest on the one goroutine
	// that pulls the chain.
	Leaf bool `json:"leaf,omitempty"`
}

// tracer keeps every span in memory until the benchmark ends.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	open    []int // synchronous spans in progress, innermost last
	rep     int
	pending sync.WaitGroup // asynchronous leaves not yet resolved
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// beginRep opens the root span of the next traced rep.
func (t *tracer) beginRep() int {
	t.mu.Lock()
	t.rep++
	t.mu.Unlock()
	return t.begin(rootLayer, "rep")
}

// begin opens a synchronous span under the innermost open one.
func (t *tracer) begin(layer, name string) int {
	return t.start(layer, name, "", false)
}

// beginLeaf opens a span that may overlap its siblings.
func (t *tracer) beginLeaf(layer, name, key string) int {
	return t.start(layer, name, key, true)
}

func (t *tracer) start(layer, name, key string, leaf bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Rep: t.rep, Layer: layer, Name: name, Key: key,
		Start: t.now(), Leaf: leaf,
	})
	if !leaf {
		t.open = append(t.open, id)
	}
	return id
}

// end closes a span, recording what it moved.
func (t *tracer) end(id int, records, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Records, s.Bytes = t.now(), records, bytes
	if s.Leaf {
		return
	}
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// call records a synchronous span around one call into a layer.
func (t *tracer) call(layer, op string, fn func() error) error {
	id := t.begin(layer, op+".call")
	err := fn()
	t.end(id, 0, 0)
	return err
}

// snapshot waits for in-flight asynchronous leaves and returns every span.
func (t *tracer) snapshot() []span {
	t.pending.Wait()
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type interval struct{ lo, hi int64 }

// uncovered returns how much of [lo, hi) lies outside the sorted, disjoint
// intervals in blocked. *from is a cursor into blocked that only moves
// forward, valid because callers ask with non-decreasing lo.
func uncovered(lo, hi int64, blocked []interval, from *int) int64 {
	for *from < len(blocked) && blocked[*from].hi <= lo {
		*from++
	}
	var free int64
	for i := *from; i < len(blocked) && blocked[i].lo < hi; i++ {
		if blocked[i].lo > lo {
			free += blocked[i].lo - lo
		}
		if blocked[i].hi > lo {
			lo = blocked[i].hi
		}
	}
	if hi > lo {
		free += hi - lo
	}
	return free
}

// kind is the unit self time is attributed to: a layer's operation
// ("agd.read", "core.align"; the span name up to its first dot), or the whole
// layer for store calls and the rep's root.
func (s span) kind() string {
	if s.Layer == storeLayer || s.Layer == rootLayer {
		return s.Layer
	}
	op, _, _ := strings.Cut(s.Name, ".")
	return s.Layer + "." + op
}

// selfTimes attributes every instant of a rep's root span to exactly one
// kind and returns nanoseconds per kind plus the root's duration. A span's
// self time is its duration minus the part its children cover. Synchronous
// children keep their whole interval (their own children are accounted for
// inside it); leaf children, which may overlap each other and the
// synchronous ones, share what is left, first come first served, so
// concurrent store calls are counted once. Children are clipped to their
// parent: an asynchronous read may resolve after the call that issued it
// returned.
//
// The layers therefore sum to the root's duration when — and only when — the
// synchronous spans really nest. Two pulls running at once, or a span left
// open past its parent, push the sum above the wall.
func selfTimes(spans []span, rep int) (byKind map[string]int64, root int64) {
	kids := make(map[int][]span)
	var rootSpan *span
	for i := range spans {
		s := spans[i]
		if s.Rep != rep {
			continue
		}
		if s.Parent == 0 && s.Layer == rootLayer {
			rootSpan = &spans[i]
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	byKind = make(map[string]int64)
	if rootSpan == nil {
		return byKind, 0
	}
	var visit func(p span)
	visit = func(p span) {
		end := p.End
		if end < p.Start { // never closed: treat as empty
			end = p.Start
		}
		children := kids[p.ID]
		sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
		clip := func(c span) (int64, int64) {
			lo, hi := max(c.Start, p.Start), min(c.End, end)
			if c.End < c.Start { // still open at snapshot
				hi = end
			}
			return lo, max(lo, hi)
		}
		var blocked []interval
		var covered int64
		for _, c := range children {
			if c.Leaf {
				continue
			}
			lo, hi := clip(c)
			covered += hi - lo
			if n := len(blocked); n > 0 && lo <= blocked[n-1].hi {
				blocked[n-1].hi = max(blocked[n-1].hi, hi)
			} else {
				blocked = append(blocked, interval{lo, hi})
			}
			visit(c)
		}
		var cursor int64 = p.Start
		from := 0
		for _, c := range children {
			if !c.Leaf {
				continue
			}
			lo, hi := clip(c)
			lo = max(lo, cursor)
			if hi <= lo {
				continue
			}
			free := uncovered(lo, hi, blocked, &from)
			byKind[c.kind()] += free
			covered += free
			cursor = hi
		}
		byKind[p.kind()] += (end - p.Start) - covered
	}
	visit(*rootSpan)
	return byKind, max(rootSpan.End-rootSpan.Start, 0)
}

// coverage is the share of a rep's wall that the layer spans account for:
// every kind's self time over the root span, the root's own uncovered time
// left out.
func coverage(byKind map[string]int64, root int64) float64 {
	if root == 0 {
		return 0
	}
	var sum int64
	for kind, ns := range byKind {
		if kind != rootLayer {
			sum += ns
		}
	}
	return float64(sum) / float64(root)
}

// traceEvent is one Chrome trace-event ("X" = complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans of every traced workload as one Chrome
// trace-event JSON file (chrome://tracing, Perfetto). Each workload is a
// process; synchronous spans share thread 0, where nesting shows as a flame,
// and overlapping leaves go to thread 1.
func writeChromeTrace(path string, traces map[string][]span, order []string) error {
	var events []traceEvent
	for pid, name := range order {
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid + 1,
			Args: map[string]any{"name": name},
		})
		for _, s := range traces[name] {
			tid := 0
			if s.Leaf {
				tid = 1
			}
			events = append(events, traceEvent{
				Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: float64(max(s.End-s.Start, 0)) / 1e3,
				Pid: pid + 1, Tid: tid,
				Args: map[string]any{
					"id": s.ID, "parent": s.Parent, "rep": s.Rep,
					"records": s.Records, "bytes": s.Bytes, "key": s.Key,
				},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
