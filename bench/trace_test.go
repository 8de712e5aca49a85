package main

import "testing"

// synthetic builds spans with explicit times; IDs are positions + 1.
func synthetic(spans ...span) []span {
	for i := range spans {
		spans[i].ID = i + 1
		if spans[i].Rep == 0 {
			spans[i].Rep = 1
		}
	}
	return spans
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	// root 0..100
	//   bam.export.drain 5..95
	//     core.align.next 10..60
	//       agd.read.next 20..40
	//     core.align.next 60..90
	spans := synthetic(
		span{Layer: rootLayer, Name: "rep", Start: 0, End: 100},
		span{Parent: 1, Layer: "bam", Name: "export.drain", Start: 5, End: 95},
		span{Parent: 2, Layer: "core", Name: "align.next", Start: 10, End: 60},
		span{Parent: 3, Layer: "agd", Name: "read.next", Start: 20, End: 40},
		span{Parent: 2, Layer: "core", Name: "align.next", Start: 60, End: 90},
	)
	self, root := selfTimes(spans, 1)
	want := map[string]int64{"bench": 10, "bam.export": 10, "core.align": 60, "agd.read": 20}
	if root != 100 {
		t.Errorf("root = %d, want 100", root)
	}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d (all: %v)", k, self[k], v, self)
		}
	}
	if len(self) != len(want) {
		t.Errorf("kinds = %v, want %v", self, want)
	}
	if got := coverage(self, root); got != 0.9 {
		t.Errorf("coverage = %v, want 0.9 (the root's own 10 left out)", got)
	}
}

func TestSelfTimeCountsOverlappingLeavesOnce(t *testing.T) {
	// agd.read.next 0..100 issues three store reads: two overlap each other
	// (10..50, 30..70), one resolves after the call returned (90..140).
	// agdsort.sort.build 100..200 has a synchronous upstream pull 120..160
	// and a background spill write 110..170 that overlaps it.
	spans := synthetic(
		span{Layer: rootLayer, Name: "rep", Start: 0, End: 200},
		span{Parent: 1, Layer: "agd", Name: "read.next", Start: 0, End: 100},
		span{Parent: 2, Layer: storeLayer, Name: "get", Start: 10, End: 50, Leaf: true},
		span{Parent: 2, Layer: storeLayer, Name: "get", Start: 30, End: 70, Leaf: true},
		span{Parent: 2, Layer: storeLayer, Name: "get", Start: 90, End: 140, Leaf: true},
		span{Parent: 1, Layer: "agdsort", Name: "sort.build", Start: 100, End: 200},
		span{Parent: 6, Layer: "core", Name: "align.next", Start: 120, End: 160},
		span{Parent: 6, Layer: storeLayer, Name: "put", Start: 110, End: 170, Leaf: true},
	)
	self, root := selfTimes(spans, 1)
	// Store: 10..70 and 90..100 under the read (70), plus 110..120 and
	// 160..170 under the sort (20): the synchronous pull keeps its interval.
	want := map[string]int64{"storage": 90, "agd.read": 30, "core.align": 40, "agdsort.sort": 40, "bench": 0}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d (all: %v)", k, self[k], v, self)
		}
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != root {
		t.Errorf("kinds sum to %d, root is %d: every instant must be attributed once", sum, root)
	}
	if got := coverage(self, root); got != 1 {
		t.Errorf("coverage = %v, want 1", got)
	}
}

func TestCoverageExposesPullsThatDoNotNest(t *testing.T) {
	// Two synchronous spans under one parent that run at the same time — a
	// stage pulling its upstream from a helper goroutine — are each counted
	// in full, so the layers add up to more than the wall.
	spans := synthetic(
		span{Layer: rootLayer, Name: "rep", Start: 0, End: 100},
		span{Parent: 1, Layer: "core", Name: "align.next", Start: 0, End: 80},
		span{Parent: 1, Layer: "agd", Name: "read.next", Start: 20, End: 100},
	)
	self, root := selfTimes(spans, 1)
	if got := coverage(self, root); got <= 1.01 {
		t.Errorf("coverage = %v, want well above 1 for overlapping synchronous spans", got)
	}
}

func TestSelfTimesKeepsRepsApart(t *testing.T) {
	spans := synthetic(
		span{Layer: rootLayer, Name: "rep", Start: 0, End: 10},
		span{Parent: 1, Layer: "sam", Name: "export.drain", Start: 0, End: 10},
		span{Rep: 2, Layer: rootLayer, Name: "rep", Start: 20, End: 50},
		span{Rep: 2, Parent: 3, Layer: "sam", Name: "export.drain", Start: 25, End: 45},
	)
	self, root := selfTimes(spans, 2)
	if root != 30 || self["sam.export"] != 20 || self["bench"] != 10 {
		t.Errorf("rep 2: root %d self %v, want root 30, sam.export 20, bench 10", root, self)
	}
}

func TestTracerNestsSynchronousSpansAndParentsLeaves(t *testing.T) {
	tr := newTracer()
	root := tr.beginRep()
	outer := tr.begin("core", "align.next")
	inner := tr.begin("agd", "read.next")
	leaf := tr.beginLeaf(storeLayer, "get", "ds/chunk-000000.bases")
	tr.end(inner, 7, 0)
	tr.end(leaf, 0, 123) // resolves after the call that issued it returned
	sibling := tr.beginLeaf(storeLayer, "put", "x")
	tr.end(sibling, 0, 1)
	tr.end(outer, 7, 0)
	tr.end(root, 0, 0)
	spans := tr.snapshot()
	parent := func(id int) int { return spans[id-1].Parent }
	if parent(root) != 0 || parent(outer) != root || parent(inner) != outer {
		t.Errorf("synchronous spans do not nest: %+v", spans)
	}
	if parent(leaf) != inner || parent(sibling) != outer {
		t.Errorf("leaves should hang off the innermost open span: leaf→%d sibling→%d", parent(leaf), parent(sibling))
	}
	if s := spans[leaf-1]; s.Bytes != 123 || s.Key != "ds/chunk-000000.bases" || !s.Leaf {
		t.Errorf("leaf span = %+v", s)
	}
	if len(tr.open) != 0 {
		t.Errorf("spans left open: %v", tr.open)
	}
}
