package jobs

// Distributed job specs: a Nodes>=1 spec runs the whole fused pipeline
// through internal/cluster, stays byte-identical to the direct run, keeps
// every temp blob inside jobs/<id>/, and surfaces the cluster report on
// /v1/stats. Impossible distributed specs are rejected at admission.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"persona"
)

// TestDistributedJob: a 2-node WGS job completes DONE with a result
// byte-identical to the single-node direct pipeline, sweeps its shuffle
// namespace, and publishes the cluster report in manager stats. A 2-node
// job without a sort, the map phase alone, returns the single-node job's
// result.
func TestDistributedJob(t *testing.T) {
	store := persona.NewMemStore()
	g := importTestDataset(t, store, "ds")
	want := directWGS(t, store, g)
	m, sess := newTestManager(t, store, g, nil)

	st, err := m.Submit("acme", Spec{
		Dataset: "ds", Align: true, Sort: "location", MarkDup: true,
		Format: "sam", Nodes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, st.ID, 30*time.Second)
	if fin.State != StateDone {
		t.Fatalf("final = %s (%s), want DONE", fin.State, fin.Error)
	}
	res, data, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("distributed job SAM differs from direct run (%d vs %d bytes)", len(data), len(want))
	}
	// The run namespace (jobs/<id>/cluster/...) was swept: only the result
	// blob remains, and nothing escaped into the global cluster/ prefix.
	names, err := store.List("jobs/" + st.ID + "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != res.ResultBlob {
		t.Fatalf("job namespace = %v, want only the result blob", names)
	}
	if stray, err := store.List("cluster/"); err != nil || len(stray) != 0 {
		t.Fatalf("cluster/ namespace = %v err=%v, want empty", stray, err)
	}
	cl := m.Stats().Cluster
	if cl == nil {
		t.Fatal("Stats().Cluster = nil after a distributed job")
	}
	if cl.Partitions != 2 || len(cl.Nodes) != 2 {
		t.Fatalf("cluster report: %d partitions over %d nodes, want 2 over 2", cl.Partitions, len(cl.Nodes))
	}
	if cl.Degraded {
		t.Error("healthy distributed job reported degraded")
	}
	if cl.ShuffleBytes == 0 {
		t.Error("ShuffleBytes = 0, want bytes crossing the shuffle")
	}

	var results [][]byte
	for _, nodes := range []int{0, 2} {
		st, err := m.Submit("acme", Spec{Dataset: "ds", Align: true, Format: "sam", Nodes: nodes})
		if err != nil {
			t.Fatalf("align+sam on %d nodes: %v", nodes, err)
		}
		if fin := waitTerminal(t, m, st.ID, 30*time.Second); fin.State != StateDone {
			t.Fatalf("align+sam on %d nodes: final = %s (%s), want DONE", nodes, fin.State, fin.Error)
		}
		_, data, err := m.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, data)
	}
	if len(results[0]) == 0 || !bytes.Equal(results[1], results[0]) {
		t.Errorf("2-node align+sam job wrote %d bytes of SAM, the single-node job %d, and they differ", len(results[1]), len(results[0]))
	}
	if cl := m.Stats().Cluster; cl == nil || cl.ShuffleBytes != 0 || len(cl.Nodes) != 2 {
		t.Errorf("cluster report after the map-only job: %+v, want 2 nodes and no shuffle", cl)
	}
	checkNoLeak(t, sess)
}

// TestJobProgressDistributed: a 2-node job reports per-stage progress as a
// single-node one does: one entry per stage, every one done at the end, and
// the sink's entry holding the records the job exported.
func TestJobProgressDistributed(t *testing.T) {
	store := persona.NewMemStore()
	g := importTestDataset(t, store, "ds")
	m, _ := newTestManager(t, store, g, nil)

	st, err := m.Submit("acme", Spec{
		Dataset: "ds", Align: true, Sort: "location", MarkDup: true,
		Format: "sam", Nodes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, st.ID, 30*time.Second)
	if fin.State != StateDone {
		t.Fatalf("final = %s (%s), want DONE", fin.State, fin.Error)
	}
	want := []string{"read", "align", "sort-location", "markdup", "export-sam"}
	if len(fin.Progress) != len(want) {
		t.Fatalf("progress = %+v, want one entry for each of %v", fin.Progress, want)
	}
	for i, sp := range fin.Progress {
		if sp.Stage != want[i] || !sp.Done {
			t.Errorf("progress entry %d = %+v, want stage %s done", i, sp, want[i])
		}
	}
	if sink := fin.Progress[len(want)-1]; sink.Records == 0 || sink.Records != fin.Result.Records {
		t.Errorf("sink progress has %d records, the result %d", sink.Records, fin.Result.Records)
	}
}

// TestDistributedSpecRejections: a negative node count is a permanent
// admission error. (A distributed spec without a sort runs: see
// TestDistributedJob.)
func TestDistributedSpecRejections(t *testing.T) {
	store := persona.NewMemStore()
	g := importTestDataset(t, store, "ds")
	m, _ := newTestManager(t, store, g, nil)

	cases := []struct {
		name string
		spec Spec
	}{
		{"negative nodes", Spec{Dataset: "ds", Align: true, Sort: "location", Format: "sam", Nodes: -1}},
	}
	for _, tc := range cases {
		_, err := m.Submit("acme", tc.spec)
		if !errors.Is(err, ErrBadSpec) {
			t.Fatalf("%s: err = %v, want ErrBadSpec", tc.name, err)
		}
		if IsTransient(err) {
			t.Fatalf("%s: classified transient", tc.name)
		}
		if status, _ := HTTPStatus(err); status != 400 {
			t.Fatalf("%s: status = %d, want 400", tc.name, status)
		}
	}
}
