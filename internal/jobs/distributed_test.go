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
// namespace, and publishes the cluster report in manager stats.
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
	checkNoLeak(t, sess)
}

// TestDistributedSpecRejections: negative node counts and sortless
// distributed specs are permanent admission errors — the shuffle is the
// sort, so a distributed job without one cannot run.
func TestDistributedSpecRejections(t *testing.T) {
	store := persona.NewMemStore()
	g := importTestDataset(t, store, "ds")
	m, _ := newTestManager(t, store, g, nil)

	cases := []struct {
		name string
		spec Spec
	}{
		{"negative nodes", Spec{Dataset: "ds", Align: true, Sort: "location", Format: "sam", Nodes: -1}},
		{"distributed without sort", Spec{Dataset: "ds", Align: true, Format: "sam", Nodes: 2}},
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
