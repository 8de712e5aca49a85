package jobs

// Server smoke test — what CI runs under -race: the real HTTP stack
// (handler + client) booted over a MemStore, two tenants running jobs
// concurrently, fair-share accounting, classified rejections over the wire,
// and a clean drain a next incarnation recognizes.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"persona"
)

func TestServerSmokeMultiTenant(t *testing.T) {
	store := persona.NewMemStore()
	g := importTestDataset(t, store, "ds")
	m, sess := newTestManager(t, store, g, func(c *Config) {
		c.TenantWeights = map[string]int{"alice": 2, "bob": 1}
	})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// Two tenants push jobs concurrently through the HTTP client.
	const jobsPerTenant = 3
	var wg sync.WaitGroup
	errCh := make(chan error, 2*jobsPerTenant)
	for _, tenant := range []string{"alice", "bob"} {
		c := &Client{Base: srv.URL, Tenant: tenant}
		for i := 0; i < jobsPerTenant; i++ {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				st, err := c.Submit(ctx, Spec{Dataset: "ds", Format: "fastq"})
				if err != nil {
					errCh <- err
					return
				}
				fin, err := c.Wait(ctx, st.ID, 5*time.Millisecond)
				if err != nil {
					errCh <- err
					return
				}
				if fin.State != StateDone {
					errCh <- fmt.Errorf("job %s = %s (%s)", st.ID, fin.State, fin.Error)
					return
				}
				data, ct, err := c.Result(ctx, st.ID)
				if err != nil {
					errCh <- err
					return
				}
				if ct != "text/x-fastq" || len(data) == 0 || !bytes.HasPrefix(data, []byte("@")) {
					errCh <- fmt.Errorf("job %s result: %d bytes, content type %q", st.ID, len(data), ct)
				}
			}(c)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Accounting over the wire: both tenants fully served, weights visible.
	c := &Client{Base: srv.URL}
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for tenant, weight := range map[string]int64{"alice": 2, "bob": 1} {
		ts := stats.Tenants[tenant]
		if ts.Completed != jobsPerTenant || ts.Submitted != jobsPerTenant || ts.Weight != int(weight) {
			t.Fatalf("tenant %s stats = %+v, want %d completed at weight %d", tenant, ts, jobsPerTenant, weight)
		}
	}
	jobsList, err := c.Jobs(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobsList) != jobsPerTenant {
		t.Fatalf("alice job list has %d entries, want %d", len(jobsList), jobsPerTenant)
	}

	// Classified errors over the wire: bad spec is 400, unknown job 404.
	if _, err := c.Submit(context.Background(), Spec{Dataset: "ds", Format: "vcf"}); err == nil {
		t.Fatal("bad spec accepted")
	} else {
		var he *HTTPError
		if !errors.As(err, &he) || he.Status != 400 || he.Transient() {
			t.Fatalf("bad spec over the wire = %v, want permanent 400", err)
		}
		if !strings.Contains(he.Msg, "format") {
			t.Fatalf("error body %q does not name the problem", he.Msg)
		}
	}
	if _, err := c.Status(context.Background(), "j99999999"); err == nil {
		t.Fatal("unknown job resolved")
	} else {
		var he *HTTPError
		if !errors.As(err, &he) || he.Status != 404 {
			t.Fatalf("unknown job = %v, want 404", err)
		}
	}

	// Clean drain on signal: admission flips to 503 with Retry-After,
	// health goes unready, and the journal gets the clean marker.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), Spec{Dataset: "ds", Format: "fastq"}); err == nil {
		t.Fatal("submit accepted during drain")
	} else {
		var he *HTTPError
		if !errors.As(err, &he) || he.Status != 503 || he.RetryAfter <= 0 || !he.Transient() {
			t.Fatalf("drain rejection = %v, want 503 with Retry-After", err)
		}
	}
	if resp, err := http.Get(srv.URL + "/v1/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 503 {
			t.Fatalf("healthz during drain = %d, want 503", resp.StatusCode)
		}
	}
	checkNoLeak(t, sess)

	sess2 := persona.NewSession(store, persona.SessionOptions{})
	defer sess2.Close()
	m2, err := NewManager(Config{Store: store, Session: sess2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CleanShutdown || rep.Finished != 2*jobsPerTenant {
		t.Fatalf("next-incarnation recovery = %+v, want a clean shutdown with %d finished jobs", rep, 2*jobsPerTenant)
	}
}

// FuzzSubmitSpec posts arbitrary bytes as a job spec to a manager that never
// starts: nothing panics, a 202 comes back only for a spec whose built
// pipeline validates, and every other answer is a 4xx (429 among them) that
// leaves no journal record.
func FuzzSubmitSpec(f *testing.F) {
	store := persona.NewMemStore()
	g := importTestDataset(f, store, "ds")
	sess := persona.NewSession(store, persona.SessionOptions{})
	f.Cleanup(sess.Close)
	m, err := NewManager(Config{Store: store, Session: sess, Reference: g})
	if err != nil {
		f.Fatal(err)
	}
	h := m.Handler()
	for _, seed := range []string{
		`{"dataset":"ds","format":"fastq"}`,
		`{"dataset":"ds","align":true,"sort":"location","markdup":true,"format":"sam"}`,
		`{"dataset":"ds","align":true,"sort":"metadata","mapped_only":true,"format":"dataset","nodes":2}`,
		`{"dataset":"ds","align":true,"sort":"metadata","markdup":true,"format":"sam","nodes":2}`,
		`{"dataset":"ds","align":true,"max_dist":100000,"min_mapq":256,"deadline_ms":9223372036854775807,"format":"bam"}`,
		`{"dataset":"ds","align":true,"dedup":true,"format":"sam"}`,
		`{"dataset":"nope","format":"fastq"}`,
		`{"dataset":"ds","format":"sam"}`,
		`{"dataset":"ds","format":"fastq","nodes":-1}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before, err := store.List(journalPrefix)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
		after, err := store.List(journalPrefix)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusAccepted {
			if rec.Code/100 != 4 || len(after) != len(before) {
				t.Fatalf("answer %d left %d journal records, had %d: %s", rec.Code, len(after), len(before), rec.Body)
			}
			return
		}
		var spec Spec
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
			t.Fatalf("202 for a body that does not decode: %v", err)
		}
		var idx *persona.Index
		if spec.Align {
			idx = new(persona.Index)
		}
		p, err := spec.Pipeline(sess, idx, io.Discard, "out")
		if err == nil {
			_, err = p.Validate()
		}
		if err != nil {
			t.Fatalf("202 for %+v, whose pipeline does not validate: %v", spec, err)
		}
		if len(after) != len(before)+1 {
			t.Fatalf("202 left %d journal records, had %d", len(after), len(before))
		}
	})
}

// bodyTransport answers every request with status 200, a declared
// Content-Length and a body of its own length.
type bodyTransport struct {
	declared int64
	body     string
}

func (b bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Header: http.Header{}, Request: req,
		ContentLength: b.declared, Body: io.NopCloser(strings.NewReader(b.body)),
	}, nil
}

// TestClientResultChecksDeclaredLength: Result reads a body into a buffer of
// its declared length, and refuses one shorter or longer than declared; a
// body of no declared length is read whole.
func TestClientResultChecksDeclaredLength(t *testing.T) {
	for _, tc := range []struct {
		name     string
		declared int64
		body     string
		ok       bool
	}{
		{"exact", 5, "reads", true},
		{"empty", 0, "", true},
		{"undeclared", -1, "reads", true},
		{"shorter", 9, "reads", false},
		{"longer", 3, "reads", false},
	} {
		c := &Client{Base: "http://persona.invalid", HTTP: &http.Client{Transport: bodyTransport{tc.declared, tc.body}}}
		data, _, err := c.Result(context.Background(), "job")
		if tc.ok && (err != nil || string(data) != tc.body) {
			t.Errorf("%s: %q, %v; want %q", tc.name, data, err, tc.body)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: %q accepted for a declared length of %d", tc.name, data, tc.declared)
		}
	}
}
