package jobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// HTTP surface of the job service, mounted by cmd/persona-server:
//
//	POST /v1/jobs             submit a Spec (tenant via X-Persona-Tenant) → 202 JobStatus
//	GET  /v1/jobs             list jobs (optional ?tenant=)
//	GET  /v1/jobs/{id}        job status with live per-stage progress
//	GET  /v1/jobs/{id}/result a DONE job's exported bytes (or ResultMeta JSON)
//	GET  /v1/stats            service counters (incl. session cache stats)
//	POST /v1/cache/flush      drop the session chunk/manifest caches (admin)
//	GET  /v1/healthz          liveness (503 while draining)
//
// Error responses are JSON {"error": ...} with the status derived from the
// error's classification (HTTPStatus): load shedding is 429 with
// Retry-After, drain is 503 with Retry-After, bad specs are 400, unknown
// jobs 404, premature result fetches 409.

// TenantHeader carries the caller's tenant identity; absent means "default".
const TenantHeader = "X-Persona-Tenant"

// Handler mounts the service's HTTP API.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", m.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", m.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", m.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", m.handleResult)
	mux.HandleFunc("GET /v1/stats", m.handleStats)
	mux.HandleFunc("POST /v1/cache/flush", m.handleCacheFlush)
	mux.HandleFunc("GET /v1/healthz", m.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr renders an error with its classified status and Retry-After.
func writeErr(w http.ResponseWriter, err error) {
	status, retryAfter := HTTPStatus(err)
	if retryAfter > 0 {
		secs := int(retryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxSpecBytes caps a submitted spec's body: a spec is a few hundred bytes.
const maxSpecBytes = 1 << 20

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec); err != nil {
		m.countRejected(r.Header.Get(TenantHeader))
		writeErr(w, fmt.Errorf("submit: decode body: %v: %w", err, ErrBadSpec))
		return
	}
	st, err := m.Submit(r.Header.Get(TenantHeader), spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.Jobs(r.URL.Query().Get("tenant")))
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := m.Status(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// resultContentType maps a job's sink format onto the response MIME type.
func resultContentType(format string) string {
	switch format {
	case "sam":
		return "text/x-sam"
	case "bam":
		return "application/octet-stream"
	case "fastq":
		return "text/x-fastq"
	}
	return "application/json"
}

func (m *Manager) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, data, err := m.Result(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	if res.ResultBlob == "" {
		// dataset-format job: the result is a dataset in the store, not a
		// byte stream; serve its metadata.
		writeJSON(w, http.StatusOK, res)
		return
	}
	st, _ := m.Status(id)
	ct := "application/octet-stream"
	if st != nil {
		ct = resultContentType(st.Spec.Format)
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (m *Manager) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.Stats())
}

func (m *Manager) handleCacheFlush(w http.ResponseWriter, r *http.Request) {
	entries, bytes := m.FlushCache()
	writeJSON(w, http.StatusOK, map[string]int64{
		"flushed_entries": int64(entries),
		"flushed_bytes":   bytes,
	})
}

func (m *Manager) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if m.Draining() {
		writeErr(w, fmt.Errorf("healthz: %w", ErrDraining))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
