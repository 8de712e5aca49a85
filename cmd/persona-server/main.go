// Command persona-server is the persona daemon: one warm Session serving
// declarative pipeline jobs over HTTP to many tenants. Jobs are journaled
// durably in the store before they are acknowledged, so a crashed server
// resumes interrupted work on restart; admission is bounded (load past the
// budget sheds with 429 + Retry-After) and SIGTERM drains gracefully —
// in-flight jobs get a grace window to finish, then checkpoint back to
// PENDING for the next incarnation. Admission refuses exactly what Run
// refuses: a spec whose pipeline Run would refuse is a 400 with Run's message.
//
// Usage:
//
//	persona-server -store DIR [-addr HOST:PORT] [-workers N]
//	               [-max-queued N] [-max-queued-mb MB] [-max-attempts N]
//	               [-deadline D] [-drain-grace D] [-weights a=2,b=1]
//	               [-resilient] [-cache-mb MB]
//
// The API (see internal/jobs/api.go):
//
//	POST /v1/jobs             submit a job spec        (X-Persona-Tenant header)
//	GET  /v1/jobs[?tenant=T]  list jobs
//	GET  /v1/jobs/{id}        status with live per-stage progress
//	GET  /v1/jobs/{id}/result fetch a DONE job's output
//	GET  /v1/stats            service counters (incl. chunk-cache hit rates)
//	POST /v1/cache/flush      drop the session caches after out-of-band writes
//	GET  /v1/healthz          liveness
//
// `persona submit/status/fetch` are the matching CLI client commands.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"persona"
	"persona/internal/jobs"
)

// parseWeights reads "alice=2,bob=1" into a tenant-weight map. Each tenant
// is named once.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("weight %q: want tenant=N", part)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("weight %q: tenant %q weighed twice", part, name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("weight %q: want a positive integer", part)
		}
		out[name] = w
	}
	return out, nil
}

func main() {
	fs := flag.NewFlagSet("persona-server", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory (required)")
	addr := fs.String("addr", "127.0.0.1:7333", "listen address")
	workers := fs.Int("workers", 2, "concurrent jobs")
	maxQueued := fs.Int("max-queued", 64, "admission budget: queued jobs (past it, 429)")
	maxQueuedMB := fs.Int64("max-queued-mb", 256, "admission budget: estimated queued MiB")
	maxAttempts := fs.Int("max-attempts", 3, "attempt budget per job")
	deadline := fs.Duration("deadline", 2*time.Minute, "default per-attempt deadline")
	drainGrace := fs.Duration("drain-grace", 30*time.Second, "SIGTERM grace for in-flight jobs")
	weightsFlag := fs.String("weights", "", "tenant dispatch weights, e.g. a=2,b=1")
	resilient := fs.Bool("resilient", true, "wrap the store with the retry/hedge layer")
	cacheMB := fs.Int64("cache-mb", 64, "decoded-chunk cache budget in MiB (0 disables)")
	fs.Parse(os.Args[1:])

	if err := run(*storeDir, *addr, *workers, *maxQueued, *maxQueuedMB, *maxAttempts,
		*deadline, *drainGrace, *weightsFlag, *resilient, *cacheMB); err != nil {
		fmt.Fprintf(os.Stderr, "persona-server: %v\n", err)
		os.Exit(1)
	}
}

func run(storeDir, addr string, workers, maxQueued int, maxQueuedMB int64, maxAttempts int,
	deadline, drainGrace time.Duration, weightsFlag string, resilient bool, cacheMB int64) error {
	if storeDir == "" {
		return fmt.Errorf("missing -store")
	}
	weights, err := parseWeights(weightsFlag)
	if err != nil {
		return err
	}
	store, err := persona.NewLocalStore(storeDir)
	if err != nil {
		return err
	}
	if resilient {
		store = persona.NewRetryStore(store, persona.RetryPolicy{})
	}
	ref, err := persona.LoadReference(store)
	if err != nil {
		log.Printf("no reference in store (align jobs will be rejected): %v", err)
		ref = nil
	} else {
		log.Printf("reference loaded: %s", ref)
	}

	cacheBytes := cacheMB << 20
	if cacheMB <= 0 {
		cacheBytes = -1 // disabled
	}
	sess := persona.NewSession(store, persona.SessionOptions{CacheBytes: cacheBytes})
	defer sess.Close()
	mgr, err := jobs.NewManager(jobs.Config{
		Store:           store,
		Session:         sess,
		Reference:       ref,
		Workers:         workers,
		MaxQueued:       maxQueued,
		MaxQueuedBytes:  maxQueuedMB << 20,
		MaxAttempts:     maxAttempts,
		DefaultDeadline: deadline,
		TenantWeights:   weights,
	})
	if err != nil {
		return err
	}
	rep, err := mgr.Recover()
	if err != nil {
		return fmt.Errorf("journal recovery: %w", err)
	}
	log.Printf("journal replayed: clean=%v finished=%d interrupted=%d requeued=%d corrupt=%d",
		rep.CleanShutdown, rep.Finished, rep.Interrupted, rep.Requeued, rep.Corrupt)
	mgr.Start()

	srv := &http.Server{Addr: addr, Handler: mgr.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on http://%s (workers=%d, max-queued=%d)", addr, workers, maxQueued)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop admitting (submissions now 503), give in-flight
	// jobs the grace window, checkpoint whatever remains and answer every
	// held wait, then stop serving and mark the shutdown clean.
	log.Printf("signal received; draining (grace %s)", drainGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	if err := mgr.Drain(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}
