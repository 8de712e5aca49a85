// Package cluster implements Persona's distributed runtime (§5.2): one
// coordinator, PhaseServer — the paper's manifest server, "a simple message
// queue" handing out AGD chunk names, grown leases and phases — and worker
// nodes that each run pipeline stages against shared storage. The paper
// launches one TensorFlow instance per compute server; here each worker is
// an in-process node (runNodes), and the coordinator speaks a tiny line
// protocol over real TCP so that the coordination path is genuinely
// networked.
//
// Every run goes through that coordinator and one worker task loop
// (pipeline.go): RunPipeline's fused three-phase sample sort when the plan
// sorts, and its map phase alone, one task per chunk, when it does not —
// Align's plan, which writes its results back into the dataset, among them.
package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrAborted reports a run the phase server gave up on: some task failed
// MaxAttempts leases in a row (re-execution is not converging), or the
// coordinator poisoned the run.
var ErrAborted = errors.New("cluster: phase server aborted the run")

// ServerOptions tunes the phase server's failure detector. Zero values take
// the noted defaults.
type ServerOptions struct {
	// LeaseTimeout bounds one worker's processing of one task; past it the
	// task is a straggler and may be re-dealt (default 30s).
	LeaseTimeout time.Duration
	// BeatTimeout declares a worker dead when its last heartbeat (or any
	// other request) is older than this; its tasks may be re-dealt
	// immediately (default 5s).
	BeatTimeout time.Duration
	// MaxAttempts bounds how many times one task may be dealt before the
	// run aborts (default 3).
	MaxAttempts int
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 30 * time.Second
	}
	if o.BeatTimeout <= 0 {
		o.BeatTimeout = 5 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	return o
}

// chunkLease is one task's dealing state.
type chunkLease struct {
	assigned bool
	done     bool
	worker   int
	deadline time.Time
	attempts int
}

// ManifestClient is one worker's connection to the phase server. Its methods
// are safe for concurrent use from the worker's lease, completion and
// heartbeat goroutines — each request/response pair is serialized on the
// connection.
//
// A worker told WAIT parks (PARK) on a second connection of its own, so a
// hold, which lasts until the server's state moves, never queues the
// worker's heartbeats behind it: the heartbeat goroutine keeps beating on
// the first connection while the task loop is parked.
type ManifestClient struct {
	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	worker int

	parkMu sync.Mutex
	park   net.Conn
	parkR  *bufio.Reader
}

// DialManifestWorker connects to a phase server as worker id.
func DialManifestWorker(addr string, worker int) (*ManifestClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	park, err := net.Dial("tcp", addr)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &ManifestClient{
		conn:   conn,
		r:      bufio.NewReader(conn),
		worker: worker,
		park:   park,
		parkR:  bufio.NewReader(park),
	}, nil
}

// roundTrip sends one request line and reads one response line.
func (c *ManifestClient) roundTrip(req string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := fmt.Fprintf(c.conn, "%s\n", req); err != nil {
		return "", err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(line), nil
}

// Beat sends a heartbeat keeping this worker's leases alive.
func (c *ManifestClient) Beat() error {
	line, err := c.roundTrip(fmt.Sprintf("BEAT %d", c.worker))
	if err != nil {
		return err
	}
	if line != "OK" {
		return fmt.Errorf("cluster: bad beat response %q", line)
	}
	return nil
}

// wait follows a WAIT reply: unless stop is already closed, it parks on the
// server until the epoch the reply carries moves, and reports true (ask
// again). It reports false, with a nil error, when stop was closed before or
// during the hold; closing stop ends the hold.
func (c *ManifestClient) wait(reply string, stop <-chan struct{}) (bool, error) {
	select {
	case <-stop:
		return false, nil
	default:
	}
	epoch, err := strconv.Atoi(strings.TrimPrefix(reply, "WAIT "))
	if err != nil {
		return false, fmt.Errorf("cluster: bad wait response %q", reply)
	}
	c.parkMu.Lock()
	defer c.parkMu.Unlock()
	if _, err := fmt.Fprintf(c.park, "PARK %d %d\n", c.worker, epoch); err != nil {
		return false, err
	}
	if stop != nil {
		held := make(chan struct{})
		var watcher sync.WaitGroup
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			select {
			case <-stop:
				// Any line ends a hold, and a blank one gets no reply of its
				// own. A failed write fails the read below as well.
				_, _ = c.park.Write([]byte("\n"))
			case <-held:
			}
		}()
		defer watcher.Wait()
		defer close(held)
	}
	line, err := c.parkR.ReadString('\n')
	if err != nil {
		return false, err
	}
	if line = strings.TrimSpace(line); line != "OK" {
		return false, fmt.Errorf("cluster: bad park response %q", line)
	}
	select {
	case <-stop:
		return false, nil
	default:
		return true, nil
	}
}

// Close closes the client's connections.
func (c *ManifestClient) Close() error {
	c.park.Close()
	return c.conn.Close()
}
