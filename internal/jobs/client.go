package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client speaks the persona-server job API (api.go). The zero value plus a
// Base URL works; Tenant defaults to "default" server-side.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:7333".
	Base string
	// Tenant is sent as the X-Persona-Tenant header when non-empty.
	Tenant string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
}

// HTTPError is a non-2xx API response, carrying the server's Retry-After
// hint for transient rejections. IsTransient/HTTPStatus classification on
// the client side falls out of the status code.
type HTTPError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("jobs: server status %d: %s", e.Status, e.Msg)
}

// Transient reports whether the response invites a retry (429 or 5xx).
func (e *HTTPError) Transient() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues a request and decodes a 2xx JSON body into out (when non-nil);
// non-2xx responses come back as *HTTPError.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return fmt.Errorf("client %q: %w", path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("client %q: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("client %q: %w", path, decodeError(resp))
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client %q: decode: %w", path, err)
	}
	return nil
}

func decodeError(resp *http.Response) *HTTPError {
	he := &HTTPError{Status: resp.StatusCode}
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		he.RetryAfter = time.Duration(s) * time.Second
	}
	var body struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		he.Msg = body.Error
	} else {
		he.Msg = string(bytes.TrimSpace(data))
	}
	return he
}

// Submit posts a job spec, returning the accepted job's status.
func (c *Client) Submit(ctx context.Context, spec Spec) (*JobStatus, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("client submit: %w", err)
	}
	st := &JobStatus{}
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(data), st); err != nil {
		return nil, err
	}
	return st, nil
}

// Status fetches a job's record and live progress.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	st := &JobStatus{}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Jobs lists the server's jobs, optionally filtered by tenant.
func (c *Client) Jobs(ctx context.Context, tenant string) ([]*JobStatus, error) {
	path := "/v1/jobs"
	if tenant != "" {
		path += "?tenant=" + tenant
	}
	var out []*JobStatus
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Result fetches a DONE job's exported bytes and content type. For
// dataset-format jobs the body is the ResultMeta JSON.
func (c *Client) Result(ctx context.Context, id string) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, "", fmt.Errorf("client result %q: %w", id, err)
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, "", fmt.Errorf("client result %q: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, "", fmt.Errorf("client result %q: %w", id, decodeError(resp))
	}
	data, err := readBody(resp)
	if err != nil {
		return nil, "", fmt.Errorf("client result %q: %w", id, err)
	}
	return data, resp.Header.Get("Content-Type"), nil
}

// readBody reads a response body into one buffer of its declared length (by
// io.ReadAll when none is declared), and fails on a body shorter or longer.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength < 0 {
		return io.ReadAll(resp.Body)
	}
	data := make([]byte, resp.ContentLength)
	if n, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, fmt.Errorf("body of %d bytes, %d declared: %w", n, len(data), err)
	}
	if n, _ := io.Copy(io.Discard, resp.Body); n > 0 {
		return nil, fmt.Errorf("body of %d bytes past the %d declared", n, len(data))
	}
	return data, nil
}

// Stats fetches the service counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	s := &Stats{}
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, s); err != nil {
		return nil, err
	}
	return s, nil
}

// Wait polls a job until it reaches a terminal state (or ctx expires).
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, fmt.Errorf("client wait %q: %w", id, ctx.Err())
		case <-t.C:
		}
	}
}
