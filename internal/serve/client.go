package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/wire"
)

// Client talks to a running mcdserved daemon. The zero HTTP client is
// usable; BaseURL is required (e.g. "http://127.0.0.1:8337").
type Client struct {
	BaseURL string
	// HTTP overrides the transport; nil uses http.DefaultClient. Streams
	// are long-lived, so a client with a response timeout will cut
	// Follow short — leave Timeout zero and rely on context/transport
	// timeouts instead.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

// APIError is a structured server-side rejection, decoded from the
// {"error": {...}} body every endpoint returns on failure.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	Field      string
	// RetryAfter is the server's backpressure estimate in seconds (429
	// rejections), 0 otherwise.
	RetryAfter int
}

func (e *APIError) Error() string {
	s := fmt.Sprintf("server: %s (%s", e.Message, e.Code)
	if e.Field != "" {
		s += ", field " + e.Field
	}
	return s + ")"
}

// decodeError turns a non-2xx response into an *APIError (or a plain
// error when the body is not the structured shape).
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var eb wire.ErrorBody
	if err := json.Unmarshal(body, &eb); err == nil && eb.Err.Code != "" {
		ae := &APIError{
			StatusCode: resp.StatusCode,
			Code:       eb.Err.Code,
			Message:    eb.Err.Message,
			Field:      eb.Err.Field,
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			ae.RetryAfter, _ = strconv.Atoi(ra)
		}
		return ae
	}
	return fmt.Errorf("server: HTTP %d: %.200s", resp.StatusCode, body)
}

// decodeFrame reads a 200 response's body and decodes it with decode as
// one versioned wire frame.
func decodeFrame(resp *http.Response, what string, decode func([]byte) *wire.Error) error {
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16*1024*1024))
	if err != nil {
		return fmt.Errorf("server: %s response: %w", what, err)
	}
	if werr := decode(body); werr != nil {
		return fmt.Errorf("server: %s response: %w", what, werr)
	}
	return nil
}

// decodeStatus decodes a 200 response's Status frame with the direct
// decoder.
func decodeStatus(resp *http.Response, what string) (*Status, error) {
	var st Status
	err := decodeFrame(resp, what, func(b []byte) *wire.Error { return wire.DecodeStatus(b, &st) })
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// Submit posts a raw manifest (the same JSON file mcdsweep takes) and
// returns the sweep's status snapshot. Submitting work the server
// already knows joins the existing sweep.
func (c *Client) Submit(manifest []byte) (*Status, error) {
	resp, err := c.http().Post(c.url("/v1/sweeps"), "application/json", bytes.NewReader(manifest))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return decodeStatus(resp, "submit")
}

// Status fetches a sweep's progress snapshot.
func (c *Client) Status(id string) (*Status, error) {
	resp, err := c.http().Get(c.url("/v1/sweeps/" + id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return decodeStatus(resp, "status")
}

// Follow streams a sweep's job completions from event seq `from` until
// the sweep finishes, invoking onEvent (when non-nil) per event, and
// returns the terminal status. It is the client half of the NDJSON
// stream endpoint.
func (c *Client) Follow(id string, from int, onEvent func(Event)) (*Status, error) {
	resp, err := c.http().Get(c.url(fmt.Sprintf("/v1/sweeps/%s/stream?from=%d", id, from)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev Event
		end, werr := wire.DecodeStreamLine(line, &ev)
		if werr != nil {
			return nil, fmt.Errorf("server: stream line: %w", werr)
		}
		if end != nil {
			return &end.Status, nil
		}
		if onEvent != nil {
			onEvent(ev)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("server: stream: %w", err)
	}
	return nil, errors.New("server: stream ended without a terminal status (connection dropped?)")
}

// Results fetches a completed sweep's merged results — byte-identical
// to `mcdsweep merge` over the same manifest and cache.
func (c *Client) Results(id string) ([]byte, error) {
	resp, err := c.http().Get(c.url("/v1/sweeps/" + id + "/results"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// RunManifest submits a manifest, follows the stream to completion and
// returns the terminal status — the client-mode equivalent of a local
// `mcdsweep run`.
func (c *Client) RunManifest(manifest []byte, onEvent func(Event)) (*Status, error) {
	st, err := c.Submit(manifest)
	if err != nil {
		return nil, err
	}
	return c.Follow(st.ID, 0, onEvent)
}

// Healthz probes the daemon's liveness endpoint.
func (c *Client) Healthz() error {
	resp, err := c.http().Get(c.url("/healthz"))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return nil
}

// postFrame sends one versioned request frame and strict-decodes the
// response frame into out.
func (c *Client) postFrame(ctx context.Context, path, what string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("server: %s request: %w", what, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(path), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return decodeFrame(resp, what, func(b []byte) *wire.Error { return wire.DecodeStrict(b, out) })
}

// RegisterWorker announces a worker to a fleet coordinator and returns
// its assigned identity plus the fleet's timing contract.
func (c *Client) RegisterWorker(ctx context.Context, name string) (*wire.RegisterResponse, error) {
	var rr wire.RegisterResponse
	err := c.postFrame(ctx, "/v1/workers", "register",
		wire.RegisterRequest{Versioned: wire.Stamp(), Name: name}, &rr)
	if err != nil {
		return nil, err
	}
	return &rr, nil
}

// RequestLease asks the coordinator for the next anchor group, holding
// the request up to wait (long poll). A nil lease with a nil error
// means the queue stayed empty.
func (c *Client) RequestLease(ctx context.Context, workerID string, wait time.Duration) (*wire.Lease, error) {
	var lr wire.LeaseResponse
	err := c.postFrame(ctx, "/v1/leases", "lease",
		wire.LeaseRequest{Versioned: wire.Stamp(), WorkerID: workerID, WaitMS: wait.Milliseconds()}, &lr)
	if err != nil {
		return nil, err
	}
	return lr.Lease, nil
}

// Heartbeat keeps a lease alive and returns its renewed remaining
// lifetime. A lease the coordinator already expired reports an APIError
// with code wire.CodeLeaseExpired — the signal to abandon the work.
func (c *Client) Heartbeat(ctx context.Context, leaseID, workerID string) (time.Duration, error) {
	var hr wire.HeartbeatResponse
	err := c.postFrame(ctx, "/v1/leases/"+leaseID+"/heartbeat", "heartbeat",
		wire.HeartbeatRequest{Versioned: wire.Stamp(), WorkerID: workerID}, &hr)
	if err != nil {
		return 0, err
	}
	return time.Duration(hr.DeadlineMS) * time.Millisecond, nil
}

// CompleteLease reports a lease's jobs done. Every successful job's
// result entry must already be uploaded (PutCacheEntry), or the
// coordinator rejects the completion with incomplete_upload. spans,
// when non-nil, attaches the worker's execution spans for the lease so
// a tracing coordinator can serve a fleet-wide correlated trace.
func (c *Client) CompleteLease(ctx context.Context, leaseID, workerID string, jobs []wire.JobResult, spans []obs.Span) error {
	var cr wire.CompleteResponse
	return c.postFrame(ctx, "/v1/leases/"+leaseID+"/complete", "complete",
		wire.CompleteRequest{Versioned: wire.Stamp(), WorkerID: workerID, Jobs: jobs, Spans: spans}, &cr)
}

// getEntry fetches one content-addressed entry file; ok=false with a
// nil error is a clean miss (the coordinator does not have the key).
func (c *Client) getEntry(ctx context.Context, path string) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := decodeError(resp)
		// A 404 naming the key is a clean miss; any other 404 (e.g.
		// fleet_disabled on a non-coordinator) is a real error.
		var ae *APIError
		if errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound && ae.Code == "unknown_key" {
			return nil, false, nil
		}
		return nil, false, err
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	return b, true, nil
}

// putEntry uploads one content-addressed entry file.
func (c *Client) putEntry(ctx context.Context, path string, raw []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.url(path), bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return decodeError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// GetCacheEntry fetches one result-cache entry's canonical file bytes
// by key; ok=false means the coordinator does not have it.
func (c *Client) GetCacheEntry(ctx context.Context, key string) ([]byte, bool, error) {
	return c.getEntry(ctx, "/v1/cache/"+key)
}

// PutCacheEntry uploads one result-cache entry's canonical file bytes.
func (c *Client) PutCacheEntry(ctx context.Context, key string, raw []byte) error {
	return c.putEntry(ctx, "/v1/cache/"+key, raw)
}

// PutSegment uploads one columnar result segment (raw segment-file
// bytes); the coordinator decodes it, writes any missing canonical JSON
// entries, and appends the rows to its own segment layer.
func (c *Client) PutSegment(ctx context.Context, raw []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.url("/v1/segments"), bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return decodeError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// GetArtifact fetches one artifact-store entry's canonical file bytes
// by key; ok=false means the coordinator does not have it.
func (c *Client) GetArtifact(ctx context.Context, key string) ([]byte, bool, error) {
	return c.getEntry(ctx, "/v1/artifacts/"+key)
}

// PutArtifact uploads one artifact-store entry's canonical file bytes.
func (c *Client) PutArtifact(ctx context.Context, key string, raw []byte) error {
	return c.putEntry(ctx, "/v1/artifacts/"+key, raw)
}
