package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/serve/wire"
	"repro/internal/store"
	"repro/internal/sweep"
)

// apiError is the structured error every endpoint returns on failure —
// wire.Error (a machine-readable code, a human message identical to
// what the CLI prints for the same mistake, and the offending field)
// plus the HTTP transport details.
type apiError struct {
	Code    string
	Message string
	Field   string

	status     int
	retryAfter int
}

// fromValidation maps the shared validator's structured error onto the
// wire shape, choosing the HTTP status by code: parse failures are 400,
// semantic failures 422. Code, message and field pass through verbatim,
// so the daemon's error body and the CLI's stderr line carry the same
// triple for the same mistake.
func fromValidation(v *sweep.ValidationError) *apiError {
	status := http.StatusUnprocessableEntity
	if v.Code == sweep.ErrBadJSON {
		status = http.StatusBadRequest
	}
	return &apiError{status: status, Code: v.Code, Message: v.Message, Field: v.Field}
}

// writeError emits a structured JSON error with its HTTP status and,
// for backpressure rejections, a Retry-After header.
func writeError(w http.ResponseWriter, e *apiError) {
	w.Header().Set("Content-Type", "application/json")
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	w.WriteHeader(e.status)
	json.NewEncoder(w).Encode(wire.ErrorBody{Err: wire.Error{Code: e.Code, Message: e.Message, Field: e.Field}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// maxFrameBytes bounds one protocol frame (registration, lease
// request, completion report); result payloads travel through the
// cache-sync endpoints, not frames, so frames stay small.
const maxFrameBytes = 1 << 20

// readFrame decodes one strict, versioned protocol frame from the
// request body into v, answering the structured error itself when the
// frame is oversized, malformed, carries unknown fields, or declares a
// protocol version this server does not speak.
func readFrame(w http.ResponseWriter, req *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxFrameBytes+1))
	if err != nil {
		writeError(w, &apiError{status: http.StatusBadRequest, Code: wire.CodeBadRequest, Message: err.Error()})
		return false
	}
	if len(body) > maxFrameBytes {
		writeError(w, &apiError{status: http.StatusRequestEntityTooLarge, Code: wire.CodeBadRequest,
			Message: fmt.Sprintf("frame exceeds %d bytes", maxFrameBytes)})
		return false
	}
	if werr := wire.DecodeStrict(body, v); werr != nil {
		writeError(w, &apiError{status: http.StatusBadRequest, Code: werr.Code, Message: werr.Message, Field: werr.Field})
		return false
	}
	return true
}

// validateManifest parses and validates a submission body through the
// shared validator (sweep.ParseManifest + sweep.ValidateManifest) — the
// same code path `mcdsweep` runs on a manifest file — so an unknown
// topology, policy or scheme reports the same registered-name listing
// over the API as the CLI prints on stderr.
func validateManifest(body []byte) (*sweep.Manifest, []sweep.Job, *apiError) {
	m, verr := sweep.ParseManifest(body)
	if verr != nil {
		return nil, nil, fromValidation(verr)
	}
	jobs, verr := sweep.ValidateManifest(m)
	if verr != nil {
		return nil, nil, fromValidation(verr)
	}
	return m, jobs, nil
}

// Handler returns the server's HTTP API:
//
//	POST /v1/sweeps                    submit a manifest; 202 + Status (200 when joining an existing sweep)
//	GET  /v1/sweeps/{id}               progress snapshot
//	GET  /v1/sweeps/{id}/stream        NDJSON job completions (?from=N resumes), terminated by {"done":true,...}
//	GET  /v1/sweeps/{id}/results       merged results, byte-identical to `mcdsweep merge`
//	GET  /v1/sweeps/{id}/trace         NDJSON execution spans (?from=N resumes; requires -trace)
//	POST /v1/workers                   register a fleet worker (coordinator mode)
//	POST /v1/leases                    request the next anchor group (long poll)
//	POST /v1/leases/{id}/heartbeat     keep a lease alive
//	POST /v1/leases/{id}/complete      report a lease's jobs done
//	GET/PUT /v1/cache/{key}            fetch/upload one result-cache entry by content-addressed key
//	PUT  /v1/segments                  upload one columnar result segment (a whole lease's rows in one request)
//	GET/PUT /v1/artifacts/{key}        fetch/upload one artifact-store entry by content-addressed key
//	GET  /healthz                      liveness + drain state
//	GET  /metrics                      Prometheus text format
//
// Every request and response body is a versioned wire frame (see
// internal/serve/wire); the fleet endpoints answer fleet_disabled on a
// daemon not started as a coordinator.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/sweeps/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/workers", s.handleRegister)
	mux.HandleFunc("POST /v1/leases", s.handleLease)
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/leases/{id}/complete", s.handleComplete)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleGetCache)
	mux.HandleFunc("PUT /v1/cache/{key}", s.handlePutCache)
	mux.HandleFunc("PUT /v1/segments", s.handlePutSegment)
	mux.HandleFunc("GET /v1/artifacts/{key}", s.handleGetArtifact)
	mux.HandleFunc("PUT /v1/artifacts/{key}", s.handlePutArtifact)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// maxManifestBytes bounds a submission body; a grid that needs more
// JSON than this should be split, and truncating silently would turn
// the mistake into a misleading syntax error.
const maxManifestBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxManifestBytes+1))
	if err != nil {
		writeError(w, &apiError{status: http.StatusBadRequest, Code: wire.CodeBadRequest, Message: err.Error()})
		return
	}
	if len(body) > maxManifestBytes {
		writeError(w, &apiError{status: http.StatusRequestEntityTooLarge, Code: "manifest_too_large",
			Message: fmt.Sprintf("manifest exceeds %d bytes; split the grid", maxManifestBytes)})
		return
	}
	m, jobs, apiErr := validateManifest(body)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	r, created, apiErr := s.submit(m, jobs)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+r.id)
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	writeJSON(w, status, r.status())
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	r := s.sweepByID(req.PathValue("id"))
	if r == nil {
		writeError(w, &apiError{status: http.StatusNotFound, Code: "unknown_sweep",
			Message: fmt.Sprintf("no sweep %q (sweeps are not persisted across restarts; resubmit the manifest — cached jobs cost nothing)", req.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, r.status())
}

func (s *Server) handleStream(w http.ResponseWriter, req *http.Request) {
	r := s.sweepByID(req.PathValue("id"))
	if r == nil {
		writeError(w, &apiError{status: http.StatusNotFound, Code: "unknown_sweep",
			Message: fmt.Sprintf("no sweep %q", req.PathValue("id"))})
		return
	}
	from := 0
	if q := req.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, &apiError{status: http.StatusBadRequest, Code: wire.CodeBadRequest,
				Message: fmt.Sprintf("invalid from=%q", q)})
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for {
		lines, done, wait := r.next(from)
		for _, line := range lines {
			// A nil line is an event that did not encode (see append).
			if line == nil {
				return
			}
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		from += len(lines)
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			json.NewEncoder(w).Encode(wire.StreamEnd{Versioned: wire.Stamp(), Done: true, Status: r.status()})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-wait:
		case <-req.Context().Done():
			return
		}
	}
}

func (s *Server) handleResults(w http.ResponseWriter, req *http.Request) {
	r := s.sweepByID(req.PathValue("id"))
	if r == nil {
		writeError(w, &apiError{status: http.StatusNotFound, Code: "unknown_sweep",
			Message: fmt.Sprintf("no sweep %q", req.PathValue("id"))})
		return
	}
	st := r.status()
	switch st.State {
	case StateRunning:
		writeError(w, &apiError{status: http.StatusConflict, Code: "sweep_incomplete",
			Message: fmt.Sprintf("sweep %s still running (%d/%d jobs done)", r.id, st.Done, st.Jobs)})
		return
	case StateFailed:
		writeError(w, &apiError{status: http.StatusConflict, Code: "sweep_failed",
			Message: fmt.Sprintf("sweep %s failed: %s", r.id, st.Error)})
		return
	}
	format := req.URL.Query().Get("format")
	if format != "" && format != "ndjson" {
		writeError(w, &apiError{status: http.StatusBadRequest, Code: wire.CodeBadRequest, Field: "format",
			Message: fmt.Sprintf("unknown format %q (only \"ndjson\")", format)})
		return
	}
	// Reassemble from the persistent cache — columnar segments first,
	// per-job JSON as fallback — streaming row by row, so the daemon's
	// memory stays bounded however large the sweep. The default document
	// goes through the one canonical merge serialization, so served
	// bytes are identical to the CLI's merge output by construction; the
	// completeness check runs before any output so an incomplete cache
	// is still a clean structured error.
	s.segments.Refresh()
	src := sweep.MergeSource{Cache: s.cache, Segments: s.segments}
	if err := r.plan.Check(src); err != nil {
		writeError(w, &apiError{status: http.StatusInternalServerError, Code: "merge_failed",
			Message: err.Error()})
		return
	}
	if format == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		r.plan.WriteNDJSON(w, src)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	r.plan.WriteJSON(w, src)
}

// handleTrace streams a sweep's execution spans as NDJSON: the tracer
// ring filtered to the sweep's reachable key closure (keyless spans —
// seals, batch-internal bookkeeping — are always included), terminated
// by a {"done":true,"next":N,"dropped":D} line. ?from=N resumes from a
// previous response's next, the same contract as /stream — a span ring
// is append-only, so re-reading from a sequence is cheap and exact.
func (s *Server) handleTrace(w http.ResponseWriter, req *http.Request) {
	r := s.sweepByID(req.PathValue("id"))
	if r == nil {
		writeError(w, &apiError{status: http.StatusNotFound, Code: "unknown_sweep",
			Message: fmt.Sprintf("no sweep %q", req.PathValue("id"))})
		return
	}
	if s.Trace == nil {
		writeError(w, &apiError{status: http.StatusNotFound, Code: "trace_disabled",
			Message: "tracing is off; start the daemon with -trace"})
		return
	}
	var from uint64
	if q := req.URL.Query().Get("from"); q != "" {
		n, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, &apiError{status: http.StatusBadRequest, Code: wire.CodeBadRequest,
				Message: fmt.Sprintf("invalid from=%q", q)})
			return
		}
		from = n
	}
	keep := r.traceFilter()
	spans, next, dropped := s.Trace.Snapshot(from)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for i := range spans {
		if !keep(spans[i].Key) {
			continue
		}
		if err := enc.Encode(&spans[i]); err != nil {
			return
		}
	}
	enc.Encode(struct {
		Done    bool   `json:"done"`
		Next    uint64 `json:"next"`
		Dropped uint64 `json:"dropped"`
	}{true, next, dropped})
}

// fleetOr404 returns the coordinator state, answering the structured
// fleet_disabled error when this daemon was not started with -fleet.
func (s *Server) fleetOr404(w http.ResponseWriter) *fleet {
	if s.fleetState == nil {
		writeError(w, &apiError{status: http.StatusNotFound, Code: wire.CodeFleetDisabled,
			Message: "this daemon is not a fleet coordinator; start it with -fleet"})
		return nil
	}
	return s.fleetState
}

func (s *Server) handleRegister(w http.ResponseWriter, req *http.Request) {
	f := s.fleetOr404(w)
	if f == nil {
		return
	}
	var rr wire.RegisterRequest
	if !readFrame(w, req, &rr) {
		return
	}
	writeJSON(w, http.StatusOK, f.register(rr.Name))
}

func (s *Server) handleLease(w http.ResponseWriter, req *http.Request) {
	f := s.fleetOr404(w)
	if f == nil {
		return
	}
	var lr wire.LeaseRequest
	if !readFrame(w, req, &lr) {
		return
	}
	l, apiErr := f.grant(req.Context().Done(), lr.WorkerID, time.Duration(lr.WaitMS)*time.Millisecond)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, wire.LeaseResponse{Versioned: wire.Stamp(), Lease: l})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	f := s.fleetOr404(w)
	if f == nil {
		return
	}
	var hr wire.HeartbeatRequest
	if !readFrame(w, req, &hr) {
		return
	}
	ttl, apiErr := f.heartbeat(req.PathValue("id"), hr.WorkerID)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, wire.HeartbeatResponse{Versioned: wire.Stamp(), DeadlineMS: ttl.Milliseconds()})
}

func (s *Server) handleComplete(w http.ResponseWriter, req *http.Request) {
	f := s.fleetOr404(w)
	if f == nil {
		return
	}
	var cr wire.CompleteRequest
	if !readFrame(w, req, &cr) {
		return
	}
	if apiErr := f.complete(req.PathValue("id"), cr.WorkerID, cr.Jobs, cr.Spans); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, wire.CompleteResponse{Versioned: wire.Stamp()})
}

func badKey(w http.ResponseWriter, key string) {
	writeError(w, &apiError{status: http.StatusBadRequest, Code: wire.CodeBadRequest, Field: "key",
		Message: fmt.Sprintf("%.16q is not a content-addressed key (64 hex characters)", key)})
}

// maxEntryBytes bounds one uploaded cache or artifact entry.
const maxEntryBytes = 1 << 26

// serveEntryFile streams one content-addressed entry file verbatim —
// the stored bytes are already the canonical serialization, so the
// download side of sync is a plain file read.
func serveEntryFile(w http.ResponseWriter, path, key string) {
	b, err := os.ReadFile(path)
	if err != nil {
		status, code := http.StatusInternalServerError, "entry_unreadable"
		if errors.Is(err, fs.ErrNotExist) {
			status, code = http.StatusNotFound, "unknown_key"
		}
		writeError(w, &apiError{status: status, Code: code,
			Message: fmt.Sprintf("entry %.12s: %v", key, err)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

func readEntryBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxEntryBytes+1))
	if err != nil {
		writeError(w, &apiError{status: http.StatusBadRequest, Code: wire.CodeBadRequest, Message: err.Error()})
		return nil, false
	}
	if len(body) > maxEntryBytes {
		writeError(w, &apiError{status: http.StatusRequestEntityTooLarge, Code: "entry_too_large",
			Message: fmt.Sprintf("entry exceeds %d bytes", maxEntryBytes)})
		return nil, false
	}
	return body, true
}

func (s *Server) handleGetCache(w http.ResponseWriter, req *http.Request) {
	if s.fleetOr404(w) == nil {
		return
	}
	key := req.PathValue("key")
	path, err := s.cache.EntryPath(key)
	if err != nil {
		badKey(w, key)
		return
	}
	serveEntryFile(w, path, key)
}

func (s *Server) handlePutCache(w http.ResponseWriter, req *http.Request) {
	f := s.fleetOr404(w)
	if f == nil {
		return
	}
	key := req.PathValue("key")
	if !store.ValidKey(key) {
		badKey(w, key)
		return
	}
	body, ok := readEntryBody(w, req)
	if !ok {
		return
	}
	// Serialize uploads so concurrent workers racing on one key settle
	// to exactly one write; an entry the coordinator already holds is
	// byte-identical by construction (deterministic serialization of
	// content-addressed state), so re-uploads are acknowledged without
	// touching disk.
	f.upMu.Lock()
	defer f.upMu.Unlock()
	if _, exists := s.cache.Get(key); !exists {
		if err := s.cache.PutRaw(key, body); err != nil {
			writeError(w, &apiError{status: http.StatusBadRequest, Code: wire.CodeBadRequest, Message: err.Error()})
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePutSegment ingests one columnar segment — the worker's whole
// lease result set in a single request. The coordinator re-encodes
// every row through its own codec: each row lands in the JSON cache via
// Cache.Put (so the stored entry is byte-identical to the one the
// worker's local cache holds — the same deterministic serialization of
// the same key/job/outcome) and in the coordinator's own segment layer
// via Append. A damaged upload is rejected whole by the segment
// checksums before anything is written.
func (s *Server) handlePutSegment(w http.ResponseWriter, req *http.Request) {
	f := s.fleetOr404(w)
	if f == nil {
		return
	}
	body, ok := readEntryBody(w, req)
	if !ok {
		return
	}
	rows, err := sweep.DecodeSegmentRows(body)
	if err != nil {
		writeError(w, &apiError{status: http.StatusBadRequest, Code: wire.CodeBadRequest,
			Message: fmt.Sprintf("segment: %v", err)})
		return
	}
	// Same single-writer discipline as the per-key upload endpoints.
	f.upMu.Lock()
	defer f.upMu.Unlock()
	for _, m := range rows {
		if _, exists := s.cache.Get(m.Key); exists {
			continue
		}
		if err := s.cache.Put(m.Key, m.Job, m.Outcome); err != nil {
			writeError(w, &apiError{status: http.StatusInternalServerError, Code: "entry_unwritable",
				Message: fmt.Sprintf("entry %.12s: %v", m.Key, err)})
			return
		}
	}
	if err := s.segments.Append(rows); err != nil {
		writeError(w, &apiError{status: http.StatusInternalServerError, Code: "entry_unwritable",
			Message: fmt.Sprintf("segment: %v", err)})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleGetArtifact(w http.ResponseWriter, req *http.Request) {
	if s.fleetOr404(w) == nil {
		return
	}
	key := req.PathValue("key")
	path, err := s.artifacts.EntryPath(key)
	if err != nil {
		badKey(w, key)
		return
	}
	serveEntryFile(w, path, key)
}

func (s *Server) handlePutArtifact(w http.ResponseWriter, req *http.Request) {
	f := s.fleetOr404(w)
	if f == nil {
		return
	}
	key := req.PathValue("key")
	if !store.ValidKey(key) {
		badKey(w, key)
		return
	}
	body, ok := readEntryBody(w, req)
	if !ok {
		return
	}
	kind, err := artifactKind(body)
	if err != nil {
		writeError(w, &apiError{status: http.StatusBadRequest, Code: wire.CodeBadRequest, Message: err.Error()})
		return
	}
	// Same dedup discipline as the cache side: exactly one write per
	// key, so the store's write counter keeps meaning "trainings
	// persisted fleet-wide" (the train-once observable).
	f.upMu.Lock()
	defer f.upMu.Unlock()
	if !s.artifacts.Has(key, kind) {
		if err := s.artifacts.PutRaw(key, body); err != nil {
			writeError(w, &apiError{status: http.StatusBadRequest, Code: wire.CodeBadRequest, Message: err.Error()})
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// artifactKind peeks at a serialized artifact entry's declared kind
// (full validation, the declared key included, happens in the store's
// PutRaw).
func artifactKind(raw []byte) (string, error) {
	var e struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &e); err != nil {
		return "", fmt.Errorf("artifact entry: %w", err)
	}
	return e.Kind, nil
}

// healthz is the liveness body.
type healthz struct {
	OK       bool    `json:"ok"`
	Draining bool    `json:"draining"`
	Sweeps   int     `json:"sweeps"`
	UptimeS  float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthz{
		OK:       true,
		Draining: s.draining.Load(),
		Sweeps:   s.sweepCount(),
		UptimeS:  s.metrics.uptime().Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	var fg fleetGauges
	if s.fleetState != nil {
		fg = s.fleetState.gauges()
	}
	s.metrics.render(w, poolGauges{
		queued:        s.pool.Queued(),
		running:       s.pool.Running(),
		pending:       int(s.pending.Load()),
		capacity:      s.QueueDepth,
		draining:      s.draining.Load(),
		artifactLoads: s.artifacts.Loads(),
		artifactHits:  s.artifacts.Hits(),
		artifactW:     s.artifacts.Writes(),
	}, fg)
}
