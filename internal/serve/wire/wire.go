// Package wire is the typed, versioned protocol shared by the
// coordinator (serve.Server's handlers), the worker (cmd/mcdworker via
// serve.Worker) and the client (serve.Client, driven by mcdsweep
// -server). Every frame — request, response, NDJSON stream line —
// carries an explicit "proto" field, every error is the structured
// {code,message,field} triple, and parsing is unknown-field-strict:
// like manifests, a misspelled field is a structured error naming the
// problem, never a silently ignored knob. The three surfaces that used
// to hand-roll their JSON shapes all import this package, so the wire
// format cannot drift between them.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Proto is the wire-protocol version every frame carries. A peer that
// receives a different (or absent) version refuses the frame with a
// proto_unsupported error instead of guessing at field meanings.
const Proto = 1

// Versioned is embedded by every frame to carry the protocol version.
type Versioned struct {
	Proto int `json:"proto"`
}

// Version reports the frame's declared protocol version (DecodeStrict's
// hook).
func (v Versioned) Version() int { return v.Proto }

// Stamp returns a Versioned carrying the current protocol version, for
// frame construction.
func Stamp() Versioned { return Versioned{Proto: Proto} }

// Error is the structured error every endpoint returns on failure: a
// machine-readable code, a human message, and, when the failure is
// about one input field, its name.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

func (e *Error) Error() string {
	s := fmt.Sprintf("%s (%s", e.Message, e.Code)
	if e.Field != "" {
		s += ", field " + e.Field
	}
	return s + ")"
}

// ErrorBody is the error envelope on the wire: {"error": {...}}.
type ErrorBody struct {
	Err Error `json:"error"`
}

// Error codes shared across endpoints. Handlers may add their own; these
// are the ones peers branch on.
const (
	// CodeBadRequest is a malformed frame: invalid JSON, an unknown
	// field, or a missing required value.
	CodeBadRequest = "bad_request"
	// CodeProtoUnsupported is a frame declaring a protocol version this
	// peer does not speak.
	CodeProtoUnsupported = "proto_unsupported"
	// CodeFleetDisabled marks a fleet endpoint on a daemon not started
	// as a coordinator.
	CodeFleetDisabled = "fleet_disabled"
	// CodeUnknownWorker is a fleet request naming an unregistered worker.
	CodeUnknownWorker = "unknown_worker"
	// CodeLeaseExpired is a heartbeat or completion for a lease the
	// coordinator already expired (or never granted): the worker must
	// abandon the work — the anchor group has been reassigned.
	CodeLeaseExpired = "lease_expired"
	// CodeLeaseFailed is the structured per-job error a sweep reports
	// when an anchor group exhausted its reassignment attempts.
	CodeLeaseFailed = "lease_failed"
	// CodeIncompleteUpload is a lease completion whose claimed results
	// have not all been uploaded to the coordinator's cache.
	CodeIncompleteUpload = "incomplete_upload"
	// CodeWorkerError wraps a job-execution error a worker reported.
	CodeWorkerError = "worker_error"
)

// DecodeStrict decodes one frame with unknown fields rejected and the
// protocol version enforced. The frame must be the whole of data: only
// JSON whitespace (such as the newline an HTTP body or NDJSON line ends
// with) may follow it. A nil return means v is populated and speaks
// this package's Proto.
func DecodeStrict(data []byte, v any) *Error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &Error{Code: CodeBadRequest, Message: "wire: " + err.Error()}
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return &Error{Code: CodeBadRequest,
			Message: fmt.Sprintf("wire: %d bytes of trailing data after the frame", len(rest))}
	}
	if vv, ok := v.(interface{ Version() int }); ok {
		if p := vv.Version(); p != Proto {
			return &Error{
				Code:    CodeProtoUnsupported,
				Message: fmt.Sprintf("wire: frame declares proto %d, this peer speaks %d", p, Proto),
				Field:   "proto",
			}
		}
	}
	return nil
}

// Sweep states reported by Status.
const (
	StateRunning  = "running"
	StateComplete = "complete"
	StateFailed   = "failed"
)

// Status is one sweep's progress snapshot: submission response, status
// endpoint body, and the terminal stream line's payload.
type Status struct {
	Versioned
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	Jobs int    `json:"jobs"`
	Done int    `json:"done"`
	// State is running until every job resolved; then complete, or
	// failed when any job errored.
	State string `json:"state"`
	// Summary is built from this sweep's own job completions (one count
	// per batch job, by answering layer), so concurrent sweeps sharing
	// an engine never contaminate each other's counters and Executed is
	// zero iff none of this sweep's jobs needed simulation. Present once
	// the sweep is done.
	Summary *sweep.Summary `json:"summary,omitempty"`
	// Phases is the sweep's per-phase wall-clock breakdown, present once
	// the sweep is done on daemons that execute locally (a fleet
	// coordinator's phase time lives on its workers). Optional fields on
	// an existing frame are not a protocol bump: strict decoding rejects
	// unknown fields, and omitted knowns decode to their zero values.
	Phases *sweep.PhaseBreakdown `json:"phases,omitempty"`
	Error  string                `json:"error,omitempty"`
}

// Event is one completed job as it appears on the NDJSON stream, in
// completion order. Seq is the event's position in the sweep's stream
// (dense from 0), so a dropped connection resumes with ?from=seq.
type Event struct {
	Versioned
	Seq     int            `json:"seq"`
	Job     sweep.Job      `json:"job"`
	Key     string         `json:"key"`
	Source  string         `json:"source"`
	Elapsed int64          `json:"elapsed_ns"`
	Error   string         `json:"error,omitempty"`
	Outcome *sweep.Outcome `json:"outcome,omitempty"`
}

// StreamEnd is the NDJSON stream's terminal line.
type StreamEnd struct {
	Versioned
	Done   bool   `json:"done"`
	Status Status `json:"status"`
}

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	Versioned
	// Name is the worker's operator-facing label (metrics, logs); the
	// coordinator derives the authoritative WorkerID.
	Name string `json:"name,omitempty"`
}

// RegisterResponse assigns the worker its identity and the fleet's
// timing contract.
type RegisterResponse struct {
	Versioned
	WorkerID string `json:"worker_id"`
	// LeaseTTLMS is how long a granted lease lives without a heartbeat.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// HeartbeatMS is the interval the worker must heartbeat active
	// leases at (a fraction of the TTL).
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// PollMS is the suggested long-poll hold when requesting work.
	PollMS int64 `json:"poll_ms"`
}

// LeaseRequest asks for the next available anchor group. The
// coordinator holds the request up to WaitMS milliseconds waiting for
// work (long poll) before answering with an empty LeaseResponse.
type LeaseRequest struct {
	Versioned
	WorkerID string `json:"worker_id"`
	WaitMS   int64  `json:"wait_ms,omitempty"`
}

// Lease is one granted anchor group: every queued job that hangs off
// one shard anchor (PR 3's placement unit), plus the content-addressed
// keys of the group's dependency closure so the worker can prefetch
// what exists and upload what it produces.
type Lease struct {
	ID string `json:"id"`
	// Config is the full pipeline configuration the group runs under;
	// the worker derives byte-identical cache and artifact keys from it.
	Config core.Config `json:"config"`
	// RecordingCache is the manifest's bound on decoded packed streams
	// held in memory by the engine the worker runs this group on
	// (0 = automatic).
	RecordingCache int `json:"recording_cache,omitempty"`
	// Anchor is the group's shard-anchor key (diagnostic).
	Anchor string `json:"anchor"`
	// Jobs are the group's jobs; JobKeys[i] is Jobs[i]'s result key.
	Jobs    []sweep.Job `json:"jobs"`
	JobKeys []string    `json:"job_keys"`
	// DepKeys are result keys in the group's dependency closure beyond
	// the jobs themselves (e.g. the off-line run a global job resolves
	// inline); ArtifactKeys are the trained profiles it needs. The
	// worker downloads the ones the coordinator has and uploads the
	// ones it produces.
	DepKeys      []string `json:"dep_keys,omitempty"`
	ArtifactKeys []string `json:"artifact_keys,omitempty"`
	// Attempt counts grants of this group, 1-based: 2 and up mean the
	// group was reassigned after a lease expiry.
	Attempt int `json:"attempt"`
}

// LeaseResponse carries a granted lease, or none when the queue stayed
// empty for the request's whole wait.
type LeaseResponse struct {
	Versioned
	Lease *Lease `json:"lease,omitempty"`
}

// HeartbeatRequest keeps a lease alive.
type HeartbeatRequest struct {
	Versioned
	WorkerID string `json:"worker_id"`
}

// HeartbeatResponse acknowledges a heartbeat with the lease's renewed
// remaining lifetime.
type HeartbeatResponse struct {
	Versioned
	DeadlineMS int64 `json:"deadline_ms"`
}

// JobResult is one job's execution report inside a lease completion.
// The outcome itself travels through the content-addressed cache
// upload, not this frame; Key is how the coordinator finds it.
type JobResult struct {
	Key       string `json:"key"`
	Source    string `json:"source"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Error     string `json:"error,omitempty"`
}

// CompleteRequest reports a lease's jobs done, after the worker has
// uploaded the produced cache and artifact entries.
type CompleteRequest struct {
	Versioned
	WorkerID string      `json:"worker_id"`
	Jobs     []JobResult `json:"jobs"`
	// Spans are the worker's execution spans for this lease, present when
	// the worker runs with tracing enabled. The coordinator imports them
	// into its own tracer stamped with the worker and lease identity, so
	// the fleet-wide trace correlates every span to the lease that ran it.
	// Optional: an untraced worker omits the field (not a proto bump).
	Spans []obs.Span `json:"spans,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	Versioned
}
