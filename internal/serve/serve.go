// Package serve turns the sweep engine into a long-lived, multi-tenant
// service: an HTTP/JSON daemon (cmd/mcdserved) that accepts concurrent
// sweep submissions over the same manifest schema mcdsweep uses,
// deduplicates them against the in-process singleflight layers, the
// persistent result cache and the artifact store, and streams job
// outcomes back as they finish.
//
// The service adds three things the one-shot CLI does not have:
//
//   - Admission control and backpressure. All sweeps share one bounded
//     worker pool (sweep.WorkerPool) and one job-slot budget; a submission
//     that would overflow the budget is rejected with 429 and a
//     Retry-After estimate instead of queueing unboundedly.
//
//   - Cross-request dedup. Sweeps are content-addressed: a manifest
//     whose job set (under its configuration) matches a sweep the
//     server already knows joins it instead of resubmitting, concurrent
//     sweeps sharing jobs resolve each unique job once through the
//     engine's singleflight memo, and everything lands in the same
//     persistent cache directory the CLI uses — so the service never
//     recomputes work it has seen, even across restarts.
//
//   - An operational surface: per-sweep progress and merged-result
//     endpoints, an NDJSON stream of job completions, /healthz, and
//     /metrics in Prometheus text format (queue depth, in-flight jobs,
//     cache hit ratio, jobs/sec, per-policy latency histograms).
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/serve/wire"
	"repro/internal/sweep"
)

// Server is the sweep-as-a-service daemon state: a registry of
// content-addressed sweeps executing on one shared bounded worker pool,
// over one persistent cache directory.
type Server struct {
	// CacheDir is the persistent result-cache directory (the artifact
	// store lives in its artifacts/ subdirectory), shared with — and
	// interchangeable with — the mcdsweep CLI's -cache directory.
	CacheDir string
	// Workers is the worker-pool size; NewServer defaults it to
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds admitted-but-unfinished jobs across all sweeps;
	// submissions that would overflow it are rejected with 429.
	QueueDepth int
	// ExecFn, when non-nil, overrides job execution on every engine the
	// server creates (tests use it to count executions without running
	// the simulator).
	ExecFn func(sweep.Job) (*sweep.Outcome, error)
	// TrainWorkers, when positive, pins intra-job training parallelism
	// on every engine the server creates, overriding manifest
	// train_workers values — the daemon operator owns the machine's
	// resource budget. 0 defers to the manifest (then GOMAXPROCS).
	// Results are bit-identical at every setting, so this never affects
	// what a sweep returns.
	TrainWorkers int
	// Trace, when non-nil, collects execution spans from every engine the
	// server creates (and, on a fleet coordinator, spans imported from
	// worker lease completions) and backs GET /v1/sweeps/{id}/trace.
	// Nil — the default — keeps tracing entirely off. Set before serving
	// traffic.
	Trace *obs.Tracer

	pool      *sweep.WorkerPool
	cache     *sweep.Cache
	artifacts *artifact.Store
	segments  *sweep.SegmentStore
	streams   *sweep.StreamStore

	// fleetState is non-nil once EnableFleet turned this server into a
	// fleet coordinator: sweeps dispatch to leased remote workers
	// instead of the local pool.
	fleetState *fleet

	mu      sync.Mutex
	engines map[string]*sweep.Engine // by configKey
	sweeps  map[string]*sweepRun     // by sweep ID

	// pending counts admitted jobs that have not finished — the
	// admission-control budget QueueDepth caps.
	pending  atomic.Int64
	draining atomic.Bool
	wg       sync.WaitGroup // one per running sweep dispatcher

	metrics metrics
}

// NewServer returns a ready server over a persistent cache directory.
// workers <= 0 means GOMAXPROCS; queueDepth <= 0 picks workers*64
// (minimum 1024).
func NewServer(cacheDir string, workers, queueDepth int) *Server {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queueDepth <= 0 {
		queueDepth = sweep.DefaultQueueDepth(workers)
	}
	s := &Server{
		CacheDir:   cacheDir,
		Workers:    workers,
		QueueDepth: queueDepth,
		pool:       sweep.NewWorkerPool(workers, queueDepth),
		cache:      &sweep.Cache{Dir: cacheDir},
		artifacts:  sweep.ArtifactStore(cacheDir),
		segments:   sweep.SegmentStoreFor(cacheDir),
		streams:    sweep.StreamStoreFor(cacheDir),
		engines:    make(map[string]*sweep.Engine),
		sweeps:     make(map[string]*sweepRun),
	}
	s.metrics.start = time.Now()
	return s
}

// Sweep states reported by Status (aliases of the wire package's — the
// protocol owns the vocabulary, the service re-exports it).
const (
	StateRunning  = wire.StateRunning
	StateComplete = wire.StateComplete
	StateFailed   = wire.StateFailed
)

// Status is one sweep's progress snapshot: submission response, status
// endpoint body, and the terminal stream line's payload. The concrete
// type lives in the wire package so coordinator, worker and client
// cannot drift apart on its shape.
type Status = wire.Status

// Event is one completed job as it appears on the NDJSON stream, in
// completion order (wire.Event re-exported; see Status).
type Event = wire.Event

// sweepRun is one registered sweep: its jobs, completion-ordered event
// log, and a broadcast channel streamers wait on.
type sweepRun struct {
	id   string
	name string
	jobs []sweep.Job
	// plan is the jobs' keys, derived once at submission: it gives the
	// sweep ID and serves every /results request. plan.Space() is the
	// sweep configuration's key space, and its Config() the
	// configuration.
	plan *sweep.Plan
	// recCache is the manifest's recorded-stream cache override; it is
	// an execution knob (not part of the config or the sweep ID)
	// applied when this sweep is the first to create its
	// configuration's engine.
	recCache int

	// appendMu serializes appenders, so each event is encoded with its
	// seq outside mu: streamers and status readers never wait on an
	// encode. buf is the appenders' scratch encoding buffer.
	appendMu sync.Mutex
	buf      []byte

	mu sync.Mutex
	// lines is the event log: lines[seq] is event seq's NDJSON line,
	// encoded once when its job completed. Lines are never modified
	// once appended, so streamers share them without copying.
	lines   [][]byte
	changed chan struct{}
	// summary is tallied from this sweep's own completions: Run's
	// summary reports engine-wide counter deltas, which concurrent
	// sweeps sharing an engine would cross-attribute. errs is the
	// failed jobs' errors in completion order.
	summary sweep.Summary
	errs    []error
	// all closes when every job has completed.
	all    chan struct{}
	done   bool
	phases *sweep.PhaseBreakdown
	err    error

	// traceOnce builds traceKeep, the /trace span filter, on the first
	// /trace request.
	traceOnce sync.Once
	traceKeep func(key string) bool
}

func newSweepRun(id string, m *sweep.Manifest, plan *sweep.Plan, jobs []sweep.Job) *sweepRun {
	return &sweepRun{
		id:       id,
		name:     m.Name,
		jobs:     jobs,
		plan:     plan,
		recCache: m.RecordingCache,
		changed:  make(chan struct{}),
		all:      make(chan struct{}),
	}
}

// append records one finished job, in the summary and the event log,
// and wakes streamers.
func (r *sweepRun) append(d sweep.JobDone) {
	ev := Event{
		Versioned: wire.Stamp(),
		Job:       d.Job,
		Key:       d.Key,
		Source:    d.Source.String(),
		Elapsed:   d.Elapsed.Nanoseconds(),
		Outcome:   d.Outcome,
	}
	if d.Err != nil {
		ev.Error = d.Err.Error()
	}
	r.appendMu.Lock()
	defer r.appendMu.Unlock()
	// Only appenders grow lines, and they hold appendMu.
	ev.Seq = len(r.lines)
	// An event that does not encode (a non-finite float) is logged as a
	// nil line, which ends every stream that reaches it, as a failed
	// json.Encoder.Encode did.
	var line []byte
	if b, err := ev.AppendLine(r.buf[:0]); err == nil {
		r.buf = b
		line = append(make([]byte, 0, len(b)), b...)
	}
	r.mu.Lock()
	countJob(&r.summary, d)
	if d.Err != nil {
		r.errs = append(r.errs, fmt.Errorf("sweep: %s: %w", d.Job, d.Err))
	}
	r.lines = append(r.lines, line)
	if len(r.lines) == len(r.jobs) {
		close(r.all)
	}
	close(r.changed)
	r.changed = make(chan struct{})
	r.mu.Unlock()
}

// finish marks the sweep done and wakes streamers one last time. The
// summary's corrupt entries and segment hits come from the caller,
// because a JobDone carries neither. phases is the engine's per-phase
// delta attributed to this sweep's Run (nil on a fleet coordinator,
// where phase time accrues on workers).
func (r *sweepRun) finish(corrupt, segmentHits int, phases *sweep.PhaseBreakdown, err error) {
	r.mu.Lock()
	r.done = true
	r.summary.Jobs = len(r.jobs)
	r.summary.CorruptEntries, r.summary.SegmentHits = corrupt, segmentHits
	r.phases = phases
	r.err = err
	close(r.changed)
	r.changed = make(chan struct{})
	r.mu.Unlock()
}

// next returns the encoded event lines at and after from, whether the
// sweep is fully drained at that point, and a channel that closes on the
// next change. The lines are the log's own, shared without copying;
// callers must not modify them.
func (r *sweepRun) next(from int) (lines [][]byte, done bool, wait <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < 0 {
		from = 0
	}
	n := len(r.lines)
	if from < n {
		lines = r.lines[from:n:n]
	}
	// >= rather than ==: a finished sweep must report done even for an
	// overshot from (a client that miscounted), or the streamer would
	// wait forever on a changed channel that never closes again.
	return lines, r.done && from+len(lines) >= n, r.changed
}

// status snapshots the sweep's progress.
func (r *sweepRun) status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		Versioned: wire.Stamp(),
		ID:        r.id,
		Name:      r.name,
		Jobs:      len(r.jobs),
		Done:      len(r.lines),
		State:     StateRunning,
	}
	if r.done {
		st.State = StateComplete
		sum := r.summary
		st.Summary = &sum
		if r.phases != nil {
			pb := *r.phases
			st.Phases = &pb
		}
		if r.err != nil {
			st.State = StateFailed
			st.Error = r.err.Error()
		}
	}
	return st
}

// traceFilter reports whether a span belongs to the sweep: it is
// keyless, or its key is in the sweep's reachable closure (result keys
// of the jobs and their result dependencies, trained-profile keys,
// packed-stream keys), derived once from the plan's key space. Span
// identity never feeds any of those keys: this is a read-side
// projection only.
func (r *sweepRun) traceFilter() func(key string) bool {
	r.traceOnce.Do(func() {
		results, artifacts, streams, err := r.plan.Space().Reachable(r.jobs)
		r.traceKeep = func(k string) bool {
			return err != nil || k == "" || results[k] || artifacts[k] || streams[k]
		}
	})
	return r.traceKeep
}

// SweepID content-addresses a sweep: the hash of its configuration key
// and its sorted job keys (one per job, so a repeated job counts twice),
// all from the plan's key space. Two manifests that enumerate the same
// work under the same configuration get the same ID — however they spell
// it — so resubmissions join the existing sweep instead of re-running
// it, and the ID is stable across server restarts.
func SweepID(plan *sweep.Plan) string {
	h := sha256.New()
	io.WriteString(h, plan.Space().ConfigKey())
	for _, k := range plan.Keys() {
		io.WriteString(h, k)
	}
	return "sw-" + hex.EncodeToString(h.Sum(nil))[:24]
}

// engine returns the shared engine for a configuration, creating it on
// first use. All engines share the server's pool (passed per Run call
// via sweep.WithPool), cache and artifact store, so identical jobs in
// concurrent sweeps resolve exactly once. recCache sizes the
// recorded-stream cache when this call creates the engine; later sweeps
// joining the same configuration keep the creator's sizing.
func (s *Server) engine(keys *sweep.KeySpace, recCache int) *sweep.Engine {
	// The config key excludes TrainWorkers (an execution knob):
	// manifests differing only in train_workers share one engine,
	// keeping the exactly-once dedup intact.
	key := keys.ConfigKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.engines[key]; ok {
		return e
	}
	cfg := keys.Config()
	if s.TrainWorkers > 0 {
		cfg.TrainWorkers = s.TrainWorkers
	}
	e := sweep.New(cfg)
	e.RecordingCache = recCache
	e.Cache = s.cache
	e.Artifacts = s.artifacts
	e.Segments = s.segments
	e.Streams = s.streams
	e.ExecFn = s.ExecFn
	e.Trace = s.Trace
	s.engines[key] = e
	return e
}

// submit registers a manifest's sweep (already validated and
// enumerated by the handler) and starts it, or joins the
// already-registered sweep with the same content address. It returns
// the sweep and whether this call created it; a non-nil *apiError is an
// admission rejection.
func (s *Server) submit(m *sweep.Manifest, jobs []sweep.Job) (*sweepRun, bool, *apiError) {
	plan := sweep.NewKeySpace(m.Config()).Plan(jobs)
	id := SweepID(plan)

	s.mu.Lock()
	// The draining check happens under mu — the same lock Drain flips
	// the flag under — so a submission can never slip past Drain's
	// wg.Wait and dispatch onto a closed pool.
	if s.draining.Load() {
		s.mu.Unlock()
		s.metrics.sweepsRejected.Add(1)
		return nil, false, &apiError{
			status:  503,
			Code:    "draining",
			Message: "server is draining; not accepting new sweeps",
		}
	}
	if r, ok := s.sweeps[id]; ok {
		// Join the existing sweep — unless it finished with errors: the
		// engine deliberately drops failed flights so transient failures
		// (full disk, fixed permissions) can be retried, and a sticky
		// failed registry entry would make resubmission a no-op until
		// the daemon restarts. A failed sweep is replaced and re-run
		// below; its successfully completed jobs replay from the caches.
		r.mu.Lock()
		failed := r.done && r.err != nil
		r.mu.Unlock()
		if !failed {
			s.mu.Unlock()
			s.metrics.sweepsDeduped.Add(1)
			return r, false, nil
		}
	}
	// Admission: reserve one job slot per job, all or nothing, while
	// holding mu so concurrent submissions cannot jointly overshoot.
	n := int64(len(jobs))
	if n > int64(s.QueueDepth) {
		s.mu.Unlock()
		s.metrics.sweepsRejected.Add(1)
		return nil, false, &apiError{
			status: 413,
			Code:   "sweep_too_large",
			Message: fmt.Sprintf("sweep enumerates %d jobs, above the server's queue depth %d; shard the manifest",
				n, s.QueueDepth),
		}
	}
	if pending := s.pending.Load(); pending+n > int64(s.QueueDepth) {
		s.mu.Unlock()
		s.metrics.sweepsRejected.Add(1)
		return nil, false, &apiError{
			status: 429,
			Code:   "queue_full",
			Message: fmt.Sprintf("%d jobs pending, %d submitted, queue depth %d; retry later",
				pending, n, s.QueueDepth),
			retryAfter: s.retryAfter(pending),
		}
	}
	s.pending.Add(n)
	r := newSweepRun(id, m, plan, jobs)
	s.sweeps[id] = r
	s.wg.Add(1)
	s.mu.Unlock()

	s.metrics.sweepsAccepted.Add(1)
	go s.runSweep(r)
	return r, true, nil
}

// retryAfter estimates seconds until the backlog drains, from the
// pool's lifetime completion rate, clamped to [1, 60].
func (s *Server) retryAfter(pending int64) int {
	elapsed := time.Since(s.metrics.start).Seconds()
	done := s.pool.Completed()
	if done <= 0 || elapsed <= 0 {
		return 5
	}
	est := float64(pending) / (float64(done) / elapsed)
	switch {
	case est < 1:
		return 1
	case est > 60:
		return 60
	default:
		return int(est + 0.5)
	}
}

// countJob counts one finished job in sum, by the layer that answered
// it or as an error: one switch for a sweep's own summary and the
// server-wide /metrics job counters alike.
func countJob(sum *sweep.Summary, d sweep.JobDone) {
	switch {
	case d.Err != nil:
		sum.Errors++
	case d.Source == sweep.SourceExecuted:
		sum.Executed++
	case d.Source == sweep.SourceDisk:
		sum.DiskHits++
	default:
		sum.MemHits++
	}
}

// completer returns r's completion handler, the one both execution
// paths feed (a local Run's callbacks, a fleet's cache answers and lease
// results): it releases the job's admission slot, observes the job in
// the server metrics and records it in r.
func (s *Server) completer(r *sweepRun) func(sweep.JobDone) {
	return func(d sweep.JobDone) {
		s.pending.Add(-1)
		s.metrics.observe(d)
		r.append(d)
	}
}

// runSweep executes one sweep on the shared pool (or, on a fleet
// coordinator, dispatches it to leased workers), feeding its event log
// and the server metrics as each job completes.
func (s *Server) runSweep(r *sweepRun) {
	if s.fleetState != nil {
		s.runSweepFleet(r)
		return
	}
	defer s.wg.Done()
	eng := s.engine(r.plan.Space(), r.recCache)
	phasesBefore := eng.Phases()
	// Run's error joins the jobs' errors in job order, as a local run
	// reports them.
	_, engSum, err := eng.Run(context.Background(), r.jobs, sweep.WithPool(s.pool), sweep.WithOnDone(s.completer(r)))
	// Corruption has no per-job attribution (JobDone cannot carry it),
	// so take the engine-wide delta: between concurrent sweeps it may
	// land on either, but it is a damage signal — what matters is that
	// a damaged shared directory is never silent, here or in /metrics.
	s.metrics.corruptEntries.Add(int64(engSum.CorruptEntries))
	// Segment hits are engine-wide too: JobDone reports SourceDisk for
	// both cache layers (a segment hit is a disk hit), so the columnar
	// subset is only known engine-wide. The phase delta has the same
	// caveat: concurrent sweeps sharing an engine may cross-attribute
	// wall-clock, but a lone sweep's breakdown is exact.
	phases := eng.Phases().Sub(phasesBefore)
	r.finish(engSum.CorruptEntries, engSum.SegmentHits, &phases, err)
	s.metrics.sweepsCompleted.Add(1)
}

// sweepByID looks a registered sweep up.
func (s *Server) sweepByID(id string) *sweepRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

// sweepCount reports how many sweeps the server knows.
func (s *Server) sweepCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sweeps)
}

// Drain gracefully stops the server: new submissions are refused with
// 503 immediately, every admitted sweep runs to completion (or ctx
// expires), and the worker pool shuts down. Status, stream, results and
// metrics endpoints keep answering throughout, so clients watching a
// draining sweep see it finish. Drain is idempotent; only the first
// call closes the pool.
func (s *Server) Drain(ctx context.Context) error {
	// Flip the flag under the registry lock: every submission that
	// passed its own draining check has already registered (and
	// wg.Add'ed) its sweep, so wg.Wait below cannot miss it.
	s.mu.Lock()
	already := s.draining.Swap(true)
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %d jobs still pending: %w", s.pending.Load(), ctx.Err())
	case <-done:
	}
	if !already {
		s.pool.Close()
		if s.fleetState != nil {
			s.fleetState.stopExpiry()
		}
	}
	return nil
}
