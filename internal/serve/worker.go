package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve/wire"
	"repro/internal/sweep"
)

// Worker is one fleet member (cmd/mcdworker's engine room): it registers
// with a coordinator, pulls jobs one anchor group at a time, heartbeats
// its lease while running, and syncs results and trained profiles back
// through the content-addressed cache endpoints. Because leases arrive
// as whole anchor groups, every training the group depends on happens
// here — exactly once fleet-wide — and the entries it uploads are
// byte-identical to what a local run would have written (the same
// deterministic serialization keyed by the same content addresses).
type Worker struct {
	// Server is the coordinator's base URL (required).
	Server string
	// Name is the operator-facing label reported at registration.
	Name string
	// CacheDir is the worker's local result-cache directory (the
	// artifact store lives in its artifacts/ subdirectory). A warm local
	// cache answers leased jobs without re-execution.
	CacheDir string
	// Workers bounds each lease's execution concurrency; 0 means
	// GOMAXPROCS.
	Workers int
	// TrainWorkers bounds intra-job training parallelism on this
	// worker's engines. The lease's configuration does not carry the
	// knob (it is execution-local, excluded from the config's JSON
	// encoding and every cache key), so each worker governs its own
	// setting; 0 means GOMAXPROCS. Results are bit-identical at every
	// setting, which is what keeps fleet-synced bytes stable.
	TrainWorkers int
	// ExecFn, when non-nil, overrides job execution (tests).
	ExecFn func(sweep.Job) (*sweep.Outcome, error)
	// HTTP overrides the transport; nil uses http.DefaultClient.
	HTTP *http.Client
	// DisableHeartbeat stops the worker from heartbeating its leases —
	// fault-injection tests use it to force coordinator-side expiry.
	DisableHeartbeat bool
	// Trace, when non-nil, collects execution spans on this worker's
	// engines; each lease's spans ship with its completion report so a
	// tracing coordinator can correlate them to the lease. Nil keeps
	// tracing off.
	Trace *obs.Tracer
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)

	id      string
	client  *Client
	cache   *sweep.Cache
	store   *artifact.Store
	segs    *sweep.SegmentStore
	streams *sweep.StreamStore
	engines map[string]*sweep.Engine
	reg     *wire.RegisterResponse
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Connection-loss policy: transient coordinator failures are retried at
// retryDelay; maxConsecutiveFails of them in a row (with no successful
// exchange in between) is a lost coordinator, and Run returns the error.
const (
	retryDelay          = time.Second
	maxConsecutiveFails = 30
)

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Run is the worker's main loop: register, then lease/execute/sync
// until ctx is canceled (graceful shutdown, returns nil) or the
// coordinator stays unreachable past the retry budget (returns the
// error).
func (w *Worker) Run(ctx context.Context) error {
	if w.Server == "" {
		return errors.New("serve: worker: Server URL is required")
	}
	if w.CacheDir == "" {
		return errors.New("serve: worker: CacheDir is required")
	}
	w.client = &Client{BaseURL: w.Server, HTTP: w.HTTP}
	w.cache = &sweep.Cache{Dir: w.CacheDir}
	w.store = sweep.ArtifactStore(w.CacheDir)
	w.segs = sweep.SegmentStoreFor(w.CacheDir)
	w.streams = sweep.StreamStoreFor(w.CacheDir)
	w.engines = make(map[string]*sweep.Engine)

	if err := w.register(ctx); err != nil || ctx.Err() != nil {
		return err
	}
	fails := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		l, err := w.client.RequestLease(ctx, w.id, time.Duration(w.reg.PollMS)*time.Millisecond)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			var ae *APIError
			if errors.As(err, &ae) && ae.Code == wire.CodeUnknownWorker {
				// The coordinator restarted and lost our registration;
				// re-register under a fresh identity.
				w.logf("worker: coordinator no longer knows us; re-registering")
				if rerr := w.register(ctx); rerr != nil || ctx.Err() != nil {
					return rerr
				}
				continue
			}
			fails++
			if fails >= maxConsecutiveFails {
				return fmt.Errorf("serve: worker: lost coordinator %s: %w", w.Server, err)
			}
			sleepCtx(ctx, retryDelay)
			continue
		}
		fails = 0
		if l == nil {
			continue // long poll expired with no work
		}
		w.logf("worker: lease %s: %d job(s), anchor %.12s, attempt %d", l.ID, len(l.Jobs), l.Anchor, l.Attempt)
		if err := w.processLease(ctx, l); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			// The lease is abandoned; the coordinator's expiry machinery
			// reassigns the group.
			w.logf("worker: lease %s abandoned: %v", l.ID, err)
			fails++
			if fails >= maxConsecutiveFails {
				return fmt.Errorf("serve: worker: lost coordinator %s: %w", w.Server, err)
			}
			sleepCtx(ctx, retryDelay)
		}
	}
}

// register announces the worker, retrying transient failures. A nil
// error with ctx canceled means shutdown, not success.
func (w *Worker) register(ctx context.Context) error {
	fails := 0
	for {
		reg, err := w.client.RegisterWorker(ctx, w.Name)
		if err == nil {
			w.id, w.reg = reg.WorkerID, reg
			w.logf("worker: registered as %s (lease ttl %dms, heartbeat %dms)", w.id, reg.LeaseTTLMS, reg.HeartbeatMS)
			return nil
		}
		if ctx.Err() != nil {
			return nil
		}
		var ae *APIError
		if errors.As(err, &ae) && ae.Code == wire.CodeFleetDisabled {
			return fmt.Errorf("serve: worker: %s is not a fleet coordinator: %w", w.Server, err)
		}
		fails++
		if fails >= maxConsecutiveFails {
			return fmt.Errorf("serve: worker: cannot reach coordinator %s: %w", w.Server, err)
		}
		sleepCtx(ctx, retryDelay)
	}
}

// engine returns the worker's engine for a configuration, creating it
// on first use (one lease runs at a time, so no locking).
func (w *Worker) engine(cfg core.Config, recCache int) *sweep.Engine {
	if w.TrainWorkers > 0 {
		cfg.TrainWorkers = w.TrainWorkers
	}
	key := sweep.NewKeySpace(cfg).ConfigKey()
	if e, ok := w.engines[key]; ok {
		return e
	}
	e := sweep.New(cfg)
	e.Workers = w.Workers
	e.RecordingCache = recCache
	e.Cache = w.cache
	e.Artifacts = w.store
	e.Segments = w.segs
	e.Streams = w.streams
	e.ExecFn = w.ExecFn
	e.Trace = w.Trace
	w.engines[key] = e
	return e
}

// processLease runs one anchor group end to end: prefetch the
// dependency closure the coordinator already holds, execute locally,
// upload what this run produced, and complete the lease. A lease the
// coordinator expired mid-run is abandoned silently (nil error): the
// group is already reassigned, and whatever was uploaded still counts.
func (w *Worker) processLease(ctx context.Context, l *wire.Lease) error {
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// remote tracks keys confirmed present on the coordinator, so the
	// upload pass only ships what this run added.
	remote := make(map[string]bool)
	for _, k := range l.ArtifactKeys {
		if w.store.Has(k, artifact.KindProfile) {
			continue
		}
		b, ok, err := w.client.GetArtifact(leaseCtx, k)
		if err != nil {
			return fmt.Errorf("prefetch artifact %.12s: %w", k, err)
		}
		if !ok {
			continue // not trained anywhere yet; this run will produce it
		}
		if err := w.store.PutRaw(k, b); err != nil {
			return fmt.Errorf("prefetch artifact %.12s: %w", k, err)
		}
		remote[k] = true
	}
	for _, k := range append(append([]string(nil), l.DepKeys...), l.JobKeys...) {
		if _, hit := w.cache.Get(k); hit {
			continue
		}
		b, ok, err := w.client.GetCacheEntry(leaseCtx, k)
		if err != nil {
			return fmt.Errorf("prefetch result %.12s: %w", k, err)
		}
		if !ok {
			continue
		}
		if err := w.cache.PutRaw(k, b); err != nil {
			return fmt.Errorf("prefetch result %.12s: %w", k, err)
		}
		remote[k] = true
	}

	// Heartbeat until execution finishes; a lease_expired answer means
	// the group is reassigned — cancel the run and abandon.
	var lost atomic.Bool
	hbStop := make(chan struct{})
	defer close(hbStop)
	if !w.DisableHeartbeat {
		go func() {
			hb := time.Duration(w.reg.HeartbeatMS) * time.Millisecond
			if hb <= 0 {
				hb = 5 * time.Second
			}
			t := time.NewTicker(hb)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-leaseCtx.Done():
					return
				case <-t.C:
					if _, err := w.client.Heartbeat(leaseCtx, l.ID, w.id); err != nil {
						var ae *APIError
						if errors.As(err, &ae) &&
							(ae.Code == wire.CodeLeaseExpired || ae.Code == wire.CodeUnknownWorker) {
							lost.Store(true)
							cancel()
							return
						}
						// Transient; the next tick retries while the
						// lease's TTL holds.
					}
				}
			}
		}()
	}

	// One lease runs at a time, so bracketing the tracer's sequence
	// around the Run captures exactly this lease's spans.
	var spanFrom uint64
	if w.Trace != nil {
		spanFrom = w.Trace.NextSeq()
	}
	results := make([]wire.JobResult, len(l.Jobs))
	_, _, runErr := w.engine(l.Config, l.RecordingCache).Run(leaseCtx, l.Jobs,
		sweep.WithOnDone(func(d sweep.JobDone) {
			jr := wire.JobResult{Key: d.Key, Source: d.Source.String(), ElapsedNS: d.Elapsed.Nanoseconds()}
			if jr.Key == "" {
				// Validation failures never derive a key; the lease names it.
				jr.Key = l.JobKeys[d.Index]
			}
			if d.Err != nil {
				jr.Error = d.Err.Error()
			}
			results[d.Index] = jr
		}))
	if lost.Load() {
		return nil
	}
	if leaseCtx.Err() != nil {
		return leaseCtx.Err()
	}
	// Per-job errors are already in the results; runErr joins them and
	// the completion report carries them to the coordinator.
	_ = runErr

	// Upload what this run produced: trained profiles first (a future
	// lease can replan from them), then the result entries the
	// completion report claims.
	for _, k := range l.ArtifactKeys {
		if remote[k] {
			continue
		}
		path, err := w.store.EntryPath(k)
		if err != nil {
			return fmt.Errorf("upload artifact: %w", err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			continue // not produced (the depending job failed)
		}
		if err := w.client.PutArtifact(leaseCtx, k, b); err != nil {
			return fmt.Errorf("upload artifact %.12s: %w", k, err)
		}
	}
	// Results ship as one columnar segment instead of one PUT per key:
	// the coordinator decodes it, re-derives any missing canonical JSON
	// entries through the same deterministic serialization, and appends
	// the rows to its own segment layer — so synced bytes stay
	// byte-identical to a local run while the sync itself is one
	// round-trip per lease.
	var rows []sweep.Merged
	for _, k := range append(append([]string(nil), l.JobKeys...), l.DepKeys...) {
		if remote[k] {
			continue
		}
		job, out, ok := w.cache.Entry(k)
		if !ok {
			continue // the job failed; its result reports the error instead
		}
		rows = append(rows, sweep.Merged{Key: k, Job: job, Outcome: out})
	}
	if len(rows) > 0 {
		seg, err := sweep.EncodeSegment(rows)
		if err != nil {
			return fmt.Errorf("encode result segment: %w", err)
		}
		if err := w.client.PutSegment(leaseCtx, seg); err != nil {
			return fmt.Errorf("upload result segment (%d row(s)): %w", len(rows), err)
		}
	}

	var spans []obs.Span
	if w.Trace != nil {
		spans, _, _ = w.Trace.Snapshot(spanFrom)
		// Completion frames are size-capped (maxFrameBytes); keep the
		// most recent spans if a huge lease overflows the budget.
		const maxLeaseSpans = 4096
		if len(spans) > maxLeaseSpans {
			spans = spans[len(spans)-maxLeaseSpans:]
		}
	}
	if err := w.client.CompleteLease(leaseCtx, l.ID, w.id, results, spans); err != nil {
		var ae *APIError
		if errors.As(err, &ae) && ae.Code == wire.CodeLeaseExpired {
			w.logf("worker: lease %s expired before completion; group reassigned", l.ID)
			return nil
		}
		return fmt.Errorf("complete lease %s: %w", l.ID, err)
	}
	w.logf("worker: lease %s complete (%d job(s))", l.ID, len(l.Jobs))
	return nil
}
