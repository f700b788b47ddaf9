package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/wire"
	"repro/internal/store"
	"repro/internal/sweep"
)

// FleetConfig tunes the coordinator's lease protocol.
type FleetConfig struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// before the coordinator expires it and reassigns the anchor group.
	// Default 15s.
	LeaseTTL time.Duration
	// Heartbeat is the interval workers are told to heartbeat at.
	// Default LeaseTTL/3.
	Heartbeat time.Duration
	// Poll bounds how long a lease request is held open waiting for work
	// (long poll) and is the idle re-poll interval workers are told to
	// use. Default 2s.
	Poll time.Duration
	// MaxAttempts caps how many times one anchor group is granted
	// (initial grant included) before its jobs fail with a structured
	// lease_failed error. Default 3.
	MaxAttempts int
}

func (fc FleetConfig) withDefaults() FleetConfig {
	if fc.LeaseTTL <= 0 {
		fc.LeaseTTL = 15 * time.Second
	}
	if fc.Heartbeat <= 0 {
		fc.Heartbeat = fc.LeaseTTL / 3
	}
	if fc.Poll <= 0 {
		fc.Poll = 2 * time.Second
	}
	if fc.MaxAttempts <= 0 {
		fc.MaxAttempts = 3
	}
	return fc
}

// EnableFleet turns the server into a fleet coordinator: sweeps no
// longer execute on the local pool — jobs are grouped by their shard
// anchor (sweep.KeySpace.AnchorKey) and leased to registered workers
// one group at a time, so each trained profile and each shared
// dependency run lands on exactly one worker. Call before serving
// traffic.
func (s *Server) EnableFleet(fc FleetConfig) {
	f := &fleet{
		s:          s,
		cfg:        fc.withDefaults(),
		workers:    make(map[string]*fleetWorker),
		leases:     make(map[string]*lease),
		open:       make(map[string]*leaseGroup),
		jobs:       make(map[string]*fleetJob),
		notify:     make(chan struct{}),
		expiryStop: make(chan struct{}),
	}
	s.fleetState = f
	go f.expiryLoop()
}

// fleet is the coordinator state machine: registered workers, granted
// leases, and the queue of anchor groups waiting for one.
//
// Lease lifecycle: granted → (heartbeats extend the deadline) →
// completed, or expired on a missed heartbeat — in which case the
// group's still-uncached jobs are requeued (reassigned) until the
// grant-attempt cap, after which they fail with a structured
// lease_failed error.
type fleet struct {
	s   *Server
	cfg FleetConfig

	mu      sync.Mutex
	workers map[string]*fleetWorker
	leases  map[string]*lease
	// queue holds anchor groups ready to grant, FIFO; open indexes the
	// queued groups still accepting jobs by group key (a granted group
	// is closed: later jobs for the same anchor form a new group).
	queue []*leaseGroup
	open  map[string]*leaseGroup
	// jobs indexes every not-yet-completed fleet job by result key, so
	// concurrent sweeps sharing jobs join one pending execution.
	jobs   map[string]*fleetJob
	notify chan struct{}
	nextID int64

	// upMu serializes entry uploads so concurrent workers racing on one
	// content-addressed key settle to exactly one disk write (the write
	// counters are train-once observables).
	upMu sync.Mutex

	expiryStop chan struct{}
	expiryOnce sync.Once

	granted      atomic.Int64
	expired      atomic.Int64
	reassigned   atomic.Int64
	leaseDone    atomic.Int64
	failedGroups atomic.Int64
}

type fleetWorker struct {
	id       string
	name     string
	lastSeen time.Time
	active   int // leases currently held
	jobsDone int64
}

// waiter is one sweep's claim on a pending job's completion.
type waiter struct {
	index int
	cb    func(sweep.JobDone)
}

type fleetJob struct {
	key     string
	job     sweep.Job
	waiters []waiter
}

// leaseGroup is one anchor group: every pending job sharing one
// sweep.KeySpace.AnchorKey under one configuration, granted as a unit.
type leaseGroup struct {
	gkey string
	// keys is the key space of the sweep that opened the group: the
	// group's configuration and the closure each grant sends.
	keys     *sweep.KeySpace
	recCache int
	anchor   string
	jobs     []*fleetJob
	// attempts counts grants; it is compared against MaxAttempts when a
	// lease expires.
	attempts int
}

type lease struct {
	id       string
	workerID string
	g        *leaseGroup
	deadline time.Time
}

// wake signals long-polling lease requests that the queue changed.
// Callers hold f.mu.
func (f *fleet) wake() {
	close(f.notify)
	f.notify = make(chan struct{})
}

func (f *fleet) stopExpiry() {
	f.expiryOnce.Do(func() { close(f.expiryStop) })
}

// register admits one worker and returns its identity plus the fleet's
// timing contract.
func (f *fleet) register(name string) *wire.RegisterResponse {
	f.mu.Lock()
	f.nextID++
	id := fmt.Sprintf("wk-%d", f.nextID)
	f.workers[id] = &fleetWorker{id: id, name: name, lastSeen: time.Now()}
	f.mu.Unlock()
	return &wire.RegisterResponse{
		Versioned:   wire.Stamp(),
		WorkerID:    id,
		LeaseTTLMS:  f.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMS: f.cfg.Heartbeat.Milliseconds(),
		PollMS:      f.cfg.Poll.Milliseconds(),
	}
}

// touchWorker refreshes a worker's liveness stamp; ok=false means the
// worker never registered. Callers hold f.mu.
func (f *fleet) touchWorker(id string) (*fleetWorker, bool) {
	w := f.workers[id]
	if w == nil {
		return nil, false
	}
	w.lastSeen = time.Now()
	return w, true
}

func unknownWorker(id string) *apiError {
	return &apiError{status: http.StatusNotFound, Code: wire.CodeUnknownWorker,
		Message: fmt.Sprintf("no registered worker %q; register via POST /v1/workers first", id)}
}

func leaseGone(id string) *apiError {
	return &apiError{status: http.StatusGone, Code: wire.CodeLeaseExpired,
		Message: fmt.Sprintf("lease %q is not active (expired and reassigned, or already completed); abandon the work", id)}
}

// grant hands the next queued anchor group to a worker, holding the
// request up to wait for work to appear (long poll). A nil lease with a
// nil error means the queue stayed empty; done signals the caller's
// departure (connection closed).
func (f *fleet) grant(done <-chan struct{}, workerID string, wait time.Duration) (*wire.Lease, *apiError) {
	if wait > f.cfg.Poll {
		wait = f.cfg.Poll
	}
	deadline := time.Now().Add(wait)
	for {
		f.mu.Lock()
		w, ok := f.touchWorker(workerID)
		if !ok {
			f.mu.Unlock()
			return nil, unknownWorker(workerID)
		}
		if len(f.queue) > 0 {
			g := f.queue[0]
			f.queue = f.queue[1:]
			if f.open[g.gkey] == g {
				delete(f.open, g.gkey)
			}
			g.attempts++
			f.nextID++
			l := &lease{
				id:       fmt.Sprintf("ls-%d", f.nextID),
				workerID: workerID,
				g:        g,
				deadline: time.Now().Add(f.cfg.LeaseTTL),
			}
			f.leases[l.id] = l
			w.active++
			f.granted.Add(1)
			f.mu.Unlock()
			return f.wireLease(l), nil
		}
		ch := f.notify
		f.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, nil
		}
		t := time.NewTimer(remain)
		select {
		case <-done:
			t.Stop()
			return nil, nil
		case <-t.C:
			return nil, nil
		case <-ch:
			t.Stop()
		}
	}
}

// wireLease renders a granted lease, including the group's dependency
// closure: every reachable result key beyond the jobs themselves and
// every trained profile the group resolves, so the worker can prefetch
// what the coordinator has and upload what it produces.
func (f *fleet) wireLease(l *lease) *wire.Lease {
	g := l.g
	jobs := make([]sweep.Job, len(g.jobs))
	keys := make([]string, len(g.jobs))
	own := make(map[string]bool, len(g.jobs))
	for i, fj := range g.jobs {
		jobs[i] = fj.job
		keys[i] = fj.key
		own[fj.key] = true
	}
	wl := &wire.Lease{
		ID:             l.id,
		Config:         g.keys.Config(),
		RecordingCache: g.recCache,
		Anchor:         g.anchor,
		Jobs:           jobs,
		JobKeys:        keys,
		Attempt:        g.attempts,
	}
	// Reachable cannot fail here: every grouped job already passed
	// validation at submission.
	if results, artifacts, _, err := g.keys.Reachable(jobs); err == nil {
		for k := range results {
			if !own[k] {
				wl.DepKeys = append(wl.DepKeys, k)
			}
		}
		for k := range artifacts {
			wl.ArtifactKeys = append(wl.ArtifactKeys, k)
		}
		sort.Strings(wl.DepKeys)
		sort.Strings(wl.ArtifactKeys)
	}
	return wl
}

// heartbeat extends a lease's deadline and returns the renewed
// remaining lifetime.
func (f *fleet) heartbeat(leaseID, workerID string) (time.Duration, *apiError) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.touchWorker(workerID); !ok {
		return 0, unknownWorker(workerID)
	}
	l := f.leases[leaseID]
	if l == nil || l.workerID != workerID {
		return 0, leaseGone(leaseID)
	}
	l.deadline = time.Now().Add(f.cfg.LeaseTTL)
	return f.cfg.LeaseTTL, nil
}

// doneJob pairs one fleet job with its resolution, ready to fan out to
// the sweeps waiting on it.
type doneJob struct {
	fj      *fleetJob
	out     *sweep.Outcome
	src     sweep.Source
	elapsed time.Duration
	err     error
}

// fire fans completions out to every waiting sweep. The first waiter
// gets the resolving source; joiners report memory, matching the
// engine's label for waiting on a concurrent duplicate. Callers must
// not hold f.mu: callbacks take sweep and metrics locks.
func fire(dones []doneJob) {
	for _, d := range dones {
		for i, wt := range d.fj.waiters {
			src := d.src
			if i > 0 && d.err == nil {
				src = sweep.SourceMemory
			}
			wt.cb(sweep.JobDone{
				Index:   wt.index,
				Job:     d.fj.job,
				Key:     d.fj.key,
				Outcome: d.out,
				Source:  src,
				Elapsed: d.elapsed,
				Err:     d.err,
			})
		}
	}
}

// complete settles a lease: verify the report covers the whole group
// and that every claimed result was uploaded to the coordinator's
// cache, then retire the lease and fan the outcomes out. spans are the
// worker's execution spans for the lease; on a tracing coordinator they
// are imported stamped with the worker and lease identity, so the
// fleet-wide trace stays correlated.
func (f *fleet) complete(leaseID, workerID string, results []wire.JobResult, spans []obs.Span) *apiError {
	f.mu.Lock()
	w, ok := f.touchWorker(workerID)
	if !ok {
		f.mu.Unlock()
		return unknownWorker(workerID)
	}
	l := f.leases[leaseID]
	if l == nil || l.workerID != workerID {
		f.mu.Unlock()
		return leaseGone(leaseID)
	}
	// Snapshot under the lock: an expiry racing this completion would
	// requeue the group with a trimmed job list.
	groupJobs := append([]*fleetJob(nil), l.g.jobs...)
	f.mu.Unlock()

	byKey := make(map[string]wire.JobResult, len(results))
	for _, jr := range results {
		byKey[jr.Key] = jr
	}
	// Verify before claiming: a rejected completion leaves the lease
	// active, so the heartbeat/expiry machinery decides what happens
	// next (the worker retries or the group is reassigned).
	dones := make([]doneJob, 0, len(groupJobs))
	for _, fj := range groupJobs {
		jr, ok := byKey[fj.key]
		if !ok {
			return &apiError{status: http.StatusBadRequest, Code: wire.CodeBadRequest,
				Message: fmt.Sprintf("completion of lease %s is missing job %.12s", leaseID, fj.key)}
		}
		d := doneJob{fj: fj, src: parseSource(jr.Source), elapsed: time.Duration(jr.ElapsedNS)}
		if jr.Error != "" {
			d.err = &wire.Error{Code: wire.CodeWorkerError,
				Message: fmt.Sprintf("worker %s: %s", workerID, jr.Error)}
		} else {
			out, ok := f.s.cache.Get(fj.key)
			if !ok {
				return &apiError{status: http.StatusConflict, Code: wire.CodeIncompleteUpload,
					Message: fmt.Sprintf("lease %s claims job %.12s done but its result was not uploaded; upload via PUT /v1/cache/{key} before completing", leaseID, fj.key)}
			}
			d.out = out
		}
		dones = append(dones, d)
	}

	f.mu.Lock()
	if f.leases[leaseID] != l {
		// Expired while we were verifying: the group is already
		// requeued; the worker must abandon this attempt.
		f.mu.Unlock()
		return leaseGone(leaseID)
	}
	delete(f.leases, leaseID)
	w.active--
	w.jobsDone += int64(len(dones))
	for i := range dones {
		delete(f.jobs, dones[i].fj.key)
	}
	attempt := l.g.attempts
	f.leaseDone.Add(1)
	f.mu.Unlock()

	if tr := f.s.Trace; tr != nil && len(spans) > 0 {
		tr.Import(spans, workerID, leaseID, attempt)
	}
	fire(dones)
	return nil
}

func parseSource(s string) sweep.Source {
	switch s {
	case sweep.SourceExecuted.String():
		return sweep.SourceExecuted
	case sweep.SourceDisk.String():
		return sweep.SourceDisk
	default:
		return sweep.SourceMemory
	}
}

// expiryLoop scans for leases past their deadline. It stops when the
// server drains.
func (f *fleet) expiryLoop() {
	interval := f.cfg.LeaseTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-f.expiryStop:
			return
		case <-t.C:
			f.expire(time.Now())
		}
	}
}

func (f *fleet) expire(now time.Time) {
	f.mu.Lock()
	var dead []*lease
	for id, l := range f.leases {
		if now.After(l.deadline) {
			dead = append(dead, l)
			delete(f.leases, id)
			if w := f.workers[l.workerID]; w != nil {
				w.active--
			}
		}
	}
	f.mu.Unlock()
	for _, l := range dead {
		f.expired.Add(1)
		f.requeueOrFail(l)
	}
}

// requeueOrFail handles one expired lease. Results the dead worker
// uploaded before missing its heartbeat are settled from the cache;
// the remainder is requeued for another worker — unless the group has
// exhausted its grant attempts, in which case its jobs fail with a
// structured lease_failed error.
func (f *fleet) requeueOrFail(l *lease) {
	g := l.g
	var remain []*fleetJob
	var dones []doneJob
	for _, fj := range g.jobs {
		if out, ok := f.s.cache.Get(fj.key); ok {
			dones = append(dones, doneJob{fj: fj, out: out, src: sweep.SourceDisk})
		} else {
			remain = append(remain, fj)
		}
	}

	f.mu.Lock()
	for i := range dones {
		delete(f.jobs, dones[i].fj.key)
	}
	switch {
	case len(remain) == 0:
		// The worker finished everything but died before completing.
	case g.attempts >= f.cfg.MaxAttempts:
		ferr := &wire.Error{Code: wire.CodeLeaseFailed,
			Message: fmt.Sprintf("anchor group %.12s: lease expired on attempt %d/%d (last worker %s); giving up",
				g.anchor, g.attempts, f.cfg.MaxAttempts, l.workerID)}
		for _, fj := range remain {
			delete(f.jobs, fj.key)
			dones = append(dones, doneJob{fj: fj, src: sweep.SourceMemory, err: ferr})
		}
		f.failedGroups.Add(1)
	default:
		// Requeue the remainder as a closed group: jobs submitted while
		// it waits form their own group rather than joining a moving one.
		g.jobs = remain
		f.queue = append(f.queue, g)
		f.reassigned.Add(1)
		f.wake()
	}
	f.mu.Unlock()
	fire(dones)
}

// enqueueItem is one cache-missed job bound for the lease queue.
type enqueueItem struct {
	job sweep.Job
	key string
	w   waiter
}

// enqueue registers one sweep's cache-missed jobs, all under one
// critical section so an anchor group submitted together is granted
// together — the invariant that keeps each training on exactly one
// worker. Jobs already pending (from any sweep) are joined, not
// duplicated.
func (f *fleet) enqueue(keys *sweep.KeySpace, recCache int, items []enqueueItem) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ck := keys.ConfigKey()
	queued := false
	for _, it := range items {
		if fj, ok := f.jobs[it.key]; ok {
			fj.waiters = append(fj.waiters, it.w)
			continue
		}
		fj := &fleetJob{key: it.key, job: it.job, waiters: []waiter{it.w}}
		f.jobs[it.key] = fj
		anchor := keys.AnchorKey(it.job)
		gkey := ck + "\x00" + anchor
		g := f.open[gkey]
		if g == nil {
			g = &leaseGroup{gkey: gkey, keys: keys, recCache: recCache, anchor: anchor}
			f.open[gkey] = g
			f.queue = append(f.queue, g)
			queued = true
		}
		g.jobs = append(g.jobs, fj)
	}
	if queued {
		f.wake()
	}
}

// runSweepFleet dispatches one sweep through the lease queue: jobs the
// coordinator's cache already answers complete locally (a warm re-run
// never touches a worker and keeps executed=0 semantics); the rest are
// grouped by anchor and granted to workers, and this goroutine waits
// for the last completion callback.
func (s *Server) runSweepFleet(r *sweepRun) {
	defer s.wg.Done()
	f := s.fleetState

	complete := s.completer(r)
	// Only this goroutine counts segment hits and corrupt entries: a
	// JobDone carries neither.
	var segmentHits, corrupt int
	var misses []enqueueItem
	for i, job := range r.jobs {
		start := time.Now()
		if err := job.Validate(); err != nil {
			complete(sweep.JobDone{Index: i, Job: job, Source: sweep.SourceMemory, Err: err})
			continue
		}
		key := r.plan.Key(i)
		// The columnar layer answers first: one O(1) in-memory lookup
		// against segments synced by workers (or sealed by local runs)
		// instead of a JSON decode per job.
		if out, ok := s.segments.Get(key); ok {
			segmentHits++
			complete(sweep.JobDone{Index: i, Job: job, Key: key, Outcome: out,
				Source: sweep.SourceDisk, Elapsed: time.Since(start)})
			continue
		}
		out, st := s.cache.Load(key)
		switch st {
		case store.Hit:
			complete(sweep.JobDone{Index: i, Job: job, Key: key, Outcome: out,
				Source: sweep.SourceDisk, Elapsed: time.Since(start)})
			continue
		case store.Corrupt:
			s.metrics.corruptEntries.Add(1)
			corrupt++
		}
		misses = append(misses, enqueueItem{job: job, key: key, w: waiter{index: i, cb: complete}})
	}
	if len(misses) > 0 {
		f.enqueue(r.plan.Space(), r.recCache, misses)
	}
	if len(r.jobs) > 0 {
		<-r.all
	}
	// Phase time accrues on the workers that ran the leases; their spans
	// (imported at lease completion) carry the breakdown instead.
	r.finish(corrupt, segmentHits, nil, errors.Join(r.errs...))
	s.metrics.sweepsCompleted.Add(1)
}

// fleetGauges is the point-in-time fleet state handed to the metrics
// renderer.
type fleetGauges struct {
	enabled      bool
	workers      int
	leasesActive int
	granted      int64
	expired      int64
	reassigned   int64
	completed    int64
	failed       int64
	perWorker    []workerGauge
}

type workerGauge struct {
	id       string
	name     string
	ageS     float64
	jobsDone int64
	active   int
}

// gauges snapshots the fleet for /metrics.
func (f *fleet) gauges() fleetGauges {
	f.mu.Lock()
	defer f.mu.Unlock()
	fg := fleetGauges{
		enabled:      true,
		workers:      len(f.workers),
		leasesActive: len(f.leases),
		granted:      f.granted.Load(),
		expired:      f.expired.Load(),
		reassigned:   f.reassigned.Load(),
		completed:    f.leaseDone.Load(),
		failed:       f.failedGroups.Load(),
	}
	now := time.Now()
	for _, w := range f.workers {
		fg.perWorker = append(fg.perWorker, workerGauge{
			id:       w.id,
			name:     w.name,
			ageS:     now.Sub(w.lastSeen).Seconds(),
			jobsDone: w.jobsDone,
			active:   w.active,
		})
	}
	sort.Slice(fg.perWorker, func(i, j int) bool { return fg.perWorker[i].id < fg.perWorker[j].id })
	return fg
}
