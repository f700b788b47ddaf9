package sweep

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Batched execution. A policy grid is anchor-shaped: most jobs are one
// budgeted pass over the same benchmark's reference stream under
// different machine configurations. planBatches groups jobs by that
// (benchmark, input, window) anchor and splits each anchor into up to
// two lockstep units — the jobs that can run at once, and the jobs
// bound to trained profiles — so ready lanes never wait behind
// training. runGroup resolves a unit by opening one Lane per job and
// stepping all of them in lockstep from the anchor's shared decoded
// stream (isa.PackedStream.FeedLockstep), so the grid pays stream
// decode and cache traffic once per unit — at most twice per anchor —
// instead of once per job. Per-job lockstep delivery is item-for-item
// identical to a sequential feed, so outcomes — and therefore
// result-cache entries, artifacts, and merged report bytes — are
// byte-identical to unbatched execution; the engine's memo, persistent
// caches, dedup and summary counters are shared with the sequential
// path, not forked.

// batchGroup is one lockstep unit of an anchor group: job indices that
// stream the same benchmark's reference input, split into dependency
// waves. Wave 0 jobs have no result dependencies; wave 1 jobs depend
// on other jobs (the global comparator needs its siblings' run times),
// which resolve through their flights — the anchor's ready unit owns
// most of them — before wave 1 opens its lanes.
type batchGroup struct {
	bench string
	wave0 []int
	wave1 []int
}

// planBatches partitions a job list into lockstep units and leftover
// single indices. A job joins a unit only when it validates and its
// policy opens lanes; everything else — invalid jobs report their
// validation error from the sequential path — stays single. Each
// anchor yields a ready unit (wave-0 jobs whose policy declares no
// dependencies) and then a profile-bound unit (wave-0 jobs with
// profile dependencies, then the wave-1 jobs); a unit with no jobs is
// dropped. All of an anchor's trainings stay in its profile-bound
// unit, so they share one TrainFeedBatch pass per training stream.
// Units follow anchor first appearance, ready unit first, so
// scheduling stays deterministic and ready lanes start first.
func planBatches(cfg core.Config, jobs []Job) ([]*batchGroup, []int) {
	type anchor struct{ ready, bound batchGroup }
	var singles []int
	var order []*anchor
	byBench := make(map[string]*anchor)
	for i, j := range jobs {
		if j.Validate() != nil {
			singles = append(singles, i)
			continue
		}
		p, _ := PolicyByName(j.Policy)
		if _, ok := p.(LanePolicy); !ok {
			singles = append(singles, i)
			continue
		}
		a := byBench[j.Bench]
		if a == nil {
			a = &anchor{ready: batchGroup{bench: j.Bench}, bound: batchGroup{bench: j.Bench}}
			byBench[j.Bench] = a
			order = append(order, a)
		}
		deps := p.Deps(cfg, j)
		switch {
		case len(deps) == 0:
			a.ready.wave0 = append(a.ready.wave0, i)
		case hasResultDep(deps):
			a.bound.wave1 = append(a.bound.wave1, i)
		default:
			a.bound.wave0 = append(a.bound.wave0, i)
		}
	}
	var units []*batchGroup
	for _, a := range order {
		for _, g := range []*batchGroup{&a.ready, &a.bound} {
			if len(g.wave0)+len(g.wave1) > 0 {
				units = append(units, g)
			}
		}
	}
	return units, singles
}

// hasResultDep reports whether a dependency list names another job's
// result (so the job must wait for that job's flight).
func hasResultDep(deps []Dep) bool {
	for _, d := range deps {
		if d.Job != nil {
			return true
		}
	}
	return false
}

// runGroup resolves one lockstep unit, wave by wave.
func (e *Engine) runGroup(ctx context.Context, jobs []Job, g *batchGroup, width int, report reportFn) {
	e.runWave(ctx, jobs, g.wave0, width, report)
	e.runWave(ctx, jobs, g.wave1, width, report)
}

// reportFn delivers one finished job to Run's bookkeeping.
type reportFn func(i int, key string, out *Outcome, src Source, elapsed time.Duration, err error)

// laneJob is one wave job this runner owns the flight for.
type laneJob struct {
	idx  int
	key  string
	f    *flight
	lane *Lane
	err  error
}

// runWave resolves one wave of a lockstep unit. Owned jobs — those
// whose singleflight this call claims — resolve through the persistent
// cache and then one lockstep replay; jobs whose key is already in
// flight elsewhere (or duplicated within the wave) join the existing
// flight through the ordinary keyed path after the owners finish.
func (e *Engine) runWave(ctx context.Context, jobs []Job, idxs []int, width int, report reportFn) {
	if len(idxs) == 0 {
		return
	}
	if err := ctx.Err(); err != nil {
		for _, i := range idxs {
			report(i, "", nil, SourceMemory, 0, err)
		}
		return
	}
	start := time.Now()
	x := e.executor()

	// Claim flights. Within-wave duplicates and keys already in flight
	// join later instead of racing.
	var owned []*laneJob
	var joined []int
	e.mu.Lock()
	if e.flight == nil {
		e.flight = make(map[string]*flight)
	}
	for _, i := range idxs {
		key := Key(e.Cfg, jobs[i])
		if _, ok := e.flight[key]; ok {
			joined = append(joined, i)
			continue
		}
		f := &flight{done: make(chan struct{})}
		e.flight[key] = f
		owned = append(owned, &laneJob{idx: i, key: key, f: f})
	}
	e.mu.Unlock()

	// Serve owners from the persistent cache first; the remainder
	// executes.
	var pending []*laneJob
	for _, o := range owned {
		if out, ok := e.segmentLookup(o.key); ok {
			e.finishFlight(o, out, SourceDisk)
			report(o.idx, o.key, out, SourceDisk, time.Since(start), nil)
			continue
		}
		if e.Cache != nil {
			out, status := e.Cache.Load(o.key)
			switch status {
			case LoadHit:
				e.nDisk.Add(1)
				e.bufferSegRow(o.key, jobs[o.idx], out)
				e.finishFlight(o, out, SourceDisk)
				report(o.idx, o.key, out, SourceDisk, time.Since(start), nil)
				continue
			case LoadCorrupt:
				e.noteCorrupt(e.Cache.EntryPath(o.key))
			}
		}
		pending = append(pending, o)
	}

	if len(pending) > 0 {
		// The wave replays the anchor's reference stream, and profile
		// dependencies replay a training stream; reserve both stream
		// slots so concurrent units cannot thrash the recording cache
		// mid-batch.
		x.reserveStreams(2)
		e.resolveWave(jobs, pending, width)
		x.reserveStreams(-2)
		for _, o := range pending {
			if o.err != nil {
				e.failFlight(o)
				report(o.idx, o.key, nil, SourceExecuted, time.Since(start), o.err)
				continue
			}
			out, err := o.lane.Finish()
			if err != nil {
				o.err = fmt.Errorf("sweep: %s: %w", jobs[o.idx], err)
				e.failFlight(o)
				report(o.idx, o.key, nil, SourceExecuted, time.Since(start), o.err)
				continue
			}
			e.nExecuted.Add(1)
			if e.Cache != nil {
				ps := time.Now()
				err := e.Cache.Put(o.key, jobs[o.idx], out)
				e.notePersist(o.key, jobs[o.idx], time.Since(ps), err)
				if err != nil {
					// Same contract as the sequential path: never throw
					// finished work away over a persistence failure.
					e.warnPersist(err)
				} else {
					e.bufferSegRow(o.key, jobs[o.idx], out)
				}
			}
			e.finishFlight(o, out, SourceExecuted)
			report(o.idx, o.key, out, SourceExecuted, time.Since(start), nil)
		}
	}

	// Joined jobs resolve through the keyed path: by now their flights
	// are closed (or owned by a concurrent call), so this is a memo wait.
	for _, i := range joined {
		s := time.Now()
		key := Key(e.Cfg, jobs[i])
		out, src, err := e.doKeyed(key, jobs[i])
		report(i, key, out, src, time.Since(s), err)
	}
}

// resolveWave resolves dependencies, opens lanes, and drives the wave's
// lockstep replay. Per-job failures land in laneJob.err; the batch
// keeps going for the rest.
func (e *Engine) resolveWave(jobs []Job, pending []*laneJob, width int) {
	x := e.executor()

	// Batch-train the wave's missing profile dependencies: distinct
	// specs, grouped by training stream inside profileBatch.
	var specs []ProfileSpec
	seen := make(map[ProfileSpec]bool)
	for _, o := range pending {
		p, _ := PolicyByName(jobs[o.idx].Policy)
		for _, d := range p.Deps(e.Cfg, jobs[o.idx]) {
			if d.Profile != nil && !seen[*d.Profile] {
				seen[*d.Profile] = true
				specs = append(specs, *d.Profile)
			}
		}
	}
	x.profileBatch(specs)

	// Resolve each job's dependencies (profiles now memoized; result
	// deps wait on their flights, usually owned by the anchor's ready
	// unit) and open its lane.
	var lanes []*laneJob
	for _, o := range pending {
		job := jobs[o.idx]
		p, _ := PolicyByName(job.Policy)
		lp, _ := p.(LanePolicy)
		deps := p.Deps(e.Cfg, job)
		resolved := make([]Resolved, len(deps))
		for i, d := range deps {
			if d.Profile != nil {
				prof, err := x.profile(*d.Profile)
				if err != nil {
					o.err = fmt.Errorf("sweep: %s: %w", job, err)
					break
				}
				resolved[i].Profile = prof
			} else {
				out, _, err := e.Do(*d.Job)
				if err != nil {
					o.err = fmt.Errorf("sweep: %s: %w", job, err)
					break
				}
				resolved[i].Outcome = out
			}
		}
		if o.err != nil {
			continue
		}
		ln, err := lp.OpenLane(x, job, resolved)
		if err != nil {
			o.err = fmt.Errorf("sweep: %s: %w", job, err)
			continue
		}
		o.lane = ln
		lanes = append(lanes, o)
	}
	if len(lanes) == 0 {
		return
	}

	// One lockstep replay per chunk of the shared decoded stream.
	b := workload.ByName(jobs[lanes[0].idx].Bench)
	stream := x.packed(b, true)
	for at := 0; at < len(lanes); at += width {
		hi := at + width
		if hi > len(lanes) {
			hi = len(lanes)
		}
		chunk := lanes[at:hi]
		sl := make([]isa.StreamLane, len(chunk))
		for k, o := range chunk {
			sl[k] = isa.StreamLane{Consumer: o.lane.Consumer, Budget: o.lane.Budget}
		}
		cs := time.Now()
		stream.FeedLockstep(sl)
		d := time.Since(cs)
		e.phases.simNS.Add(int64(d))
		if tr := e.Trace; tr != nil {
			// One simulate span per lane, all sharing the chunk's window:
			// the lanes stepped together, so the chunk duration is each
			// job's lockstep cost and every job keeps a complete span tree.
			for _, o := range chunk {
				tr.Emit(obs.Span{
					Key:     o.key,
					Phase:   "simulate",
					Policy:  jobs[o.idx].Policy,
					Bench:   jobs[o.idx].Bench,
					Outcome: "lockstep",
					StartNS: tr.Now() - int64(d),
					DurNS:   int64(d),
				})
			}
		}
	}
}

// finishFlight publishes an owned flight's outcome to waiters.
func (e *Engine) finishFlight(o *laneJob, out *Outcome, src Source) {
	o.f.out, o.f.src = out, src
	close(o.f.done)
}

// failFlight publishes an owned flight's error and drops it so a later
// call can retry.
func (e *Engine) failFlight(o *laneJob) {
	o.f.err = o.err
	close(o.f.done)
	e.mu.Lock()
	delete(e.flight, o.key)
	e.mu.Unlock()
}
