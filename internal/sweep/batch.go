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

// Batched execution. Every job executes as a lane of a lockstep unit.
// A policy grid is anchor-shaped: most jobs are one budgeted pass over
// the same benchmark's reference stream under different machine
// configurations. planBatches groups jobs by that (benchmark, input,
// window) anchor and splits each anchor into up to two lockstep units —
// the jobs that can run at once, and the jobs bound to trained
// profiles — so ready lanes never wait behind training. runGroup
// resolves a unit by opening one Lane per job and stepping all of them
// in lockstep from the anchor's shared decoded stream
// (isa.PackedStream.FeedLockstep), so the grid pays stream decode and
// cache traffic once per unit — at most twice per anchor — instead of
// once per job. A job resolved outside Run (Engine.Do, or a result
// dependency no unit owns) is a wave of one through the same code.
// Per-lane lockstep delivery is item-for-item identical to a sequential
// feed, so outcomes — and therefore result-cache entries, artifacts,
// and merged report bytes — do not depend on how jobs were grouped;
// TestBatchedMatchesSequential holds them to a committed golden.

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

// planBatches partitions a job list into lockstep units and returns
// the indices of jobs that fail validation, which join no unit. Each
// anchor yields a ready unit (wave-0 jobs whose policy declares no
// dependencies) and then a profile-bound unit (wave-0 jobs with
// profile dependencies, then the wave-1 jobs); a unit with no jobs is
// dropped. All of an anchor's trainings stay in its profile-bound
// unit, so they share one TrainFeedBatch pass per training stream.
// Units follow anchor first appearance, ready unit first, so
// scheduling stays deterministic and ready lanes start first.
func planBatches(cfg core.Config, jobs []Job) (units []*batchGroup, invalid []int) {
	type anchor struct{ ready, bound batchGroup }
	var order []*anchor
	byBench := make(map[string]*anchor)
	for i, j := range jobs {
		if j.Validate() != nil {
			invalid = append(invalid, i)
			continue
		}
		p, _ := PolicyByName(j.Policy)
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
	for _, a := range order {
		for _, g := range []*batchGroup{&a.ready, &a.bound} {
			if len(g.wave0)+len(g.wave1) > 0 {
				units = append(units, g)
			}
		}
	}
	return units, invalid
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
func (e *Engine) runGroup(ctx context.Context, jobs []Job, g *batchGroup, report reportFn) {
	e.runWave(ctx, jobs, g.wave0, report)
	e.runWave(ctx, jobs, g.wave1, report)
}

// reportFn delivers one finished job to Run's bookkeeping.
type reportFn func(i int, key string, out *Outcome, src Source, elapsed time.Duration, err error)

// laneJob is one job whose flight the resolving call owns.
type laneJob struct {
	idx  int // index in Run's job list (unused by Do)
	job  Job
	key  string
	f    *flight
	lane *Lane
	out  *Outcome
	src  Source
	err  error
}

// fail records a job's execution error (wrapped with the job's name).
func (o *laneJob) fail(err error) {
	o.out, o.err = nil, fmt.Errorf("sweep: %s: %w", o.job, err)
}

// claimFlight returns key's flight and whether this call now owns it:
// the first caller of a key resolves it, later callers wait on done.
func (e *Engine) claimFlight(key string) (*flight, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.flight == nil {
		e.flight = make(map[string]*flight)
	}
	if f, ok := e.flight[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	e.flight[key] = f
	return f, true
}

// runWave resolves one wave of a lockstep unit. Jobs whose flight this
// call claims resolve together through resolveOwned; jobs whose key is
// already in flight elsewhere (or duplicated within the wave) join the
// existing flight through the keyed path after the owners finish.
func (e *Engine) runWave(ctx context.Context, jobs []Job, idxs []int, report reportFn) {
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
	var owned []*laneJob
	var joined []laneJob
	for _, i := range idxs {
		key := e.keys.Key(jobs[i])
		f, mine := e.claimFlight(key)
		if !mine {
			joined = append(joined, laneJob{idx: i, job: jobs[i], key: key})
			continue
		}
		owned = append(owned, &laneJob{idx: i, job: jobs[i], key: key, f: f})
	}
	e.resolveOwned(owned, func(o *laneJob) {
		report(o.idx, o.key, o.out, o.src, time.Since(start), o.err)
	})

	// Joined jobs resolve through the keyed path: by now their flights
	// are closed (or owned by a concurrent call), so this is a memo wait.
	for _, j := range joined {
		s := time.Now()
		out, src, err := e.doKeyed(j.key, j.job)
		report(j.idx, j.key, out, src, time.Since(s), err)
	}
}

// resolveOwned resolves jobs whose flights the caller owns: each is
// answered by the columnar segment layer, then the JSON result cache
// (corrupt entries are counted and treated as misses), and the rest
// execute together as one wave. Executed outcomes are persisted and
// buffered for the next segment; every flight is published before done
// sees its job. Failed flights are dropped so a later call can retry.
func (e *Engine) resolveOwned(owned []*laneJob, done func(*laneJob)) {
	var pending []*laneJob
	for _, o := range owned {
		if out, ok := e.lookup(o.key, o.job); ok {
			o.out, o.src = out, SourceDisk
			e.publish(o)
			done(o)
			continue
		}
		o.src = SourceExecuted
		pending = append(pending, o)
	}
	if len(pending) == 0 {
		return
	}
	// The wave replays the anchor's reference stream, and profile
	// dependencies replay a training stream; reserve both stream slots
	// so concurrent units cannot thrash the stream cache mid-wave.
	x := e.executor()
	x.reserveStreams(2)
	e.executeWave(pending)
	x.reserveStreams(-2)
	for _, o := range pending {
		if o.err == nil {
			e.note(evExecuted, 0, obs.Span{})
			e.persist(o.key, o.job, o.out)
		}
		e.publish(o)
		done(o)
	}
}

// publish hands an owned flight's result to its waiters; a failed
// flight is dropped so a later call can retry (e.g. after a permission
// problem on the cache directory is fixed).
func (e *Engine) publish(o *laneJob) {
	o.f.out, o.f.src, o.f.err = o.out, o.src, o.err
	close(o.f.done)
	if o.err != nil {
		e.mu.Lock()
		delete(e.flight, o.key)
		e.mu.Unlock()
	}
}

// executeWave executes a wave's cache-missed jobs, all of one
// benchmark: resolve their dependencies, open their lanes, drive one
// lockstep replay per autoBatchWidth lanes, and finish each lane. Each
// job's outcome or error lands in its laneJob; the wave keeps going
// past per-job failures. An Engine.ExecFn override replaces dependency
// resolution and lanes alike.
func (e *Engine) executeWave(pending []*laneJob) {
	if e.ExecFn != nil {
		for _, o := range pending {
			if out, err := e.ExecFn(o.job); err != nil {
				o.fail(err)
			} else {
				o.out = out
			}
		}
		return
	}
	x := e.executor()

	// Batch-train the wave's missing profile dependencies: distinct
	// specs, grouped by training stream inside profileBatch.
	var specs []ProfileSpec
	seen := make(map[ProfileSpec]bool)
	for _, o := range pending {
		p, _ := PolicyByName(o.job.Policy)
		for _, d := range p.Deps(e.Cfg, o.job) {
			if d.Profile != nil && !seen[*d.Profile] {
				seen[*d.Profile] = true
				specs = append(specs, *d.Profile)
			}
		}
	}
	x.profileBatch(specs)

	// Resolve each job's dependencies (profiles now memoized; result
	// deps wait on their flights, usually owned by the anchor's ready
	// unit, or resolve as waves of one) and open its lane.
	var lanes []*laneJob
	for _, o := range pending {
		if err := e.openLane(o); err != nil {
			o.fail(err)
			continue
		}
		lanes = append(lanes, o)
	}
	if len(lanes) == 0 {
		return
	}

	// One lockstep replay per chunk of the shared decoded stream.
	stream := x.packed(workload.ByName(lanes[0].job.Bench), true)
	for at := 0; at < len(lanes); at += autoBatchWidth {
		chunk := lanes[at:min(at+autoBatchWidth, len(lanes))]
		sl := make([]isa.StreamLane, len(chunk))
		for k, o := range chunk {
			sl[k] = isa.StreamLane{Consumer: o.lane.Consumer, Budget: o.lane.Budget}
		}
		cs := time.Now()
		stream.FeedLockstep(sl)
		d := time.Since(cs)
		e.note(evLockstep, d, obs.Span{})
		// Every lane shares the chunk's window: the lanes stepped
		// together, so the chunk duration is each job's lockstep cost
		// and every job keeps a complete span tree.
		for _, o := range chunk {
			e.note(evSimulate, d, obs.Span{Key: o.key, Policy: o.job.Policy, Bench: o.job.Bench})
		}
	}
	for _, o := range lanes {
		if out, err := o.lane.Finish(); err != nil {
			o.fail(err)
		} else {
			o.out = out
		}
	}
}

// openLane resolves one job's declared dependencies — profiles through
// the artifact layers, results through the engine like any directly
// requested job — and opens the job's lane.
func (e *Engine) openLane(o *laneJob) error {
	x := e.executor()
	p, _ := PolicyByName(o.job.Policy)
	deps := p.Deps(e.Cfg, o.job)
	resolved := make([]Resolved, len(deps))
	for i, d := range deps {
		if d.Profile != nil {
			prof, err := x.profile(*d.Profile)
			if err != nil {
				return err
			}
			resolved[i].Profile = prof
			continue
		}
		out, _, err := e.Do(*d.Job)
		if err != nil {
			return err
		}
		resolved[i].Outcome = out
	}
	ln, err := p.OpenLane(x, o.job, resolved)
	if err != nil {
		return err
	}
	o.lane = ln
	return nil
}
