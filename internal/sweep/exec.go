package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

// executor is the engine's Runtime — the configuration, replayable
// streams and replanning a policy's OpenLane uses — and owns the
// trained-profile layers that profile dependencies resolve through.
// Training (phases one and two) is delta-independent and by far the
// most expensive part of a profile-driven job, so trained profiles
// resolve through two layers keyed by their content-addressed artifact
// key: an in-process memo with per-key singleflight, then the engine's
// persistent artifact store — a threshold sweep trains once and replans
// cheaply per delta point, even when the points run concurrently, and a
// fleet of processes sharing one store directory trains once total.
//
// The executor also keeps a small LRU of decoded packed streams: every
// lockstep unit of a grid replays its benchmark's reference stream, and
// regenerating it costs roughly a third of each run. The cache is
// bounded (a packed stream is ~13 B/instruction), and replay is
// item-for-item identical to a generating walk, so outcomes — and
// therefore cache keys and report bytes — are unchanged.
type executor struct {
	eng *Engine

	mu       sync.Mutex
	profiles map[string]*profFlight // keyed by artifact key

	smu      sync.Mutex
	streams  map[string]*streamFlight
	lru      []string // keys, least recent first
	reserved int      // extra stream slots claimed by running batches
}

type profFlight struct {
	done chan struct{}
	prof *core.Profile
}

type streamFlight struct {
	done     chan struct{}
	rec      *isa.PackedStream
	recorded bool
}

// maxStreams bounds the decoded packed streams held in memory. The
// base bound is the engine's RecordingCache knob, defaulting to worker
// count plus slack: workers process units benchmark-major, so at most
// one stream per worker is typically live, and the slack covers the
// train/ref pair a training touches. Executing waves additionally
// reserve the slots they replay (reserveStreams), so a lockstep unit
// can never have its own streams evicted under it by concurrent units.
// Streams still being resolved are never evicted — eviction mid-walk
// would make concurrent jobs re-record the same stream — so momentary
// occupancy can exceed the bound by the number of in-flight
// resolutions, which the worker pool already caps.
func (x *executor) maxStreams() int {
	base := x.eng.RecordingCache
	if base <= 0 {
		w := x.eng.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		base = w + 2
	}
	return base + x.reserved
}

// reserveStreams adjusts the wave reservation (delta may be negative);
// callers bracket each executing wave with a matching pair.
func (x *executor) reserveStreams(delta int) {
	x.smu.Lock()
	x.reserved += delta
	x.smu.Unlock()
}

func newExecutor(e *Engine) *executor {
	return &executor{
		eng:      e,
		profiles: make(map[string]*profFlight),
		streams:  make(map[string]*streamFlight),
	}
}

// Config returns the engine configuration (Runtime).
func (x *executor) Config() core.Config { return x.eng.Cfg }

// Feeder returns a replayable stream for one benchmark input, loading
// or recording it on first use (Runtime). Concurrent requests for the
// same stream share one resolution.
func (x *executor) Feeder(b *workload.Benchmark, ref bool) isa.Feeder {
	return x.packed(b, ref)
}

// packed is Feeder with the concrete packed-stream type, which
// lockstep replay needs.
func (x *executor) packed(b *workload.Benchmark, ref bool) *isa.PackedStream {
	in, window := b.Train, b.TrainWindow
	if ref {
		in, window = b.Ref, b.RefWindow
	}
	key := b.Name() + "\x00" + in.Name
	x.smu.Lock()
	if f, ok := x.streams[key]; ok {
		// Refresh LRU position.
		for i, k := range x.lru {
			if k == key {
				x.lru = append(append(x.lru[:i:i], x.lru[i+1:]...), key)
				break
			}
		}
		x.smu.Unlock()
		<-f.done
		return f.rec
	}
	f := &streamFlight{done: make(chan struct{})}
	x.streams[key] = f
	x.lru = append(x.lru, key)
	if limit := x.maxStreams(); len(x.lru) > limit {
		// Evict the least recent resolved stream; skip in-flight ones.
		for i := 0; i < len(x.lru); i++ {
			k := x.lru[i]
			if e, ok := x.streams[k]; ok && e.recorded {
				x.lru = append(x.lru[:i:i], x.lru[i+1:]...)
				delete(x.streams, k)
				break
			}
		}
	}
	x.smu.Unlock()

	f.rec = x.resolveStream(b, in, window, ref)
	x.smu.Lock()
	f.recorded = true
	x.smu.Unlock()
	close(f.done)
	return f.rec
}

// resolveStream materializes one benchmark input's packed stream: the
// on-disk stream store when the engine has one (corrupt entries are
// counted and treated as misses), else a fresh generating walk, which
// is then persisted so the next cold process loads instead of walking.
func (x *executor) resolveStream(b *workload.Benchmark, in isa.Input, window int64, ref bool) *isa.PackedStream {
	start := time.Now()
	st, key := x.eng.Streams, "" // no key without a store
	if st != nil {
		key = StreamKey(b, ref)
		s, status := st.Load(key)
		switch status {
		case store.Hit:
			x.eng.note(evStreamHit, time.Since(start), obs.Span{Key: key, Bench: b.Name()})
			return s
		case store.Corrupt:
			x.eng.noteCorrupt("streams", key)
		}
	}
	s := isa.RecordPackedSized(b.Prog, in, window)
	if st != nil {
		if err := st.Put(key, s); err != nil {
			x.eng.warnPersist(err)
		}
	}
	x.eng.note(evStreamRecord, time.Since(start), obs.Span{Key: key, Bench: b.Name()})
	return s
}

// profile resolves one trained profile: in-process memo (with per-key
// singleflight), then the persistent artifact store, then training —
// which persists the new artifact so sibling processes sharing the
// store directory never retrain it. It is a profile batch of one spec.
func (x *executor) profile(spec ProfileSpec) (*core.Profile, error) {
	if workload.ByName(spec.Bench) == nil {
		return nil, fmt.Errorf("unknown benchmark %q", spec.Bench)
	}
	if _, ok := SchemeByName(spec.Scheme); !ok {
		return nil, fmt.Errorf("unknown context scheme %q", spec.Scheme)
	}
	key := x.eng.keys.ArtifactKey(spec)
	start := time.Now()
	claimed := x.profileBatch([]ProfileSpec{spec}) > 0
	x.mu.Lock()
	f := x.profiles[key]
	x.mu.Unlock()
	<-f.done
	if !claimed {
		x.eng.note(evProfileMemo, time.Since(start), obs.Span{Key: key, Bench: spec.Bench})
	}
	return f.prof, nil
}

// loadStored resolves a profile from the artifact store, replanning at
// the engine's calibrated delta; nil means miss (or counted corruption).
func (x *executor) loadStored(key string) *core.Profile {
	st := x.eng.Artifacts
	if st == nil {
		return nil
	}
	payload, status := st.Load(key, artifact.KindProfile)
	switch status {
	case store.Hit:
		prof, err := core.DecodeProfile(payload)
		if err == nil {
			// The stored state is delta-independent; rebuild the plan
			// at this engine's calibrated delta.
			prof.Plan = core.Replan(prof, x.eng.Cfg.DeltaPct)
			return prof
		}
		x.eng.noteCorrupt("artifacts", key)
	case store.Corrupt:
		x.eng.noteCorrupt("artifacts", key)
	}
	return nil
}

// persistProfile stores a freshly trained profile. Training already
// succeeded; a persistence failure must not throw that work away, so
// the profile stays memoized in process and the engine warns once.
func (x *executor) persistProfile(key string, prof *core.Profile) {
	st := x.eng.Artifacts
	if st == nil {
		return
	}
	payload, err := core.EncodeProfile(prof)
	if err == nil {
		err = st.Put(key, artifact.KindProfile, payload)
	}
	if err != nil {
		x.eng.warnPersist(err)
	}
}

// profileBatch resolves several trained profiles at once, batching the
// trainings that miss every cache layer: specs sharing one training
// stream (benchmark, input) train in a single multi-scheme pass
// (core.TrainFeedBatch) that shares the phase-2 collection run and the
// shake work across schemes, producing byte-identical artifacts to
// spec-by-spec training; a single spec trains through core.TrainFeed.
// Stored specs load from the artifact store, specs already memoized or
// in flight are left to their owner, and invalid specs (unknown
// benchmark or scheme) are skipped so x.profile surfaces their error.
// It returns how many specs this call claimed, all of which are
// resolved on return.
func (x *executor) profileBatch(specs []ProfileSpec) int {
	type claim struct {
		spec ProfileSpec
		key  string
		f    *profFlight
		b    *workload.Benchmark
	}
	var mine []claim
	x.mu.Lock()
	for _, spec := range specs {
		b := workload.ByName(spec.Bench)
		if _, ok := SchemeByName(spec.Scheme); b == nil || !ok {
			continue
		}
		key := x.eng.keys.ArtifactKey(spec)
		if _, exists := x.profiles[key]; exists {
			continue
		}
		f := &profFlight{done: make(chan struct{})}
		x.profiles[key] = f
		mine = append(mine, claim{spec, key, f, b})
	}
	x.mu.Unlock()

	// Serve claims from the artifact store; group the rest by training
	// stream.
	groups := make(map[string][]int)
	var order []string
	for i := range mine {
		c := &mine[i]
		t0 := time.Now()
		if prof := x.loadStored(c.key); prof != nil {
			x.eng.note(evProfileArtifact, time.Since(t0), obs.Span{Key: c.key, Bench: c.spec.Bench})
			c.f.prof = prof
			close(c.f.done)
			continue
		}
		gk := c.spec.Bench
		if c.spec.OnRef {
			gk += "\x00ref"
		}
		if _, ok := groups[gk]; !ok {
			order = append(order, gk)
		}
		groups[gk] = append(groups[gk], i)
	}

	for _, gk := range order {
		idx := groups[gk]
		first := &mine[idx[0]]
		schemes := make([]calltree.Scheme, len(idx))
		for k, i := range idx {
			schemes[k], _ = SchemeByName(mine[i].spec.Scheme)
		}
		_, window := first.spec.inputWindow(first.b)
		feed := x.Feeder(first.b, first.spec.OnRef)
		cfg := x.eng.Cfg
		sink := &phaseSink{e: x.eng, key: first.key, bench: first.spec.Bench}
		cfg.Observe = sink
		t0 := time.Now()
		profs := core.TrainFeedBatch(cfg, feed, window, schemes)
		d := time.Since(t0)
		sink.finish(d)
		for k, i := range idx {
			c := &mine[i]
			c.f.prof = profs[k]
			x.persistProfile(c.key, profs[k])
			// Each spec's profile span carries the shared pass duration:
			// the schemes trained together, none resolved faster alone.
			x.eng.note(evProfileTrained, d, obs.Span{Key: c.key, Bench: c.spec.Bench})
			close(c.f.done)
		}
	}
	return len(mine)
}

// Plan returns the edit plan of a profile at the job's delta (Runtime),
// replanning from the memoized shaken histograms when the delta differs
// from the configuration's.
func (x *executor) Plan(prof *core.Profile, delta float64) *edit.Plan {
	if delta == 0 || delta == x.eng.Cfg.DeltaPct {
		return prof.Plan
	}
	return core.Replan(prof, delta)
}
