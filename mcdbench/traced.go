package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/artifact"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/isa"
	"repro/internal/profiler"
	"repro/internal/shaker"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/threshold"
	"repro/internal/trace"
	"repro/internal/workload"
)

// spans is the traced run's layer accounting. Every call into a layer is
// timed from the benchmark's side of the call; a span's self time is its
// duration minus the spans opened inside it, so the self times of all
// layers plus the root's own (sweep.unattributed) add up to the root's
// duration, the traced wall. A nil *spans runs calls untimed.
type spans struct {
	stack   []frame
	self    map[string]time.Duration
	calls   map[string]int
	samples map[string][]time.Duration
}

type frame struct {
	t0    time.Time
	child time.Duration
}

func newSpans() *spans {
	return &spans{
		self:    make(map[string]time.Duration),
		calls:   make(map[string]int),
		samples: make(map[string][]time.Duration),
	}
}

// time runs f as one call into layer name.
func (s *spans) time(name string, f func()) {
	if s == nil {
		f()
		return
	}
	s.stack = append(s.stack, frame{t0: time.Now()})
	f()
	fr := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	d := time.Since(fr.t0)
	s.note(name, d, d-fr.child)
}

// add attributes an interval already measured by the caller, with no
// spans inside it, to layer name.
func (s *spans) add(name string, d time.Duration) {
	if s != nil {
		s.note(name, d, d)
	}
}

func (s *spans) note(name string, d, self time.Duration) {
	s.self[name] += self
	s.calls[name]++
	s.samples[name] = append(s.samples[name], d)
	if n := len(s.stack); n > 0 {
		s.stack[n-1].child += d
	}
}

// rootSpan names the traced run's outermost span; its self time is the
// work no layer span covers.
const rootSpan = "sweep.unattributed"

// laneKinds maps each policy to the simulator lane it opens.
var laneKinds = map[string]string{
	sweep.PolicyBaseline:    "baseline",
	sweep.PolicySingleClock: "single_clock",
	sweep.PolicyGlobal:      "single_clock",
	sweep.PolicyOnline:      "online",
	sweep.PolicyOffline:     "edited",
	sweep.PolicyScheme:      "edited",
}

// decomp re-executes an engine grid through each layer's public
// functions, one call at a time on one goroutine, resolving dependencies
// the way the engine's executor does: streams from the stream store or a
// recording walk, profiles from the artifact store or a training run,
// results by opening the policy's lane and feeding it alone. It
// implements sweep.Runtime so the policies themselves open the lanes.
type decomp struct {
	sp        *spans
	cfg       core.Config
	streams   *sweep.StreamStore
	artifacts *artifact.Store
	results   *sweep.Cache
	segments  *sweep.SegmentStore

	packed   map[string]*isa.PackedStream // by stream key
	loaded   map[string]bool              // streams that came from the store
	profiles map[string]*core.Profile     // by artifact key
	payloads map[string][]byte            // trained profiles' encodings
	outcomes map[string]*sweep.Outcome    // by job key
	rows     []sweep.Merged
	// laneInstrs counts the stream instructions fed per lane kind.
	laneInstrs map[string]int64
	// nSegments and events count the traced segments and their events;
	// walked counts the instructions the call-tree walks consumed.
	nSegments int
	events    int64
	walked    int64
	err       error
}

func newDecomp(sp *spans, cfg core.Config, storeDir, resultDir string) *decomp {
	return &decomp{
		sp:         sp,
		cfg:        cfg,
		streams:    sweep.StreamStoreFor(storeDir),
		artifacts:  sweep.ArtifactStore(storeDir),
		results:    &sweep.Cache{Dir: resultDir},
		segments:   sweep.SegmentStoreFor(resultDir),
		packed:     make(map[string]*isa.PackedStream),
		loaded:     make(map[string]bool),
		profiles:   make(map[string]*core.Profile),
		payloads:   make(map[string][]byte),
		outcomes:   make(map[string]*sweep.Outcome),
		laneInstrs: make(map[string]int64),
	}
}

func (d *decomp) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Config implements sweep.Runtime.
func (d *decomp) Config() core.Config { return d.cfg }

// Feeder implements sweep.Runtime: the stream store answers, else a
// recording walk records the stream and the store persists it.
func (d *decomp) Feeder(b *workload.Benchmark, ref bool) isa.Feeder {
	return d.stream(b, ref)
}

func (d *decomp) stream(b *workload.Benchmark, ref bool) *isa.PackedStream {
	key := sweep.StreamKey(b, ref)
	if s, ok := d.packed[key]; ok {
		return s
	}
	var s *isa.PackedStream
	var status sweep.StreamStatus
	d.sp.time("sweep.stream_load", func() { s, status = d.streams.Load(key) })
	if status == sweep.StreamHit {
		d.loaded[key] = true
	} else {
		if status == sweep.StreamCorrupt {
			d.fail(fmt.Errorf("stream %.12s is corrupt", key))
		}
		in, window := b.Train, b.TrainWindow
		if ref {
			in, window = b.Ref, b.RefWindow
		}
		d.sp.time("isa.record", func() { s = isa.RecordPackedSized(b.Prog, in, window) })
		var err error
		d.sp.time("sweep.stream_put", func() { err = d.streams.Put(key, s) })
		if err != nil {
			d.fail(err)
		}
	}
	d.packed[key] = s
	return s
}

// Plan implements sweep.Runtime like the engine's executor: the
// profile's own plan at the calibrated delta, else a replan.
func (d *decomp) Plan(prof *core.Profile, delta float64) *edit.Plan {
	if delta == 0 || delta == d.cfg.DeltaPct {
		return prof.Plan
	}
	return d.replan(prof, delta)
}

// replan is core.Replan with its two layers timed apart: slowdown
// thresholding per histogram, then plan construction. Histogram merging
// for schemes without path tracking stays in core.replan's self time.
func (d *decomp) replan(prof *core.Profile, delta float64) *edit.Plan {
	var plan *edit.Plan
	d.sp.time("core.replan", func() {
		scheme := prof.Scheme
		nodeFreqs := make(map[*calltree.Node]edit.Freqs)
		if scheme.Path {
			d.sp.time("threshold.choose", func() {
				for n, h := range prof.Hists {
					nodeFreqs[n] = toFreqs(threshold.Choose(h, delta))
				}
			})
			d.sp.time("edit.plan", func() { plan = edit.BuildPlan(prof.Tree, nodeFreqs, scheme) })
			return
		}
		merged := make(map[edit.StaticKey]*shaker.DomainHists)
		for n, h := range prof.Hists {
			k := edit.StaticKey{Kind: n.Kind, ID: n.ID}
			if prev, ok := merged[k]; ok {
				prev.Add(h)
			} else {
				merged[k] = h.Clone()
			}
		}
		staticFreqs := make(map[edit.StaticKey]edit.Freqs, len(merged))
		d.sp.time("threshold.choose", func() {
			for k, h := range merged {
				staticFreqs[k] = toFreqs(threshold.Choose(h, delta))
			}
		})
		for n := range prof.Hists {
			nodeFreqs[n] = staticFreqs[edit.StaticKey{Kind: n.Kind, ID: n.ID}]
		}
		d.sp.time("edit.plan", func() {
			plan = edit.BuildPlan(prof.Tree, nodeFreqs, scheme)
			plan.MergeStaticFreqs(staticFreqs)
		})
	})
	return plan
}

func toFreqs(f []int) edit.Freqs {
	out := make(edit.Freqs, len(f))
	for i, v := range f {
		out[i] = uint16(v)
	}
	return out
}

// profile resolves one trained profile: the artifact store, else the
// four training phases, whose product the store then persists.
func (d *decomp) profile(spec sweep.ProfileSpec) *core.Profile {
	key := spec.ArtifactKey(d.cfg)
	if p, ok := d.profiles[key]; ok {
		return p
	}
	var payload []byte
	var status artifact.Status
	d.sp.time("artifact.load", func() { payload, status = d.artifacts.Load(key, artifact.KindProfile) })
	var prof *core.Profile
	if status == artifact.Hit {
		var err error
		d.sp.time("core.decode_profile", func() { prof, err = core.DecodeProfile(payload) })
		if err != nil {
			d.fail(fmt.Errorf("artifact %.12s: %w", key, err))
			return nil
		}
		prof.Plan = d.replan(prof, d.cfg.DeltaPct)
	} else {
		prof = d.train(spec)
		var enc []byte
		var err error
		d.sp.time("core.encode_profile", func() { enc, err = core.EncodeProfile(prof) })
		if err == nil {
			d.sp.time("artifact.put", func() { err = d.artifacts.Put(key, artifact.KindProfile, enc) })
		}
		if err != nil {
			d.fail(err)
		}
		d.payloads[key] = enc
	}
	d.profiles[key] = prof
	return prof
}

// train runs core.TrainFeed's phases one call at a time: the call-tree
// walk, the full-speed collection run with every segment shaken as it
// closes, then thresholding and plan construction.
func (d *decomp) train(spec sweep.ProfileSpec) *core.Profile {
	b := workload.ByName(spec.Bench)
	scheme, _ := sweep.SchemeByName(spec.Scheme)
	src := d.stream(b, spec.OnRef)
	window := b.TrainWindow
	if spec.OnRef {
		window = b.RefWindow
	}
	var tree *calltree.Tree
	d.sp.time("profiler.treewalk", func() { tree = profiler.ProfileFeed(src, window, scheme) })
	d.walked += window

	topo := d.cfg.Sim.Topo()
	runner := shaker.NewRunner(shaker.ConfigFor(d.cfg.Shaker, topo))
	hists := make(map[*calltree.Node]*shaker.DomainHists)
	d.sp.time("trace.collect", func() {
		collector := trace.NewCollector(tree, d.cfg.MaxInstances, d.cfg.MaxEvents, func(seg *trace.Segment) {
			d.nSegments++
			d.events += int64(len(seg.Events))
			var h shaker.DomainHists
			d.sp.time("shaker.shake", func() { h = runner.Run(seg) })
			if prev, ok := hists[seg.Node]; ok {
				prev.Add(&h)
			} else {
				hists[seg.Node] = &h
			}
		})
		collector.SetTopology(topo)
		// Each segment is shaken before the callback returns, so the
		// collector may reuse its event arena.
		collector.RecycleSegments = true
		m := sim.New(d.cfg.Sim)
		m.SetTracer(collector)
		m.SetMarkerSink(collector)
		src.Feed(&isa.CountingConsumer{Inner: m, Budget: window})
		collector.Close()
	})
	prof := &core.Profile{Scheme: scheme, Tree: tree, Hists: hists}
	prof.Plan = d.replan(prof, d.cfg.DeltaPct)
	return prof
}

// job resolves one job and its dependencies, simulates it by feeding its
// policy's lane alone, and writes the outcome to the result cache.
func (d *decomp) job(j sweep.Job) *sweep.Outcome {
	key := sweep.Key(d.cfg, j)
	if out, ok := d.outcomes[key]; ok {
		return out
	}
	pol, ok := sweep.PolicyByName(j.Policy)
	lp, lane := pol.(sweep.LanePolicy)
	if !ok || !lane {
		d.fail(fmt.Errorf("%s: no lane policy", j))
		return nil
	}
	deps := pol.Deps(d.cfg, j)
	resolved := make([]sweep.Resolved, len(deps))
	for i, dep := range deps {
		if dep.Profile != nil {
			resolved[i].Profile = d.profile(*dep.Profile)
		} else {
			resolved[i].Outcome = d.job(*dep.Job)
		}
		if resolved[i].Profile == nil && resolved[i].Outcome == nil {
			return nil
		}
	}
	b := workload.ByName(j.Bench)
	src := d.stream(b, true)
	kind := laneKinds[j.Policy]
	var out *sweep.Outcome
	var err error
	d.sp.time("sim."+kind, func() {
		var ln *sweep.Lane
		if ln, err = lp.OpenLane(d, j, resolved); err != nil {
			return
		}
		cc := &isa.CountingConsumer{Inner: ln.Consumer, Budget: ln.Budget}
		src.Feed(cc)
		d.laneInstrs[kind] += cc.Seen
		out, err = ln.Finish()
	})
	if err == nil {
		d.sp.time("sweep.cache_put", func() { err = d.results.Put(key, j, out) })
	}
	if err != nil {
		d.fail(fmt.Errorf("%s: %w", j, err))
		return nil
	}
	d.outcomes[key] = out
	d.rows = append(d.rows, sweep.Merged{Key: key, Job: j, Outcome: out})
	return out
}

// runGrid resolves every job of the grid, then seals the results into
// one segment, as Engine.Run does when a batch ends.
func (d *decomp) runGrid(jobs []sweep.Job) {
	for _, j := range jobs {
		d.job(j)
	}
	var err error
	d.sp.time("sweep.segment_seal", func() { err = d.segments.Append(d.rows) })
	if err != nil {
		d.fail(err)
	}
}

// tracedRun is the traced decomposition of one engine rep: the same grid
// from the same starting stores, into fresh result (and, for a cold grid,
// artifact and stream) stores under work. It checks the decomposition
// reproduces the engine's outputs byte for byte and then takes the side
// measurements (lockstep replay, branch predictor, caches, stream decode)
// that are not part of the accounted wall.
func tracedRun(p *prepared, u *rep, work string) (*traced, error) {
	dir, err := os.MkdirTemp(work, "traced-")
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)
	storeDir := dir
	if p.in.workload == wWarm {
		storeDir = p.dir
	}
	t := &traced{sp: newSpans()}
	d := newDecomp(t.sp, p.cfg, storeDir, dir)
	start := time.Now()
	t.sp.time(rootSpan, func() { d.runGrid(p.jobs) })
	t.wall = time.Since(start)
	t.d = d
	if d.err != nil {
		t.problems = append(t.problems, d.err.Error())
		return t, nil
	}
	t.problems = append(t.problems, compareEngine(p, u, d, dir)...)
	t.side(p, d)
	return t, nil
}

// traced is one traced run's accounting and side measurements.
type traced struct {
	sp       *spans
	wall     time.Duration
	d        *decomp
	problems []string

	lockstepNS float64 // per lane instruction
	bpredNS    float64 // per lookup
	cacheNS    float64 // per access
	decode     time.Duration
	// serve is serve-restart's traced server lifetime, whose sweeps ran
	// one at a time, so their per-sweep summaries are exact.
	serve *rep
}

// compareEngine is the decomposition's output check: trained profiles
// encode to the artifact bytes the engine stored, every outcome encodes
// to the engine's cached outcome, and both result caches merge to the
// same bytes.
func compareEngine(p *prepared, u *rep, d *decomp, dir string) []string {
	var problems []string
	engArtifacts := sweep.ArtifactStore(u.dir)
	for key, enc := range d.payloads {
		got, status := engArtifacts.Load(key, artifact.KindProfile)
		if status != artifact.Hit || string(got) != string(enc) {
			problems = append(problems, fmt.Sprintf("profile %.12s differs from the engine's artifact", key))
		}
	}
	engCache := &sweep.Cache{Dir: u.dir}
	for key, out := range d.outcomes {
		want, ok := engCache.Get(key)
		if !ok {
			problems = append(problems, fmt.Sprintf("outcome %.12s missing from the engine's cache", key))
			continue
		}
		if !sameJSON(out, want) {
			problems = append(problems, fmt.Sprintf("outcome %.12s differs from the engine's", key))
		}
	}
	mine, err := sweep.MergeBytes(p.cfg, p.jobs, &sweep.Cache{Dir: dir})
	if err != nil {
		problems = append(problems, "traced merge: "+err.Error())
	} else if digest(mine) != u.digest {
		problems = append(problems, "traced merged bytes differ from the engine's")
	}
	return problems
}

func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(x) == string(y)
}

// side takes the measurements outside the accounted wall: one lockstep
// replay of the first benchmark's lanes (checked against the lanes fed
// alone), the branch predictor and L1 cache replayed over the grid's
// recorded branch and address streams, and the decode of every stream
// the traced run loaded from the store.
func (t *traced) side(p *prepared, d *decomp) {
	d.sp = nil
	if len(p.jobs) == 0 {
		return
	}
	bench := p.jobs[0].Bench
	b := workload.ByName(bench)
	var lanes []isa.StreamLane
	var finish []func() (*sweep.Outcome, error)
	var keys []string
	for _, j := range p.jobs {
		if j.Bench != bench {
			continue
		}
		pol, _ := sweep.PolicyByName(j.Policy)
		lp := pol.(sweep.LanePolicy)
		deps := pol.Deps(d.cfg, j)
		resolved := make([]sweep.Resolved, len(deps))
		for i, dep := range deps {
			if dep.Profile != nil {
				resolved[i].Profile = d.profiles[dep.Profile.ArtifactKey(d.cfg)]
			} else {
				resolved[i].Outcome = d.outcomes[sweep.Key(d.cfg, *dep.Job)]
			}
		}
		ln, err := lp.OpenLane(d, j, resolved)
		if err != nil {
			t.problems = append(t.problems, fmt.Sprintf("lockstep %s: %v", j, err))
			return
		}
		lanes = append(lanes, isa.StreamLane{Consumer: ln.Consumer, Budget: ln.Budget})
		finish = append(finish, ln.Finish)
		keys = append(keys, sweep.Key(d.cfg, j))
	}
	src := d.stream(b, true)
	start := time.Now()
	src.FeedLockstep(lanes)
	outs := make([]*sweep.Outcome, len(finish))
	for i, f := range finish {
		outs[i], _ = f()
	}
	el := time.Since(start)
	var seen int64
	for i, l := range lanes {
		seen += l.Seen
		if !sameJSON(outs[i], d.outcomes[keys[i]]) {
			t.problems = append(t.problems, fmt.Sprintf("lockstep outcome %.12s differs from the lane fed alone", keys[i]))
		}
	}
	t.lockstepNS = ratio(float64(el.Nanoseconds()), float64(seen))

	// Branch and address streams of every reference stream in the grid.
	var pcs []uint32
	var taken []bool
	var addrs []uint32
	done := make(map[string]bool)
	for _, j := range p.jobs {
		if done[j.Bench] {
			continue
		}
		done[j.Bench] = true
		jb := workload.ByName(j.Bench)
		c := &extractor{}
		d.stream(jb, true).Feed(&isa.CountingConsumer{Inner: c, Budget: jb.RefWindow})
		pcs, taken, addrs = append(pcs, c.pcs...), append(taken, c.taken...), append(addrs, c.addrs...)
	}
	bp := bpred.New(bpred.DefaultConfig())
	start = time.Now()
	for i, pc := range pcs {
		bp.Lookup(pc, taken[i])
	}
	t.bpredNS = ratio(float64(time.Since(start).Nanoseconds()), float64(len(pcs)))
	l1 := cache.New(cache.L1Config())
	start = time.Now()
	for _, a := range addrs {
		l1.Access(a)
	}
	t.cacheNS = ratio(float64(time.Since(start).Nanoseconds()), float64(len(addrs)))

	for key, s := range d.packed {
		if !d.loaded[key] {
			continue
		}
		enc := isa.EncodePacked(s)
		start = time.Now()
		_, err := isa.DecodePacked(enc)
		t.decode += time.Since(start)
		if err != nil {
			t.problems = append(t.problems, fmt.Sprintf("stream %.12s: %v", key, err))
		}
	}
}

// extractor collects the branch outcomes and memory addresses of a
// stream.
type extractor struct {
	pcs   []uint32
	taken []bool
	addrs []uint32
}

func (e *extractor) Instr(ins *isa.Instr) bool {
	switch ins.Class {
	case isa.Branch:
		e.pcs = append(e.pcs, ins.PC)
		e.taken = append(e.taken, ins.Taken)
	case isa.Load, isa.Store:
		e.addrs = append(e.addrs, ins.Addr)
	}
	return true
}

func (e *extractor) Marker(isa.Marker) bool { return true }
