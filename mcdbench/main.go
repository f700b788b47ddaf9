// Command mcdbench is the repository benchmark: three seeded workloads
// that drive the sweep engine and the sweep service through their public
// APIs and report what their users wait for, plus a traced run that
// re-executes the same work one layer call at a time and accounts the
// traced wall to the layers.
//
//	bash mcdbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this module into .bench_build (the build cache and
// temporary files stay there too) and runs it from the repository root.
// Stores and caches go under .bench_build/work-* and are removed on exit.
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//   - cold-paper-grid: a paper-shaped grid (baseline, single-clock,
//     on-line, off-line, L+F and global-DVS at the calibrated delta) from
//     empty result, artifact and stream stores, as `mcdsweep run` does.
//     Closed loop, one Engine.Run with 2 workers. Stresses training
//     (profiler, trace, shaker, threshold, edit) and every store write.
//   - warm-replay-grid: single-clock MHz and on-line aggressiveness
//     ladders plus off-line and L+F delta sweeps over warm artifact and
//     stream stores and a cold result cache. Closed loop, one Engine.Run
//     with 2 workers. Stresses lockstep simulation (isa, sim, control,
//     edit lanes), store reads and replanning; bypasses training.
//   - serve-restart: a fresh mcdserved server over a warm result cache,
//     two closed-loop serve.Clients each submitting distinct, overlapping
//     sub-manifests, following each to its done line and fetching
//     /results. Stresses admission, streaming, result-store reads and
//     merge; bypasses the simulator and training.
//
// The seed sets the manifest seed (synchronizer jitter) and which delta,
// MHz and aggressiveness points, sub-manifests and orders are drawn, from
// fixed ranges with fixed counts. Seed 424242 (heldOutSeed) is held out:
// it was not used while tuning the benchmark.
//
// With --trace 0 the result line carries the end-to-end metrics, measured
// with tracing off; with --trace 1 it carries the per-layer metrics of
// the traced run (see metrics.go). Every run checks its outputs: merged
// result bytes against the digest recorded for the (workload, seed) in
// digests.go (or, for an unrecorded seed, against the run's first
// repetition), served /results bytes against sweep.MergeBytes, and the
// traced run's profiles and outcomes against the engine's byte for byte.
// A mismatch prints the result with "correct": false and exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/sweep"
	"repro/internal/workload"
)

// setupRuns is how many times each run sets up; setup_s is their median.
const setupRuns = 3

func main() {
	name := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "mcdbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	code, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdbench:", err)
	}
	os.Exit(code)
}

// run executes one benchmark run and prints its result; it returns the
// exit code (0 correct, 1 output check failed, 2 could not run).
func run(name string, seed int64, measure time.Duration, traceOn bool) (int, error) {
	if err := checkSizeStable(name, seed); err != nil {
		return 2, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 2, err
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return 2, err
	}
	work, _ = filepath.Abs(work)
	defer removeAll(work)

	// The engine reads the process-wide suite; build it before timing
	// (each set-up rebuilds its own copy, see setup).
	workload.Suite()

	var setups []float64
	var p *prepared
	c := &checks{want: recordedDigests[digestKey(name, seed)]}
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		pi, err := setup(name, seed, filepath.Join(work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return 2, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		settle()
		if name == wServe {
			c.digest("warm grid", pi.gridDigest)
		}
		if p != nil {
			removeAll(p.dir)
		}
		p = pi
	}

	var reps []*rep
	var tr []*traced
	start := time.Now()
	for len(reps) == 0 || time.Since(start) < measure {
		var r *rep
		if name == wServe {
			r, err = serveRep(p, nil)
		} else {
			r, err = engineRep(p, work)
		}
		if err != nil {
			return 2, err
		}
		c.rep(r)
		if name != wServe {
			c.digest("merged results", r.digest)
		}
		reps = append(reps, r)
		if traceOn {
			t, err := tracedOnce(p, r, work)
			if err != nil {
				return 2, err
			}
			c.attempted++
			if len(t.problems) > 0 {
				c.failed++
				c.problems = append(c.problems, t.problems...)
			}
			tr = append(tr, t)
		}
		// Only the first repetition's results feed the simulated figures;
		// dropping the others' keeps the heap, and so peak_rss_mb, from
		// growing with the number of repetitions a run makes.
		if len(reps) > 1 {
			r.rows = nil
		}
		removeAll(r.dir)
		if name != wServe {
			settle()
		}
	}

	for _, pr := range c.problems {
		fmt.Fprintln(os.Stderr, "mcdbench: check failed:", pr)
	}
	fmt.Printf("workload %s seed %d: %d set-ups, %d repetitions, %d traced runs\n", name, seed, len(setups), len(reps), len(tr))
	fmt.Printf("digest %s %s\n", digestKey(name, seed), c.seen)
	res := &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed}
	var values map[string]float64
	table := endToEnd
	if traceOn {
		table = perLayer
		values = layerValues(reps, tr, c)
		printShares(tr[0])
	} else {
		values = endToEndValues(setups, reps)
	}
	if err := report(os.Stdout, table, values, res); err != nil {
		return 2, err
	}
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// tracedOnce makes the traced run matching one untraced repetition.
func tracedOnce(p *prepared, u *rep, work string) (*traced, error) {
	if p.in.workload == wServe {
		return tracedServe(p)
	}
	return tracedRun(p, u, work)
}

// tracedServe is serve-restart's traced run: one server lifetime with
// the clients' sweeps issued one at a time, then the result-store reads
// behind them re-executed through the store's public functions: a point
// lookup per job and MergeBytes per sweep.
func tracedServe(p *prepared) (*traced, error) {
	t := &traced{sp: newSpans()}
	var r *rep
	var err error
	start := time.Now()
	t.sp.time(rootSpan, func() {
		if r, err = serveRep(p, t.sp); err != nil {
			return
		}
		c := &sweep.Cache{Dir: p.dir}
		for i, js := range p.subJobs {
			for k, jobs := range js {
				cfg := p.in.clients[i][k].Config()
				for _, j := range jobs {
					key := sweep.Key(cfg, j)
					var ok bool
					t.sp.time("sweep.cache_get", func() { _, ok = c.Get(key) })
					if !ok {
						t.problems = append(t.problems, fmt.Sprintf("cache lookup %.12s missed", key))
					}
				}
				var b []byte
				var merr error
				t.sp.time("sweep.merge", func() { b, merr = sweep.MergeBytes(cfg, jobs, c) })
				if merr != nil || string(b) != string(p.subMerged[i][k]) {
					t.problems = append(t.problems, fmt.Sprintf("client %d sweep %d: traced merge differs", i, k))
				}
			}
		}
	})
	t.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	t.serve = r
	t.problems = append(t.problems, r.problems...)
	return t, nil
}

// checks accumulates a run's failure accounting.
type checks struct {
	attempted, failed int
	problems          []string
	// want is the recorded digest for this (workload, seed), or empty;
	// seen is the first digest observed, the reference when none is
	// recorded.
	want, seen string
}

func (c *checks) rep(r *rep) {
	c.attempted += r.attempted
	c.failed += r.failed
	c.problems = append(c.problems, r.problems...)
}

// digest checks one merged-results digest against the recorded one, and
// every later one against the first.
func (c *checks) digest(what, d string) {
	c.attempted++
	if c.seen == "" {
		c.seen = d
	}
	switch {
	case d == "":
		c.failed++
		c.problems = append(c.problems, what+": no digest")
	case c.want != "" && d != c.want:
		c.failed++
		c.problems = append(c.problems, fmt.Sprintf("%s: digest %.16s, recorded %.16s", what, d, c.want))
	case d != c.seen:
		c.failed++
		c.problems = append(c.problems, fmt.Sprintf("%s: digest %.16s differs from the run's first %.16s", what, d, c.seen))
	}
}

func digestKey(name string, seed int64) string { return fmt.Sprintf("%s/%d", name, seed) }

// checkSizeStable checks the workload's promise that its size does not
// depend on the seed, against the held-out seed's size.
func checkSizeStable(name string, seed int64) error {
	a, err := generate(name, seed)
	if err != nil {
		return err
	}
	b, err := generate(name, heldOutSeed)
	if err != nil {
		return err
	}
	sa, err := sizeOf(a)
	if err != nil {
		return err
	}
	sb, err := sizeOf(b)
	if err != nil {
		return err
	}
	if sa != sb {
		return fmt.Errorf("workload %s: seed %d gives %+v, seed %d gives %+v", name, seed, sa, heldOutSeed, sb)
	}
	return nil
}

// endToEndValues computes the end-to-end metrics from the set-ups and the
// untraced repetitions. A sweep is one request and everything it
// delivers: the grid's Engine.Run, or one served sweep from submit to
// its /results.
func endToEndValues(setups []float64, reps []*rep) map[string]float64 {
	var walls, rates, firsts, p50s, tails []float64
	var pct float64
	for _, r := range reps {
		for _, sw := range r.sweeps {
			walls = append(walls, sw.wall.Seconds())
			rates = append(rates, float64(sw.instrs)/sw.wall.Seconds()/1e6)
		}
		firsts = append(firsts, ms(r.first))
		// A repetition's job outcomes arrive in bursts (a lockstep group,
		// a sweep's events), so pooling them would let the slowest
		// repetition's last burst set the tail: take each repetition's
		// median and tail, and report their medians.
		lat := durationsMS(r.latencies)
		var t float64
		t, pct = tail(lat)
		p50s, tails = append(p50s, median(lat)), append(tails, t)
	}
	fmt.Printf("sweeps: %d, median wall %.6f s; result latency: %d outcomes per repetition, tail is p%g, medians over %d repetitions\n",
		len(walls), median(walls), len(reps[0].latencies), pct, len(reps))
	return map[string]float64{
		"setup_s":                median(setups),
		"wall_s":                 median(walls),
		"first_result_ms":        median(firsts),
		"result_latency_p50_ms":  median(p50s),
		"result_latency_tail_ms": median(tails),
		"sim_minstr_per_s":       median(rates),
		"peak_rss_mb":            peakRSSMB(),
	}
}

// layerValues computes the per-layer metrics: medians over the traced
// runs, service call timings pooled over them, and what the untraced
// repetitions measured of the service and the runtime.
func layerValues(reps []*rep, tr []*traced, c *checks) map[string]float64 {
	runs := make([]map[string]float64, len(tr))
	var untracedWalls []float64
	for _, r := range reps {
		untracedWalls = append(untracedWalls, r.wall.Seconds())
	}
	for i, t := range tr {
		runs[i] = tracedValues(t, median(untracedWalls))
	}
	v := make(map[string]float64)
	for _, m := range perLayer {
		var xs []float64
		for _, rv := range runs {
			if x, ok := rv[m.name]; ok {
				xs = append(xs, x)
			}
		}
		if len(xs) > 0 {
			v[m.name] = median(xs)
		}
	}

	// Per-call service timings are pooled over the traced runs: one
	// server lifetime's 26 sweeps are too few samples for a tail.
	for _, name := range []string{"serve.submit", "serve.first_event", "serve.follow", "serve.results"} {
		var xs []float64
		for _, t := range tr {
			xs = append(xs, durationsMS(t.sp.samples[name])...)
		}
		v[name+"_p50_ms"] = median(xs)
		v[name+"_tail_ms"], _ = tail(xs)
	}

	var sweepLat, sweepRates, allocs, gcs, pauses []float64
	var refused int
	for _, r := range reps {
		sweepLat = append(sweepLat, durationsMS(r.sweepLat)...)
		if len(r.sweepLat) > 0 {
			sweepRates = append(sweepRates, float64(len(r.sweepLat))/r.wall.Seconds())
		}
		allocs = append(allocs, float64(r.alloc)/(1<<20))
		gcs = append(gcs, float64(r.gcCycles))
		pauses = append(pauses, ms(r.gcPause))
		refused += r.refused
	}
	v["serve.sweep_latency_p50_ms"] = median(sweepLat)
	v["serve.sweep_latency_tail_ms"], _ = tail(sweepLat)
	v["serve.sweeps_per_s"] = median(sweepRates)
	v["serve.refused"] = float64(refused)
	// Hit ratios come from a summary whose counts are exact: the engine
	// run's, or the traced server lifetime's, whose sweeps ran one at a
	// time (concurrent sweeps sharing an engine cross-attribute segment
	// hits).
	s := reps[0].sum
	if len(tr) > 0 && tr[0].serve != nil {
		s = tr[0].serve.sum
	}
	v["sweep.disk_hit_ratio"] = ratio(float64(s.DiskHits), float64(s.Jobs))
	v["sweep.segment_hit_ratio"] = ratio(float64(s.SegmentHits), float64(s.DiskHits))
	v["runtime.alloc_mb"] = median(allocs)
	v["runtime.gc_cycles"] = median(gcs)
	v["runtime.gc_pause_ms"] = median(pauses)
	v["error_ratio"] = ratio(float64(c.failed), float64(c.attempted))

	v["sim.energy_savings_pct"], v["sim.slowdown_pct"] = simFigures(reps[0].rows)
	sc := simCounts(reps[0].rows)
	v["sim.instrs"] = float64(sc.instrs)
	v["sim.sync_crossings"] = float64(sc.crossings)
	v["sim.sync_penalties"] = float64(sc.penalties)
	v["sim.mispredicts"] = float64(sc.mispredicts)
	v["sim.dl1_miss_rate"] = sc.dl1
	v["sim.l2_miss_rate"] = sc.l2
	v["sweep.executed"] = float64(s.Executed)
	v["sweep.mem_hits"] = float64(s.MemHits)
	v["sweep.disk_hits"] = float64(s.DiskHits)
	v["sweep.corrupt_entries"] = float64(s.CorruptEntries)
	return v
}

// tracedValues turns one traced run's accounting into per-layer metrics.
func tracedValues(t *traced, untracedWall float64) map[string]float64 {
	sp := t.sp
	selfMS := func(name string) float64 { return ms(sp.self[name]) }
	v := map[string]float64{
		"trace.wall_ms":         ms(t.wall),
		"sweep.unattributed_ms": selfMS(rootSpan),
		"trace_gap_pct":         100 * (t.wall.Seconds()/untracedWall - 1),
	}
	for _, name := range []string{
		"profiler.treewalk", "trace.collect", "shaker.shake", "core.encode_profile", "artifact.put",
		"isa.record", "sweep.stream_put", "sweep.cache_put", "sweep.segment_seal",
		"sim.baseline", "sim.single_clock", "sim.online", "sim.edited",
		"threshold.choose", "edit.plan", "core.replan", "artifact.load", "core.decode_profile",
		"sweep.stream_load", "sweep.cache_get", "sweep.merge",
	} {
		v[name+"_ms"] = selfMS(name)
	}
	v["isa.decode_ms"] = ms(t.decode)
	v["isa.lockstep_ns_per_lane_instr"] = t.lockstepNS
	v["bpred.lookup_ns"] = t.bpredNS
	v["cache.access_ns"] = t.cacheNS
	if d := t.d; d != nil {
		v["profiler.ns_per_instr"] = ratio(float64(sp.self["profiler.treewalk"]), float64(d.walked))
		v["trace.segments"] = float64(d.nSegments)
		v["trace.events"] = float64(d.events)
		for _, k := range []string{"baseline", "single_clock", "online", "edited"} {
			v["sim.ns_per_instr."+k] = ratio(float64(sp.self["sim."+k]), float64(d.laneInstrs[k]))
		}
	} else {
		v["profiler.ns_per_instr"], v["trace.segments"], v["trace.events"] = 0, 0, 0
		for _, k := range []string{"baseline", "single_clock", "online", "edited"} {
			v["sim.ns_per_instr."+k] = 0
		}
	}
	v["shaker.segments"] = float64(sp.calls["shaker.shake"])
	v["shaker.us_per_segment"] = ratio(float64(sp.self["shaker.shake"])/1e3, float64(sp.calls["shaker.shake"]))
	base := v["sim.ns_per_instr.baseline"]
	v["control.ns_per_instr"], v["edit.editor_ns_per_instr"] = 0, 0
	if base > 0 && v["sim.ns_per_instr.online"] > 0 {
		v["control.ns_per_instr"] = v["sim.ns_per_instr.online"] - base
	}
	if base > 0 && v["sim.ns_per_instr.edited"] > 0 {
		v["edit.editor_ns_per_instr"] = v["sim.ns_per_instr.edited"] - base
	}
	return v
}

// printShares prints each layer's self time as a share of the traced
// wall, which is their sum with sweep.unattributed.
func printShares(t *traced) {
	names := make([]string, 0, len(t.sp.self))
	var sum time.Duration
	for n, d := range t.sp.self {
		names = append(names, n)
		sum += d
	}
	sort.Slice(names, func(i, j int) bool { return t.sp.self[names[i]] > t.sp.self[names[j]] })
	fmt.Printf("traced wall %.3f ms; layer self times sum to %.3f ms\n", ms(t.wall), ms(sum))
	for _, n := range names {
		d := t.sp.self[n]
		fmt.Printf("share %-24s %12.3f ms %6.2f%% of %.3f ms (%d calls)\n", n, ms(d), 100*d.Seconds()/t.wall.Seconds(), ms(t.wall), t.sp.calls[n])
	}
}

// simTotals sums the simulated statistics of a set of results.
type simTotals struct {
	instrs, crossings, penalties, mispredicts int64
	dl1, l2                                   float64 // mean miss rates
}

func simCounts(rows []sweep.Merged) simTotals {
	var s simTotals
	for _, r := range rows {
		res := r.Outcome.Res
		s.instrs += res.Instructions
		s.crossings += res.SyncCrossings
		s.penalties += res.SyncPenalties
		s.mispredicts += res.Mispredicts
		s.dl1 += res.DL1MissRate
		s.l2 += res.L2MissRate
	}
	if n := float64(len(rows)); n > 0 {
		s.dl1 /= n
		s.l2 /= n
	}
	return s
}

// simFigures is the grid's mean L+F energy saving and slowdown against
// the MCD baseline of the same benchmark, in percent, over every L+F
// result in rows (simulated, so exact for a seed).
func simFigures(rows []sweep.Merged) (savings, slowdown float64) {
	base := make(map[string]*sweep.Outcome)
	for _, r := range rows {
		if r.Job.Policy == sweep.PolicyBaseline {
			base[r.Job.Bench] = r.Outcome
		}
	}
	var n float64
	for _, r := range rows {
		b := base[r.Job.Bench]
		if r.Job.Policy != sweep.PolicyScheme || r.Job.Scheme != lfScheme.Name || b == nil {
			continue
		}
		savings += 100 * (1 - r.Outcome.Res.EnergyPJ/b.Res.EnergyPJ)
		slowdown += 100 * (float64(r.Outcome.Res.TimePs)/float64(b.Res.TimePs) - 1)
		n++
	}
	return ratio(savings, n), ratio(slowdown, n)
}

// settle collects garbage and returns freed memory between phases, so
// each set-up and grid run starts from the same heap and the peak RSS is
// the peak of one phase, not of garbage carried over from earlier ones.
// Server lifetimes are too short to settle between.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	// Linux reports ru_maxrss in KiB.
	return float64(ru.Maxrss) / 1024
}
