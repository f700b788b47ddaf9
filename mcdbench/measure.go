package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// prepared is a workload after set-up: its inputs, its grid's jobs and
// the stores set-up warmed.
type prepared struct {
	in   *inputs
	cfg  core.Config
	jobs []sweep.Job
	// dir holds warm-replay-grid's artifact and stream stores, or
	// serve-restart's warm result cache; cold-paper-grid leaves it empty.
	dir string
	// gridDigest is the SHA-256 of serve-restart's warm grid merged from
	// the result cache; subJobs and subBodies are each client's
	// sub-manifests, enumerated and encoded as a tenant would submit them,
	// and subMerged their expected /results bytes.
	gridDigest string
	subJobs    [][][]sweep.Job
	subBodies  [][][]byte
	subMerged  [][][]byte
}

// setup builds the benchmark suite, generates and validates the
// workload's manifests and warms the stores the workload starts from,
// in dir.
func setup(name string, seed int64, dir string) (*prepared, error) {
	// A fresh mcdsweep or mcdserved process builds the whole suite on
	// first use; the process-wide copy the engine reads is built once
	// before timing, so rebuild here to put that cost in every set-up.
	for _, spec := range workload.Specs() {
		workload.Build(spec)
	}
	in, err := generate(name, seed)
	if err != nil {
		return nil, err
	}
	return prepare(in, dir)
}

// prepare validates a workload's inputs and warms its stores in dir.
func prepare(in *inputs, dir string) (*prepared, error) {
	name := in.workload
	jobs, err := validated(in.grid)
	if err != nil {
		return nil, err
	}
	p := &prepared{in: in, cfg: in.grid.Config(), jobs: jobs, dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	switch name {
	case wWarm:
		// Train every profile the grid needs into the artifact store,
		// recording its streams on the way; the result cache stays cold.
		eng := newEngine(p.cfg, "", dir)
		var specs []sweep.ProfileSpec
		seen := make(map[sweep.ProfileSpec]bool)
		for _, j := range jobs {
			pol, _ := sweep.PolicyByName(j.Policy)
			for _, d := range pol.Deps(p.cfg, j) {
				if d.Profile != nil && !seen[*d.Profile] {
					seen[*d.Profile] = true
					specs = append(specs, *d.Profile)
				}
			}
		}
		if err := parallel(len(specs), func(i int) error {
			_, err := eng.Profile(specs[i])
			return err
		}); err != nil {
			return nil, fmt.Errorf("warm artifacts: %w", err)
		}
	case wServe:
		eng := newEngine(p.cfg, dir, dir)
		_, sum, err := eng.Run(context.Background(), jobs)
		if err != nil || sum.Errors > 0 || sum.CorruptEntries > 0 {
			return nil, fmt.Errorf("warm result cache: %v (%s)", err, sum)
		}
		b, err := sweep.MergeBytes(p.cfg, jobs, &sweep.Cache{Dir: dir})
		if err != nil {
			return nil, err
		}
		p.gridDigest = digest(b)
		for _, c := range in.clients {
			var js [][]sweep.Job
			var bodies, merged [][]byte
			for _, m := range c {
				sj, err := validated(m)
				if err != nil {
					return nil, err
				}
				body, err := json.Marshal(m)
				if err != nil {
					return nil, err
				}
				mb, err := sweep.MergeBytes(m.Config(), sj, &sweep.Cache{Dir: dir})
				if err != nil {
					return nil, err
				}
				js, bodies, merged = append(js, sj), append(bodies, body), append(merged, mb)
			}
			p.subJobs = append(p.subJobs, js)
			p.subBodies = append(p.subBodies, bodies)
			p.subMerged = append(p.subMerged, merged)
		}
	}
	return p, nil
}

// newEngine builds an engine the way `mcdsweep run -cache` does: the
// result cache and its segment layer in resultDir, the artifact and
// stream stores in storeDir (the same directory for a plain cache).
// An empty resultDir leaves the result cache off.
func newEngine(cfg core.Config, resultDir, storeDir string) *sweep.Engine {
	eng := sweep.New(cfg)
	eng.Workers = engineWorkers
	if resultDir != "" {
		eng.Cache = &sweep.Cache{Dir: resultDir}
		eng.Segments = sweep.SegmentStoreFor(resultDir)
	}
	eng.Artifacts = sweep.ArtifactStore(storeDir)
	eng.Streams = sweep.StreamStoreFor(storeDir)
	return eng
}

// parallel runs f(0..n-1) on engineWorkers goroutines and joins errors.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < engineWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sweepWall is one request's wall and the simulated instructions of the
// results it delivered.
type sweepWall struct {
	wall   time.Duration
	instrs int64
}

// rep is one repetition of a workload's measured unit: one grid run
// (cold, warm) or one server lifetime (serve).
type rep struct {
	wall  time.Duration
	first time.Duration
	// latencies are per delivered job outcome (WithOnDone; NDJSON
	// event), from the start of the request that asked for it. sweeps
	// are the requests: the grid run, or each served sweep from submit
	// to its /results. sweepLat is submit to done per served sweep.
	latencies []time.Duration
	sweeps    []sweepWall
	sweepLat  []time.Duration
	// rows are the delivered results, for the simulated figures.
	rows []sweep.Merged
	// dir is the result cache the rep wrote (engine reps), kept for the
	// traced run's comparison; digest is its merged bytes' SHA-256.
	dir    string
	digest string

	attempted, failed, refused int
	sum                        sweep.Summary
	alloc                      uint64
	gcCycles                   uint32
	gcPause                    time.Duration
	problems                   []string
}

func (r *rep) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// memDelta records the runtime's allocation and GC work between two
// snapshots.
func (r *rep) memDelta(a, b *runtime.MemStats) {
	r.alloc = b.TotalAlloc - a.TotalAlloc
	r.gcCycles = b.NumGC - a.NumGC
	r.gcPause = time.Duration(b.PauseTotalNs - a.PauseTotalNs)
}

// engineRep runs the grid once through Engine.Run, as `mcdsweep run`
// does, into a fresh result cache under work.
func engineRep(p *prepared, work string) (*rep, error) {
	dir, err := os.MkdirTemp(work, "rep-")
	if err != nil {
		return nil, err
	}
	storeDir := dir
	if p.in.workload == wWarm {
		storeDir = p.dir
	}
	eng := newEngine(p.cfg, dir, storeDir)
	r := &rep{dir: dir, attempted: len(p.jobs) + 1}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	outs, sum, runErr := eng.Run(context.Background(), p.jobs, sweep.WithOnDone(func(sweep.JobDone) {
		r.latencies = append(r.latencies, time.Since(start))
	}))
	r.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	r.memDelta(&m0, &m1)
	r.sum = sum
	if len(r.latencies) > 0 {
		r.first = r.latencies[0]
	}
	// Job errors are counted once, from the summary; runErr joins them.
	r.failed += sum.Errors + sum.CorruptEntries
	if runErr != nil {
		r.problems = append(r.problems, "run: "+runErr.Error())
		return r, nil
	}
	for i, j := range p.jobs {
		r.rows = append(r.rows, sweep.Merged{Key: sweep.Key(p.cfg, j), Job: j, Outcome: outs[i]})
	}
	r.sweeps = []sweepWall{{r.wall, simCounts(r.rows).instrs}}
	b, err := sweep.MergeBytes(p.cfg, p.jobs, &sweep.Cache{Dir: dir})
	if err != nil {
		r.fail("merge: %v", err)
		return r, nil
	}
	r.digest = digest(b)
	return r, nil
}

// serveRep runs one server lifetime: a fresh server over the warm result
// cache, and each client submitting its sub-manifests in a closed loop,
// following each sweep to its done line and fetching /results. With sp
// non-nil the clients' sweeps run one at a time, interleaved, and every
// call is timed into sp.
func serveRep(p *prepared, sp *spans) (*rep, error) {
	srv := serve.NewServer(p.dir, engineWorkers, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: engineWorkers}
	hc := &http.Client{Transport: tr}
	url := "http://" + ln.Addr().String()

	nc := len(p.subBodies)
	results := make([][][]byte, nc)
	walls := make([][]time.Duration, nc)
	clientReps := make([]*rep, nc)
	for i := range clientReps {
		clientReps[i] = &rep{first: -1}
		results[i] = make([][]byte, len(p.subBodies[i]))
		walls[i] = make([]time.Duration, len(p.subBodies[i]))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	sweepOnce := func(i, k int) {
		c := &serve.Client{BaseURL: url, HTTP: hc}
		results[i][k], walls[i][k] = runSweep(c, p.subBodies[i][k], start, clientReps[i], sp)
	}
	if sp != nil {
		for k := 0; k < serveSweeps; k++ {
			for i := 0; i < nc; i++ {
				sweepOnce(i, k)
			}
		}
	} else {
		var wg sync.WaitGroup
		for i := 0; i < nc; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for k := range p.subBodies[i] {
					sweepOnce(i, k)
				}
			}(i)
		}
		wg.Wait()
	}
	r := &rep{wall: time.Since(start)}
	runtime.ReadMemStats(&m1)
	r.memDelta(&m0, &m1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := srv.Drain(ctx)
	serr := hs.Shutdown(ctx)
	tr.CloseIdleConnections()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	if err := errors.Join(derr, serr); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}

	first := time.Duration(-1)
	for i, cr := range clientReps {
		r.latencies = append(r.latencies, cr.latencies...)
		r.sweepLat = append(r.sweepLat, cr.sweepLat...)
		r.attempted += cr.attempted
		r.failed += cr.failed
		r.refused += cr.refused
		addSummary(&r.sum, cr.sum)
		r.problems = append(r.problems, cr.problems...)
		if cr.first >= 0 && (first < 0 || cr.first < first) {
			first = cr.first
		}
		// Output check: served bytes equal the canonical merge of the
		// same jobs over the same cache.
		for k, got := range results[i] {
			if got == nil {
				continue
			}
			if string(got) != string(p.subMerged[i][k]) {
				r.fail("client %d sweep %d: /results differ from MergeBytes", i, k)
				continue
			}
			var rows []sweep.Merged
			if err := json.Unmarshal(got, &rows); err != nil {
				r.fail("client %d sweep %d: decode /results: %v", i, k, err)
				continue
			}
			r.rows = append(r.rows, rows...)
			r.sweeps = append(r.sweeps, sweepWall{walls[i][k], simCounts(rows).instrs})
		}
	}
	r.first = first
	// Job errors were counted per event; corruption has no event.
	r.failed += r.sum.CorruptEntries
	return r, nil
}

// runSweep is one tenant request: submit, follow to done, fetch the
// merged results. It returns the /results bytes (nil on failure) and the
// time from submit to receiving them.
func runSweep(c *serve.Client, body []byte, roundStart time.Time, r *rep, sp *spans) ([]byte, time.Duration) {
	r.attempted++
	t0 := time.Now()
	var st *serve.Status
	var err error
	sp.time("serve.submit", func() { st, err = c.Submit(body) })
	if err != nil {
		var ae *serve.APIError
		if errors.As(err, &ae) && (ae.StatusCode == http.StatusTooManyRequests || ae.StatusCode == http.StatusServiceUnavailable) {
			r.refused++
		}
		r.fail("submit: %v", err)
		return nil, 0
	}
	var firstEvent time.Time
	followStart := time.Now()
	end, err := c.Follow(st.ID, 0, func(ev serve.Event) {
		now := time.Now()
		if firstEvent.IsZero() {
			firstEvent = now
		}
		if r.first < 0 || now.Sub(roundStart) < r.first {
			r.first = now.Sub(roundStart)
		}
		r.latencies = append(r.latencies, now.Sub(t0))
		if ev.Error != "" {
			r.fail("job %s: %s", ev.Job, ev.Error)
		}
	})
	done := time.Now()
	if firstEvent.IsZero() {
		firstEvent = done
	}
	sp.add("serve.first_event", firstEvent.Sub(followStart))
	sp.add("serve.follow", done.Sub(firstEvent))
	if err != nil {
		r.fail("follow %s: %v", st.ID, err)
		return nil, 0
	}
	r.sweepLat = append(r.sweepLat, done.Sub(t0))
	if end.Summary != nil {
		addSummary(&r.sum, *end.Summary)
	}
	if end.State != serve.StateComplete {
		r.fail("sweep %s ended %s: %s", st.ID, end.State, end.Error)
		return nil, 0
	}
	var res []byte
	sp.time("serve.results", func() { res, err = c.Results(st.ID) })
	if err != nil {
		r.fail("results %s: %v", st.ID, err)
		return nil, 0
	}
	return res, time.Since(t0)
}

// addSummary adds one sweep's cache counters to a total.
func addSummary(dst *sweep.Summary, s sweep.Summary) {
	dst.Jobs += s.Jobs
	dst.DiskHits += s.DiskHits
	dst.SegmentHits += s.SegmentHits
	dst.MemHits += s.MemHits
	dst.Executed += s.Executed
	dst.Errors += s.Errors
	dst.CorruptEntries += s.CorruptEntries
}

// removeAll deletes a directory tree under the work directory; a failure
// only leaves litter in .bench_build.
func removeAll(dir string) {
	if dir != "" {
		os.RemoveAll(dir)
	}
}
