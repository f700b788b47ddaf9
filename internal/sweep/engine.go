package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// Source reports where an outcome came from.
type Source int

const (
	// SourceExecuted means the job was simulated by this call.
	SourceExecuted Source = iota
	// SourceDisk means the outcome was loaded from the persistent cache.
	SourceDisk
	// SourceMemory means the outcome was already memoized in process
	// (including waiting on a concurrent duplicate execution).
	SourceMemory
)

func (s Source) String() string {
	switch s {
	case SourceExecuted:
		return "executed"
	case SourceDisk:
		return "disk"
	default:
		return "memory"
	}
}

// Summary aggregates one batch's cache behavior. Executed and DiskHits
// count engine-wide work performed while the batch ran — including
// dependency jobs resolved inline (e.g. the global policy's off-line
// run) — so Executed is exactly the number of simulations the batch
// triggered and is zero iff the whole sweep was served from cache.
// MemHits counts batch jobs answered by the in-process memo (including
// joining an execution another job started), so the three counters can
// sum to more than Jobs when dependencies span jobs. CorruptEntries
// counts persistent entries — result-cache and artifact-store alike —
// that existed but could not be used (truncated, unreadable, stale
// schema, or stored under a mismatched key); each was treated as a miss
// and overwritten, and the first offending path was logged.
type Summary struct {
	Jobs     int `json:"jobs"`
	MemHits  int `json:"mem_hits"`
	DiskHits int `json:"disk_hits"`
	// SegmentHits counts the subset of DiskHits served from the columnar
	// segment layer (no JSON decode); every segment hit is also a disk
	// hit, so existing disk-hit accounting is unchanged by segments.
	SegmentHits int `json:"segment_hits"`
	// StreamHits counts benchmark streams loaded from the on-disk
	// packed-stream cache instead of re-recorded by a generating walk.
	StreamHits     int `json:"stream_hits,omitempty"`
	Executed       int `json:"executed"`
	Errors         int `json:"errors"`
	CorruptEntries int `json:"corrupt_entries"`
}

// String renders the summary as one log-friendly line.
func (s Summary) String() string {
	return fmt.Sprintf("jobs=%d mem_hits=%d disk_hits=%d segment_hits=%d stream_hits=%d executed=%d errors=%d corrupt_entries=%d",
		s.Jobs, s.MemHits, s.DiskHits, s.SegmentHits, s.StreamHits, s.Executed, s.Errors, s.CorruptEntries)
}

// Engine executes sweep jobs against one configuration with in-process
// memoization, optional persistent caching, and a bounded worker pool.
// All methods are safe for concurrent use.
type Engine struct {
	// Cfg is the pipeline configuration every job runs under (job
	// fields override individual knobs); it is part of every cache key.
	// It is read-only after New, which builds the engine's key space
	// from it.
	Cfg core.Config
	// Workers bounds Run's concurrency; 0 means GOMAXPROCS.
	Workers int
	// RecordingCache bounds how many decoded packed benchmark streams
	// the executor holds in memory (each is ~13 B/instruction); 0 sizes
	// it automatically from Workers. Each executing wave reserves extra
	// slots for the streams it replays, so grids never thrash the cache
	// into re-decoding or re-walking mid-unit. Set before first use.
	RecordingCache int
	// Cache, when non-nil, persists outcomes across processes.
	Cache *Cache
	// Artifacts, when non-nil, persists intermediate pipeline products
	// (trained profiles) across processes, so a fleet sharing one store
	// directory trains each profile once total and threshold sweeps
	// replan from stored histograms instead of retraining.
	Artifacts *artifact.Store
	// Segments, when non-nil, layers the columnar result store over the
	// JSON cache: lookups consult segments first (one decoded column set
	// answers thousands of keys), completed and JSON-served rows are
	// buffered per Run and sealed into one new segment when the batch
	// ends. Segments are derived data — the JSON cache remains the
	// canonical byte-identity oracle and answers whenever a segment is
	// absent or damaged.
	Segments *SegmentStore
	// Streams, when non-nil, persists recorded packed benchmark streams
	// across processes (the streams/ subdirectory of a shared cache
	// directory): a cold engine loads ~13 B/instruction entries instead
	// of re-running the generating walks. Streams are keyed by benchmark
	// spec + input only — the walk is configuration-independent — so one
	// store serves every config and topology. Corrupt entries count into
	// Summary.CorruptEntries and are rewritten from a fresh walk.
	Streams *StreamStore
	// ExecFn, when non-nil, executes each cache-missed job in place of
	// its lane: dependencies are not resolved and no stream is replayed
	// (tests use this to count executions without running the
	// simulator). Scheduling, caching and flights are unchanged.
	ExecFn func(Job) (*Outcome, error)
	// Trace, when non-nil, records span-level phase timing into a
	// bounded ring (internal/obs): one span per job plus spans for each
	// resolution phase (stream decode, profile resolve, training,
	// shaking, collection, lockstep simulation, cache writes, segment
	// seal). Off by default; spans attach at job and phase boundaries
	// only — the per-instruction simulation loops carry no tracing code
	// at all — and span data never enters result-cache, artifact,
	// stream, or engine keys (Trace is an execution knob like
	// core.Config.TrainWorkers, machine-checked by the
	// traced-vs-untraced byte-identity tests). Set before first use.
	Trace *obs.Tracer
	// Log receives the engine's structured store warnings (corrupt
	// entries, persistence failures); nil logs to obs.Default (stderr).
	// Set before first use.
	Log *obs.Logger

	keys     *KeySpace
	execOnce sync.Once
	exec     *executor

	// tally counts every engine event (note). Run reports its Summary
	// as a before/after delta, so dependency jobs are attributed to the
	// batch that triggered them, independent of which worker (or nested
	// Do) got there first; Phases reads the same tally.
	tally tally

	// segMu guards segBuf, the rows waiting to be sealed into the next
	// segment file when the current Run finishes.
	segMu  sync.Mutex
	segBuf []Merged

	mu     sync.Mutex
	flight map[string]*flight
}

// flight is a singleflight slot: the first caller of a key executes,
// concurrent callers wait on done and share the outcome.
type flight struct {
	done chan struct{}
	out  *Outcome
	src  Source
	err  error
}

// New returns an engine over cfg with no persistent cache.
func New(cfg core.Config) *Engine {
	return &Engine{Cfg: cfg, keys: NewKeySpace(cfg), flight: make(map[string]*flight)}
}

// logger resolves the engine's warning channel (obs.Default when the
// Log field is unset).
func (e *Engine) logger() *obs.Logger {
	if e.Log != nil {
		return e.Log
	}
	return obs.Default
}

// noteCorrupt records one unusable persistent entry and warns once per
// offending entry: corruption is handled as a miss, but it should never
// be silent — a recurring count points at a damaged shared directory.
func (e *Engine) noteCorrupt(storeName, key string) {
	e.note(evCorrupt, 0, obs.Span{})
	e.logger().WarnOnce(storeName+"/"+key, "corrupt cache entry, treated as a miss and rewritten",
		"store", storeName, "key", key)
}

// warnPersist reports, once per engine, that results or artifacts are
// not landing on disk (full disk, lost permission); completed work
// stays memoized in process and a later merge names any jobs that
// never persisted.
func (e *Engine) warnPersist(err error) {
	e.logger().WarnOnce("sweep:persist", "results not persisting", "err", err)
}

// executor returns the built-in policy executor, creating it on first
// use.
func (e *Engine) executor() *executor {
	e.execOnce.Do(func() {
		e.exec = newExecutor(e)
	})
	return e.exec
}

// Profile resolves one trained profile through the engine's profile
// memo and artifact store, training it if necessary. The returned
// profile's Plan is built at the engine configuration's delta; use
// core.Replan for other deltas.
func (e *Engine) Profile(spec ProfileSpec) (*core.Profile, error) {
	return e.executor().profile(spec)
}

// Do returns the outcome of one job, consulting the in-process memo,
// then the persistent cache, then executing. Concurrent calls for the
// same key share a single execution.
func (e *Engine) Do(job Job) (*Outcome, Source, error) {
	if err := job.Validate(); err != nil {
		return nil, SourceMemory, err
	}
	return e.doKeyed(e.keys.Key(job), job)
}

// doKeyed is Do after validation, for callers that already derived the
// job's key. A job whose flight this call claims resolves as a
// wave of one, through the same path as a lockstep unit's jobs.
func (e *Engine) doKeyed(key string, job Job) (*Outcome, Source, error) {
	f, mine := e.claimFlight(key)
	if !mine {
		<-f.done
		if f.err != nil {
			return nil, SourceMemory, f.err
		}
		return f.out, SourceMemory, nil
	}
	o := &laneJob{job: job, key: key, f: f}
	e.resolveOwned([]*laneJob{o}, func(*laneJob) {})
	return o.out, o.src, o.err
}

// lookup answers a key from the persistent layers: the columnar
// segment layer first, then the JSON cache. A segment hit counts as a
// disk hit too (it is one — just a cheaper decode), so disk-hit
// assertions and summaries are unaffected by whether segments exist.
// A JSON hit backfills the segment layer, so a JSON-only cache grows
// segments over one warm run; a corrupt entry is counted and treated
// as a miss.
func (e *Engine) lookup(key string, job Job) (*Outcome, bool) {
	if e.Segments != nil {
		if out, ok := e.Segments.Get(key); ok {
			e.note(evSegmentHit, 0, obs.Span{})
			return out, true
		}
	}
	if e.Cache == nil {
		return nil, false
	}
	out, status := e.Cache.Load(key)
	switch status {
	case store.Hit:
		e.note(evDiskHit, 0, obs.Span{})
		e.bufferSegRow(key, job, out)
		return out, true
	case store.Corrupt:
		e.noteCorrupt("results", key)
	}
	return nil, false
}

// persist writes one executed outcome to the result cache. The
// simulation already succeeded; a persistence failure (full disk, lost
// permission) must not throw that work away, so the outcome stays
// memoized in process and the engine warns once — a later merge names
// any jobs that never landed. Only rows the canonical JSON layer
// accepted enter the segment layer: segments must stay a strict subset
// of the oracle, never ahead of it.
func (e *Engine) persist(key string, job Job, out *Outcome) {
	if e.Cache == nil {
		return
	}
	start := time.Now()
	err := e.Cache.Put(key, job, out)
	e.note(evPersist, time.Since(start), obs.Span{Key: key, Policy: job.Policy, Bench: job.Bench, Outcome: outcomeOf(err, "written")})
	if err != nil {
		e.warnPersist(err)
		return
	}
	e.bufferSegRow(key, job, out)
}

// outcomeOf is a span outcome: ok, or "error" when err is non-nil.
func outcomeOf(err error, ok string) string {
	if err != nil {
		return "error"
	}
	return ok
}

// bufferSegRow queues one completed row for the columnar layer; Run
// seals the batch's buffered rows into one segment file when it ends.
func (e *Engine) bufferSegRow(key string, job Job, out *Outcome) {
	if e.Segments == nil {
		return
	}
	e.segMu.Lock()
	e.segBuf = append(e.segBuf, Merged{Key: key, Job: job, Outcome: out})
	e.segMu.Unlock()
}

// flushSegments seals the buffered rows into one new segment file
// (rows already indexed are skipped inside Append). Persistence
// failures warn once, like JSON cache writes: the canonical entries
// are already on disk, a missing segment only costs speed.
func (e *Engine) flushSegments() {
	if e.Segments == nil {
		return
	}
	e.segMu.Lock()
	rows := e.segBuf
	e.segBuf = nil
	e.segMu.Unlock()
	if len(rows) == 0 {
		return
	}
	start := time.Now()
	err := e.Segments.Append(rows)
	e.note(evSeal, time.Since(start), obs.Span{Outcome: outcomeOf(err, "sealed")})
	if err != nil {
		e.warnPersist(err)
	}
}

// RunOption configures one Run call.
type RunOption func(*runConfig)

type runConfig struct {
	onDone func(JobDone)
	pool   *WorkerPool
}

// WithOnDone streams per-job completions: fn is invoked once per job in
// completion order, as each finishes. Callbacks are serialized (never
// concurrent) but run on worker goroutines, so they must not block for
// long.
func WithOnDone(fn func(JobDone)) RunOption {
	return func(rc *runConfig) { rc.onDone = fn }
}

// WithPool dispatches the call's work onto a shared worker pool instead
// of per-call workers (nil, or an absent option, keeps per-call
// workers).
func WithPool(p *WorkerPool) RunOption {
	return func(rc *runConfig) { rc.pool = p }
}

// autoBatchWidth is the lockstep width — how many lanes one replay
// steps together: wide enough to cover the paper's policy grids per
// benchmark, narrow enough that the live machines' state stays modest.
const autoBatchWidth = 32

// Run resolves a batch of jobs and returns their outcomes in input
// order plus a summary of cache behavior. Individual job failures leave
// a nil outcome at that index; the joined error reports all of them.
// Options select streaming callbacks (WithOnDone) and the worker pool
// (WithPool). Every valid job executes as a lane of its anchor's
// lockstep unit (see planBatches); a job that fails validation is
// reported at once. A canceled ctx fails the waves that have not
// started with ctx.Err(); work already in flight completes and is
// cached normally.
func (e *Engine) Run(ctx context.Context, jobs []Job, opts ...RunOption) ([]*Outcome, Summary, error) {
	rc := runConfig{}
	for _, o := range opts {
		o(&rc)
	}

	outs := make([]*Outcome, len(jobs))
	srcs := make([]Source, len(jobs))
	errs := make([]error, len(jobs))
	before := e.tally.since(counts{})
	var segCorrupt0 int64
	if e.Segments != nil {
		segCorrupt0 = e.Segments.CorruptRows()
	}

	var cbMu sync.Mutex
	report := func(i int, key string, out *Outcome, src Source, elapsed time.Duration, err error) {
		outs[i], srcs[i], errs[i] = out, src, err
		e.note(evJob, elapsed, obs.Span{Key: key, Policy: jobs[i].Policy, Bench: jobs[i].Bench, Outcome: outcomeOf(err, src.String())})
		if rc.onDone != nil {
			d := JobDone{
				Index:   i,
				Job:     jobs[i],
				Key:     key,
				Outcome: out,
				Source:  src,
				Elapsed: elapsed,
				Err:     err,
			}
			cbMu.Lock()
			rc.onDone(d)
			cbMu.Unlock()
		}
	}

	units, invalid := planBatches(e.Cfg, jobs)
	for _, i := range invalid {
		report(i, "", nil, SourceMemory, 0, jobs[i].Validate())
	}

	var wg sync.WaitGroup
	if rc.pool != nil {
		for _, g := range units {
			g := g
			wg.Add(1)
			rc.pool.Submit(func() {
				defer wg.Done()
				e.runGroup(ctx, jobs, g, report)
			})
		}
	} else {
		workers := e.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(units) {
			workers = len(units)
		}
		ch := make(chan *batchGroup)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g := range ch {
					e.runGroup(ctx, jobs, g, report)
				}
			}()
		}
		for _, g := range units {
			ch <- g
		}
		close(ch)
	}
	wg.Wait()
	e.flushSegments()

	c := e.tally.since(before)
	sum := Summary{
		Jobs:           len(jobs),
		Executed:       int(c.n[evExecuted]),
		DiskHits:       int(c.n[evDiskHit] + c.n[evSegmentHit]),
		SegmentHits:    int(c.n[evSegmentHit]),
		StreamHits:     int(c.n[evStreamHit]),
		CorruptEntries: int(c.n[evCorrupt]),
	}
	if e.Segments != nil {
		sum.CorruptEntries += int(e.Segments.CorruptRows() - segCorrupt0)
	}
	for i := range jobs {
		switch {
		case errs[i] != nil:
			sum.Errors++
		case srcs[i] == SourceMemory:
			sum.MemHits++
		}
	}
	return outs, sum, errors.Join(errs...)
}

// JobDone reports one finished job to Run's WithOnDone callback.
type JobDone struct {
	// Index is the job's position in the submitted batch.
	Index int
	// Job is the batch job, as submitted.
	Job Job
	// Key is the job's content-addressed cache key under the engine
	// configuration; empty when the job failed validation.
	Key string
	// Outcome is the resolved outcome; nil when Err is non-nil.
	Outcome *Outcome
	// Source reports which layer answered: memo, disk, or execution.
	Source Source
	// Elapsed is the wall time resolution took, dependency work
	// (trainings, prerequisite jobs) included.
	Elapsed time.Duration
	// Err is the job's resolution error, if any.
	Err error
}

// Merged pairs one job with its cached outcome for merge output.
type Merged struct {
	Key     string   `json:"key"`
	Job     Job      `json:"job"`
	Outcome *Outcome `json:"outcome"`
}

// MergeBytes renders Merge's result in the one canonical serialization
// every merge surface emits — `mcdsweep merge` files and the daemon's
// results endpoint alike — so "byte-identical merged output" is an
// invariant of this function, not of call sites staying in sync.
func MergeBytes(cfg core.Config, jobs []Job, c *Cache) ([]byte, error) {
	merged, err := Merge(cfg, jobs, c)
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(merged, "", " ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Merge collects the outcomes of a full job set from the persistent
// cache, independent of which shard (or process) computed each one, and
// returns them sorted by key so the merged result of an N-way sharded
// sweep is byte-identical to an unsharded run of the same manifest. Any
// job missing from the cache is an error naming the missing work.
func Merge(cfg core.Config, jobs []Job, c *Cache) ([]Merged, error) {
	var out []Merged
	var missing []error
	seen := make(map[string]bool, len(jobs))
	ks := NewKeySpace(cfg)
	for _, j := range jobs {
		key := ks.Key(j)
		if seen[key] {
			continue
		}
		seen[key] = true
		o, ok := c.Get(key)
		if !ok {
			missing = append(missing, fmt.Errorf("sweep: merge: %s (%s) not in cache", j, key[:12]))
			continue
		}
		out = append(out, Merged{Key: key, Job: j, Outcome: o})
	}
	if len(missing) > 0 {
		return nil, errors.Join(missing...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}
