package serve

import (
	"fmt"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sweep"
)

// latencyBuckets are the per-policy job-latency histogram bounds in
// seconds: sub-millisecond cache hits up to minute-long trainings.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// histogram is one cumulative latency histogram (counts[i] covers
// observations <= latencyBuckets[i]; the +Inf bucket is total).
type histogram struct {
	counts [nBuckets + 1]uint64
	sum    float64
	total  uint64
}

const nBuckets = 16 // len(latencyBuckets); array-sized so histograms embed flat

func (h *histogram) observe(seconds float64) {
	for i, le := range latencyBuckets {
		if seconds <= le {
			h.counts[i]++
		}
	}
	h.counts[nBuckets]++
	h.sum += seconds
	h.total++
}

// metrics is the server's operational state, rendered as Prometheus
// text on /metrics. Job counters count batch jobs as their sweeps see
// them resolve (memo answers included); dependency executions surface
// through the engines' summaries, not here.
type metrics struct {
	start time.Time

	sweepsAccepted  atomic.Int64
	sweepsDeduped   atomic.Int64
	sweepsRejected  atomic.Int64
	sweepsCompleted atomic.Int64
	corruptEntries  atomic.Int64

	mu      sync.Mutex
	jobs    sweep.Summary         // batch-job counters, by countJob
	latency map[string]*histogram // by policy
}

func (m *metrics) uptime() time.Duration { return time.Since(m.start) }

// observe records one finished job.
func (m *metrics) observe(d sweep.JobDone) {
	m.mu.Lock()
	countJob(&m.jobs, d)
	if m.latency == nil {
		m.latency = make(map[string]*histogram)
	}
	h := m.latency[d.Job.Policy]
	if h == nil {
		h = &histogram{}
		m.latency[d.Job.Policy] = h
	}
	h.observe(d.Elapsed.Seconds())
	m.mu.Unlock()
}

// poolGauges carries the point-in-time pool and store state into
// render.
type poolGauges struct {
	queued, running, pending, capacity     int
	draining                               bool
	artifactLoads, artifactHits, artifactW int64
}

// render writes the Prometheus text exposition. Hand-rolled on purpose:
// the format is four line shapes, not worth a dependency.
func (m *metrics) render(w io.Writer, pool poolGauges, fg fleetGauges) {
	m.mu.Lock()
	jobs := m.jobs
	m.mu.Unlock()
	executed, disk, mem, errs := jobs.Executed, jobs.DiskHits, jobs.MemHits, jobs.Errors
	total := executed + disk + mem

	fmt.Fprintf(w, "# HELP mcdserved_up Whether the server is serving (1) — pairs with mcdserved_draining.\n")
	fmt.Fprintf(w, "# TYPE mcdserved_up gauge\nmcdserved_up 1\n")
	fmt.Fprintf(w, "# HELP mcdserved_draining Whether the server is draining (refusing new sweeps).\n")
	draining := 0
	if pool.draining {
		draining = 1
	}
	fmt.Fprintf(w, "# TYPE mcdserved_draining gauge\nmcdserved_draining %d\n", draining)
	fmt.Fprintf(w, "# HELP mcdserved_uptime_seconds Seconds since the server started.\n")
	fmt.Fprintf(w, "# TYPE mcdserved_uptime_seconds gauge\nmcdserved_uptime_seconds %g\n", m.uptime().Seconds())

	fmt.Fprintf(w, "# HELP mcdserved_queue_depth Jobs waiting in the shared worker pool's queue.\n")
	fmt.Fprintf(w, "# TYPE mcdserved_queue_depth gauge\nmcdserved_queue_depth %d\n", pool.queued)
	fmt.Fprintf(w, "# HELP mcdserved_inflight_jobs Jobs executing right now.\n")
	fmt.Fprintf(w, "# TYPE mcdserved_inflight_jobs gauge\nmcdserved_inflight_jobs %d\n", pool.running)
	fmt.Fprintf(w, "# HELP mcdserved_pending_jobs Admitted jobs not yet finished (the admission budget in use).\n")
	fmt.Fprintf(w, "# TYPE mcdserved_pending_jobs gauge\nmcdserved_pending_jobs %d\n", pool.pending)
	fmt.Fprintf(w, "# HELP mcdserved_queue_capacity The admission budget: submissions beyond it get 429.\n")
	fmt.Fprintf(w, "# TYPE mcdserved_queue_capacity gauge\nmcdserved_queue_capacity %d\n", pool.capacity)

	fmt.Fprintf(w, "# HELP mcdserved_jobs_total Batch jobs resolved, by answering layer.\n")
	fmt.Fprintf(w, "# TYPE mcdserved_jobs_total counter\n")
	fmt.Fprintf(w, "mcdserved_jobs_total{source=\"executed\"} %d\n", executed)
	fmt.Fprintf(w, "mcdserved_jobs_total{source=\"disk\"} %d\n", disk)
	fmt.Fprintf(w, "mcdserved_jobs_total{source=\"memory\"} %d\n", mem)
	fmt.Fprintf(w, "# HELP mcdserved_job_errors_total Jobs that failed to resolve.\n")
	fmt.Fprintf(w, "# TYPE mcdserved_job_errors_total counter\nmcdserved_job_errors_total %d\n", errs)
	fmt.Fprintf(w, "# HELP mcdserved_corrupt_entries_total Damaged persistent entries hit (treated as misses and rewritten); nonzero points at a damaged cache directory.\n")
	fmt.Fprintf(w, "# TYPE mcdserved_corrupt_entries_total counter\nmcdserved_corrupt_entries_total %d\n", m.corruptEntries.Load())

	fmt.Fprintf(w, "# HELP mcdserved_cache_hit_ratio Fraction of resolved jobs answered without execution.\n")
	fmt.Fprintf(w, "# TYPE mcdserved_cache_hit_ratio gauge\n")
	ratio := 0.0
	if total > 0 {
		ratio = float64(disk+mem) / float64(total)
	}
	fmt.Fprintf(w, "mcdserved_cache_hit_ratio %g\n", ratio)

	fmt.Fprintf(w, "# HELP mcdserved_jobs_per_second Lifetime job completion rate.\n")
	fmt.Fprintf(w, "# TYPE mcdserved_jobs_per_second gauge\n")
	rate := 0.0
	if up := m.uptime().Seconds(); up > 0 {
		rate = float64(total+errs) / up
	}
	fmt.Fprintf(w, "mcdserved_jobs_per_second %g\n", rate)

	fmt.Fprintf(w, "# HELP mcdserved_artifact_loads_total Artifact-store lookups (trained profiles).\n")
	fmt.Fprintf(w, "# TYPE mcdserved_artifact_loads_total counter\nmcdserved_artifact_loads_total %d\n", pool.artifactLoads)
	fmt.Fprintf(w, "# HELP mcdserved_artifact_hits_total Artifact-store lookups answered by a stored profile (no retraining).\n")
	fmt.Fprintf(w, "# TYPE mcdserved_artifact_hits_total counter\nmcdserved_artifact_hits_total %d\n", pool.artifactHits)
	fmt.Fprintf(w, "# HELP mcdserved_artifact_writes_total Trainings persisted to the artifact store.\n")
	fmt.Fprintf(w, "# TYPE mcdserved_artifact_writes_total counter\nmcdserved_artifact_writes_total %d\n", pool.artifactW)

	fmt.Fprintf(w, "# HELP mcdserved_sweeps_total Sweep submissions, by admission outcome.\n")
	fmt.Fprintf(w, "# TYPE mcdserved_sweeps_total counter\n")
	fmt.Fprintf(w, "mcdserved_sweeps_total{outcome=\"accepted\"} %d\n", m.sweepsAccepted.Load())
	fmt.Fprintf(w, "mcdserved_sweeps_total{outcome=\"deduped\"} %d\n", m.sweepsDeduped.Load())
	fmt.Fprintf(w, "mcdserved_sweeps_total{outcome=\"rejected\"} %d\n", m.sweepsRejected.Load())
	fmt.Fprintf(w, "# HELP mcdserved_sweeps_completed_total Sweeps run to completion.\n")
	fmt.Fprintf(w, "# TYPE mcdserved_sweeps_completed_total counter\nmcdserved_sweeps_completed_total %d\n", m.sweepsCompleted.Load())

	if fg.enabled {
		fmt.Fprintf(w, "# HELP mcdserved_fleet_workers Registered fleet workers.\n")
		fmt.Fprintf(w, "# TYPE mcdserved_fleet_workers gauge\nmcdserved_fleet_workers %d\n", fg.workers)
		fmt.Fprintf(w, "# HELP mcdserved_fleet_leases_active Leases currently granted and within their TTL.\n")
		fmt.Fprintf(w, "# TYPE mcdserved_fleet_leases_active gauge\nmcdserved_fleet_leases_active %d\n", fg.leasesActive)
		fmt.Fprintf(w, "# HELP mcdserved_fleet_leases_total Lease lifecycle events: granted, completed, expired (missed heartbeats), reassigned (requeued after expiry).\n")
		fmt.Fprintf(w, "# TYPE mcdserved_fleet_leases_total counter\n")
		fmt.Fprintf(w, "mcdserved_fleet_leases_total{event=\"granted\"} %d\n", fg.granted)
		fmt.Fprintf(w, "mcdserved_fleet_leases_total{event=\"completed\"} %d\n", fg.completed)
		fmt.Fprintf(w, "mcdserved_fleet_leases_total{event=\"expired\"} %d\n", fg.expired)
		fmt.Fprintf(w, "mcdserved_fleet_leases_total{event=\"reassigned\"} %d\n", fg.reassigned)
		fmt.Fprintf(w, "# HELP mcdserved_fleet_failed_groups_total Anchor groups failed after exhausting lease reassignment attempts.\n")
		fmt.Fprintf(w, "# TYPE mcdserved_fleet_failed_groups_total counter\nmcdserved_fleet_failed_groups_total %d\n", fg.failed)
		fmt.Fprintf(w, "# HELP mcdserved_fleet_worker_heartbeat_age_seconds Seconds since each worker was last heard from.\n")
		fmt.Fprintf(w, "# TYPE mcdserved_fleet_worker_heartbeat_age_seconds gauge\n")
		for _, wk := range fg.perWorker {
			fmt.Fprintf(w, "mcdserved_fleet_worker_heartbeat_age_seconds{worker=%q,name=%q} %g\n", wk.id, wk.name, wk.ageS)
		}
		fmt.Fprintf(w, "# HELP mcdserved_fleet_worker_jobs_total Jobs completed per worker.\n")
		fmt.Fprintf(w, "# TYPE mcdserved_fleet_worker_jobs_total counter\n")
		for _, wk := range fg.perWorker {
			fmt.Fprintf(w, "mcdserved_fleet_worker_jobs_total{worker=%q,name=%q} %d\n", wk.id, wk.name, wk.jobsDone)
		}
		fmt.Fprintf(w, "# HELP mcdserved_fleet_worker_active_leases Leases each worker currently holds.\n")
		fmt.Fprintf(w, "# TYPE mcdserved_fleet_worker_active_leases gauge\n")
		for _, wk := range fg.perWorker {
			fmt.Fprintf(w, "mcdserved_fleet_worker_active_leases{worker=%q,name=%q} %d\n", wk.id, wk.name, wk.active)
		}
	}

	fmt.Fprintf(w, "# HELP mcdserved_job_latency_seconds Per-policy job resolution latency (dependency work included).\n")
	fmt.Fprintf(w, "# TYPE mcdserved_job_latency_seconds histogram\n")
	m.mu.Lock()
	policies := make([]string, 0, len(m.latency))
	for p := range m.latency {
		policies = append(policies, p)
	}
	sort.Strings(policies)
	for _, p := range policies {
		h := m.latency[p]
		for i, le := range latencyBuckets {
			fmt.Fprintf(w, "mcdserved_job_latency_seconds_bucket{policy=%q,le=\"%g\"} %d\n", p, le, h.counts[i])
		}
		fmt.Fprintf(w, "mcdserved_job_latency_seconds_bucket{policy=%q,le=\"+Inf\"} %d\n", p, h.counts[nBuckets])
		fmt.Fprintf(w, "mcdserved_job_latency_seconds_sum{policy=%q} %g\n", p, h.sum)
		fmt.Fprintf(w, "mcdserved_job_latency_seconds_count{policy=%q} %d\n", p, h.total)
	}
	m.mu.Unlock()

	renderRuntime(w)
}

// renderRuntime appends the Go runtime section: the handful of process
// health gauges an operator correlates sweep behavior against (heap in
// use, GC pressure, goroutine count), read from runtime/metrics each
// scrape.
func renderRuntime(w io.Writer) {
	samples := []rtmetrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/total:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(samples)
	u := func(i int) uint64 {
		if samples[i].Value.Kind() == rtmetrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	fmt.Fprintf(w, "# HELP go_goroutines Goroutines that currently exist.\n")
	fmt.Fprintf(w, "# TYPE go_goroutines gauge\ngo_goroutines %d\n", u(0))
	fmt.Fprintf(w, "# HELP go_heap_objects_bytes Bytes of live heap objects plus unswept garbage.\n")
	fmt.Fprintf(w, "# TYPE go_heap_objects_bytes gauge\ngo_heap_objects_bytes %d\n", u(1))
	fmt.Fprintf(w, "# HELP go_memory_total_bytes All memory mapped by the Go runtime.\n")
	fmt.Fprintf(w, "# TYPE go_memory_total_bytes gauge\ngo_memory_total_bytes %d\n", u(2))
	fmt.Fprintf(w, "# HELP go_gc_cycles_total Completed GC cycles.\n")
	fmt.Fprintf(w, "# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n", u(3))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP go_gc_pause_seconds_total Cumulative stop-the-world GC pause.\n")
	fmt.Fprintf(w, "# TYPE go_gc_pause_seconds_total counter\ngo_gc_pause_seconds_total %g\n",
		float64(ms.PauseTotalNs)/1e9)
}
