package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// fakeExec returns a deterministic outcome derived from the job and
// counts executions per job key, so dedup can be asserted without
// running the simulator (mirroring internal/sweep's fake).
type fakeExec struct {
	mu    sync.Mutex
	byKey map[string]int
	gate  chan struct{} // when non-nil, executions block until closed
}

func (f *fakeExec) fn(keyOf func(sweep.Job) string) func(sweep.Job) (*sweep.Outcome, error) {
	return func(j sweep.Job) (*sweep.Outcome, error) {
		f.mu.Lock()
		if f.byKey == nil {
			f.byKey = make(map[string]int)
		}
		f.byKey[keyOf(j)]++
		gate := f.gate
		f.mu.Unlock()
		if gate != nil {
			<-gate
		}
		out := &sweep.Outcome{}
		out.Res.Instructions = int64(len(j.Bench) * 1000)
		out.Res.TimePs = int64(len(j.Policy)) * 1_000_000
		return out, nil
	}
}

// execCounts snapshots the per-key execution counts.
func (f *fakeExec) execCounts() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.byKey))
	for k, v := range f.byKey {
		out[k] = v
	}
	return out
}

// testServer wires a Server with a fake executor to an httptest server
// and a client.
func testServer(t *testing.T, workers, queueDepth int) (*Server, *fakeExec, *Client) {
	t.Helper()
	dir := t.TempDir()
	s := NewServer(dir, workers, queueDepth)
	fake := &fakeExec{}
	// Test manifests carry no config overrides, so one default config
	// keys every job.
	cfg := (&sweep.Manifest{}).Config()
	s.ExecFn = fake.fn(func(j sweep.Job) string { return sweep.Key(cfg, j) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, fake, &Client{BaseURL: ts.URL}
}

func manifestJSON(t *testing.T, m sweep.Manifest) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConcurrentSubmissionsExecuteOnce drives N concurrent submissions
// of overlapping manifests against one daemon and asserts each unique
// job executed exactly once — the service-level mirror of the sweep
// engine's TestFleetTrainsOnce, observed through executor call counts
// and result-cache entry counts.
func TestConcurrentSubmissionsExecuteOnce(t *testing.T) {
	s, fake, c := testServer(t, 4, 0)
	benches := workload.Names()
	manifests := []sweep.Manifest{
		{Name: "a", Benchmarks: benches[0:3], Policies: []string{"baseline", "online"}},
		{Name: "b", Benchmarks: benches[1:4], Policies: []string{"baseline", "online"}},
		{Name: "c", Benchmarks: benches[2:5], Policies: []string{"baseline", "online"}},
		{Name: "d", Benchmarks: benches[0:5], Policies: []string{"baseline", "online"}},
	}
	// The union of the four grids: 5 benches x 2 policies.
	uniqueJobs := 10

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	states := make([]*Status, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			states[i], errs[i] = c.RunManifest(manifestJSON(t, manifests[i%len(manifests)]), nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if states[i].State != StateComplete {
			t.Fatalf("client %d: state %s (%s)", i, states[i].State, states[i].Error)
		}
	}

	counts := fake.execCounts()
	if len(counts) != uniqueJobs {
		t.Errorf("executed %d unique jobs, want %d", len(counts), uniqueJobs)
	}
	for k, n := range counts {
		if n != 1 {
			t.Errorf("job key %.12s executed %d times, want exactly 1", k, n)
		}
	}
	// Every unique job landed in the persistent cache exactly once.
	entries := 0
	filepath.WalkDir(s.CacheDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			entries++
		}
		return nil
	})
	if entries != uniqueJobs {
		t.Errorf("cache holds %d entries, want %d", entries, uniqueJobs)
	}
}

// TestSweepDedupJoinsExisting submits the same work twice (spelled
// differently) and checks both land on one sweep.
func TestSweepDedupJoinsExisting(t *testing.T) {
	_, fake, c := testServer(t, 2, 0)
	m1 := sweep.Manifest{Name: "first", Benchmarks: []string{"gzip", "mcf"}, Policies: []string{"baseline"}}
	// Same job set: reordered benches, explicit default topology,
	// different name.
	m2 := sweep.Manifest{Name: "second", Benchmarks: []string{"mcf", "gzip"}, Policies: []string{"baseline"}, Topology: "paper4"}

	st1, err := c.RunManifest(manifestJSON(t, m1), nil)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Submit(manifestJSON(t, m2))
	if err != nil {
		t.Fatal(err)
	}
	if st1.ID != st2.ID {
		t.Errorf("equivalent manifests got different sweeps: %s vs %s", st1.ID, st2.ID)
	}
	if n := len(fake.execCounts()); n != 2 {
		t.Errorf("executed %d unique jobs, want 2", n)
	}
}

// TestPerSweepSummaryIsolation runs two concurrent sweeps with
// disjoint jobs on one shared engine and checks each sweep's summary
// counts only its own work — engine-wide counter deltas would
// cross-attribute executions between overlapping windows. It then
// checks a sweep answered entirely by the memo reports Executed 0.
func TestPerSweepSummaryIsolation(t *testing.T) {
	_, fake, c := testServer(t, 2, 0)
	gate := make(chan struct{})
	fake.gate = gate

	mA := manifestJSON(t, sweep.Manifest{
		Name: "iso-a", Benchmarks: workload.Names()[:2], Policies: []string{"baseline"}})
	mB := manifestJSON(t, sweep.Manifest{
		Name: "iso-b", Benchmarks: workload.Names()[2:4], Policies: []string{"baseline"}})

	var wg sync.WaitGroup
	sts := make([]*Status, 2)
	errs := make([]error, 2)
	for i, m := range [][]byte{mA, mB} {
		wg.Add(1)
		go func(i int, m []byte) {
			defer wg.Done()
			sts[i], errs[i] = c.RunManifest(m, nil)
		}(i, m)
	}
	// Let both sweeps admit and overlap, then release the executor.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	for i := range sts {
		if errs[i] != nil {
			t.Fatalf("sweep %d: %v", i, errs[i])
		}
		if got := sts[i].Summary.Executed; got != 2 {
			t.Errorf("sweep %d executed %d in its summary, want exactly its own 2 jobs", i, got)
		}
	}

	// A new sweep covering the union of both grids (distinct content
	// address, identical jobs) is answered entirely without execution:
	// Executed 0, four hits.
	fake.mu.Lock()
	fake.gate = nil
	fake.mu.Unlock()
	mUnion := manifestJSON(t, sweep.Manifest{
		Name: "iso-union", Benchmarks: workload.Names()[:4], Policies: []string{"baseline"}})
	st, err := c.RunManifest(mUnion, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Summary.Executed != 0 || st.Summary.MemHits+st.Summary.DiskHits != 4 {
		t.Errorf("warm union sweep summary %+v, want 0 executed / 4 hits", st.Summary)
	}
}

// TestFailedSweepRetries checks a sweep that finished with errors is
// not sticky: resubmitting the manifest replaces it and re-runs,
// mirroring the engine's dropped failed flights.
func TestFailedSweepRetries(t *testing.T) {
	s, _, c := testServer(t, 1, 0)
	var failOnce atomic.Bool
	failOnce.Store(true)
	s.ExecFn = func(j sweep.Job) (*sweep.Outcome, error) {
		if failOnce.Swap(false) {
			return nil, errors.New("transient: disk full")
		}
		out := &sweep.Outcome{}
		out.Res.Instructions = 1
		return out, nil
	}
	m := manifestJSON(t, sweep.Manifest{
		Name: "retry", Benchmarks: workload.Names()[:1], Policies: []string{"baseline"}})
	st, err := c.RunManifest(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("first run state %s, want failed", st.State)
	}
	st2, err := c.RunManifest(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateComplete {
		t.Fatalf("resubmission after failure: state %s (%s), want complete (sticky failed sweep?)", st2.State, st2.Error)
	}
	if st2.ID != st.ID {
		t.Errorf("retry changed the sweep's content address: %s vs %s", st2.ID, st.ID)
	}
}

// TestAdmissionControl fills the job budget with gated executions and
// checks overflow submissions get 429 + Retry-After, oversized sweeps
// get 413, and the rejected sweep is admitted once the backlog drains.
func TestAdmissionControl(t *testing.T) {
	s, fake, c := testServer(t, 1, 4)
	gate := make(chan struct{})
	fake.gate = gate

	big := manifestJSON(t, sweep.Manifest{
		Name: "big", Benchmarks: workload.Names()[:3], Policies: []string{"baseline", "online"}})
	if _, err := c.Submit(big); err == nil {
		t.Fatal("6-job sweep admitted over a 4-job queue depth")
	} else if ae, ok := err.(*APIError); !ok || ae.StatusCode != 413 || ae.Code != "sweep_too_large" {
		t.Fatalf("oversized sweep: got %v, want 413 sweep_too_large", err)
	}

	first := manifestJSON(t, sweep.Manifest{
		Name: "first", Benchmarks: workload.Names()[:3], Policies: []string{"baseline"}})
	if _, err := c.Submit(first); err != nil {
		t.Fatal(err)
	}
	second := manifestJSON(t, sweep.Manifest{
		Name: "second", Benchmarks: workload.Names()[:3], Policies: []string{"online"}})
	_, err := c.Submit(second)
	ae, ok := err.(*APIError)
	if !ok || ae.StatusCode != 429 || ae.Code != "queue_full" {
		t.Fatalf("overflow submission: got %v, want 429 queue_full", err)
	}
	if ae.RetryAfter < 1 {
		t.Errorf("429 without a Retry-After estimate: %+v", ae)
	}

	close(gate)
	fake.mu.Lock()
	fake.gate = nil
	fake.mu.Unlock()
	// Wait for the first sweep to drain its budget, then the rejected
	// sweep must be admitted.
	waitPending(t, s)
	if _, err := c.RunManifest(second, nil); err != nil {
		t.Fatalf("resubmission after drain rejected: %v", err)
	}
}

func waitPending(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pending jobs never drained: %d", s.pending.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStructuredErrors checks every rejection is a structured JSON
// error naming the offending field, with the same registered-name
// listing the CLI prints.
func TestStructuredErrors(t *testing.T) {
	_, _, c := testServer(t, 1, 0)
	cases := []struct {
		name     string
		body     string
		status   int
		code     string
		field    string
		contains string
	}{
		{"bad json", `{"benchmarks":`, 400, "bad_json", "", "manifest"},
		{"unknown topology", `{"topology":"octo8"}`, 422, "invalid_manifest", "topology", "registered: fe-be2, fine6, paper4, sync1"},
		{"unknown policy", `{"policies":["nope"]}`, 422, "invalid_manifest", "policies", "registered: baseline"},
		{"unknown scheme", `{"schemes":["Z+Q"]}`, 422, "invalid_manifest", "schemes", "registered: "},
		{"unknown benchmark", `{"benchmarks":["quake9"]}`, 422, "invalid_manifest", "benchmarks", "unknown benchmark"},
		{"bad delta", `{"policies":["offline"],"deltas":[-3]}`, 422, "invalid_manifest", "", "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Submit([]byte(tc.body))
			ae, ok := err.(*APIError)
			if !ok {
				t.Fatalf("got %v, want *APIError", err)
			}
			if ae.StatusCode != tc.status || ae.Code != tc.code || ae.Field != tc.field {
				t.Errorf("got status=%d code=%q field=%q, want %d %q %q (%s)",
					ae.StatusCode, ae.Code, ae.Field, tc.status, tc.code, tc.field, ae.Message)
			}
			if !strings.Contains(ae.Message, tc.contains) {
				t.Errorf("message %q missing %q", ae.Message, tc.contains)
			}
		})
	}

	if _, err := c.Status("sw-doesnotexist"); err == nil {
		t.Error("unknown sweep id not rejected")
	} else if ae, ok := err.(*APIError); !ok || ae.StatusCode != 404 || ae.Code != "unknown_sweep" {
		t.Errorf("unknown sweep: got %v, want 404 unknown_sweep", err)
	}
}

// TestStreamReplay checks the NDJSON stream delivers every event with
// dense sequence numbers and that ?from=N replays only the suffix.
func TestStreamReplay(t *testing.T) {
	_, _, c := testServer(t, 2, 0)
	m := manifestJSON(t, sweep.Manifest{
		Name: "stream", Benchmarks: workload.Names()[:2], Policies: []string{"baseline", "online"}})
	var events []Event
	st, err := c.RunManifest(m, func(ev Event) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("streamed %d events, want 4", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d (not dense)", i, ev.Seq)
		}
		if ev.Outcome == nil || ev.Key == "" || ev.Source == "" {
			t.Errorf("event %d incomplete: %+v", i, ev)
		}
	}
	// Replay from the middle.
	var tail []Event
	if _, err := c.Follow(st.ID, 2, func(ev Event) { tail = append(tail, ev) }); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 || tail[0].Seq != 2 {
		t.Errorf("replay from 2 returned %d events starting at %v", len(tail), tail)
	}
	// An overshot from on a finished sweep must terminate immediately
	// (no events), not hang waiting for changes that never come.
	overshoot := make(chan error, 1)
	go func() {
		_, err := c.Follow(st.ID, 99, func(Event) {})
		overshoot <- err
	}()
	select {
	case err := <-overshoot:
		if err != nil {
			t.Errorf("overshot follow: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("overshot follow hung instead of terminating")
	}
}

// TestResultsMatchCLIMerge checks the results endpoint serves exactly
// the bytes `mcdsweep merge` would produce over the same cache.
func TestResultsMatchCLIMerge(t *testing.T) {
	s, _, c := testServer(t, 2, 0)
	m := sweep.Manifest{Name: "res", Benchmarks: workload.Names()[:2], Policies: []string{"baseline"}}
	st, err := c.RunManifest(manifestJSON(t, m), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := sweep.Merge(m.Config(), jobs, &sweep.Cache{Dir: s.CacheDir})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(merged, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if string(got) != string(want) {
		t.Errorf("served results differ from local merge:\n%.300s\nvs\n%.300s", got, want)
	}
}

// TestResultsIncompleteConflict checks a running sweep's results
// endpoint answers 409 instead of partial data.
func TestResultsIncompleteConflict(t *testing.T) {
	_, fake, c := testServer(t, 1, 0)
	gate := make(chan struct{})
	fake.gate = gate

	st, err := c.Submit(manifestJSON(t, sweep.Manifest{
		Name: "slow", Benchmarks: workload.Names()[:2], Policies: []string{"baseline"}}))
	if err != nil {
		close(gate)
		t.Fatal(err)
	}
	_, err = c.Results(st.ID)
	close(gate)
	// Let the sweep finish before the test's cache directory is removed:
	// its workers write entries into it once the gate opens.
	if _, ferr := c.Follow(st.ID, 0, nil); ferr != nil {
		t.Fatalf("follow: %v", ferr)
	}
	if ae, ok := err.(*APIError); !ok || ae.StatusCode != 409 || ae.Code != "sweep_incomplete" {
		t.Fatalf("results of a running sweep: got %v, want 409 sweep_incomplete", err)
	}
}

// TestDrain checks graceful shutdown: in-flight sweeps finish, new
// submissions are refused with 503, and Drain is idempotent.
func TestDrain(t *testing.T) {
	s, fake, c := testServer(t, 1, 0)
	gate := make(chan struct{})
	fake.gate = gate

	m := manifestJSON(t, sweep.Manifest{
		Name: "draining", Benchmarks: workload.Names()[:2], Policies: []string{"baseline"}})
	st, err := c.Submit(m)
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	// Wait until the server flips to draining, then submissions must be
	// refused while the admitted sweep still runs.
	deadline := time.Now().Add(5 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = c.Submit(manifestJSON(t, sweep.Manifest{
		Name: "late", Benchmarks: workload.Names()[:1], Policies: []string{"online"}}))
	if ae, ok := err.(*APIError); !ok || ae.StatusCode != 503 || ae.Code != "draining" {
		t.Fatalf("submission while draining: got %v, want 503 draining", err)
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The admitted sweep ran to completion and still answers.
	final, err := c.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateComplete {
		t.Errorf("drained sweep state %s, want complete", final.State)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second drain not idempotent: %v", err)
	}
}

// TestMetricsExposition checks the Prometheus text surface carries the
// operational gauges and the per-policy latency histograms.
func TestMetricsExposition(t *testing.T) {
	_, _, c := testServer(t, 2, 0)
	m := manifestJSON(t, sweep.Manifest{
		Name: "metrics", Benchmarks: workload.Names()[:2], Policies: []string{"baseline", "online"}})
	if _, err := c.RunManifest(m, nil); err != nil {
		t.Fatal(err)
	}
	// Resubmit: all four jobs answered by the memo, moving the hit ratio.
	if _, err := c.RunManifest(m, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"mcdserved_up 1",
		"mcdserved_draining 0",
		`mcdserved_jobs_total{source="executed"} 4`,
		"mcdserved_queue_capacity",
		"mcdserved_cache_hit_ratio 0\n",
		"mcdserved_jobs_per_second",
		"mcdserved_artifact_writes_total 0",
		`mcdserved_sweeps_total{outcome="accepted"} 1`,
		`mcdserved_sweeps_total{outcome="deduped"} 1`,
		`mcdserved_job_latency_seconds_bucket{policy="baseline",le="+Inf"} 2`,
		`mcdserved_job_latency_seconds_count{policy="online"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTrainingArtifactsSharedAcrossSweeps runs two concurrent real
// submissions whose manifests both need the same trainings and asserts
// the shared artifact store wrote each training exactly once —
// TestFleetTrainsOnce at the service boundary.
func TestTrainingArtifactsSharedAcrossSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a real profile")
	}
	dir := t.TempDir()
	s := NewServer(dir, 2, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	// Both manifests resolve the same two trainings (the off-line
	// oracle on ref and the L+F scheme on train) for g721_decode.
	m1 := manifestJSON(t, sweep.Manifest{
		Name: "t1", Benchmarks: []string{"g721_decode"}, Policies: []string{"offline", "scheme"}, Schemes: []string{"L+F"}})
	m2 := manifestJSON(t, sweep.Manifest{
		Name: "t2", Benchmarks: []string{"g721_decode"}, Policies: []string{"offline", "scheme"}, Schemes: []string{"L+F"}, Deltas: []float64{4}})

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, m := range [][]byte{m1, m2} {
		wg.Add(1)
		go func(i int, m []byte) {
			defer wg.Done()
			_, errs[i] = c.RunManifest(m, nil)
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	if n := s.artifacts.Writes(); n != 2 {
		t.Errorf("concurrent overlapping sweeps wrote %d artifacts, want exactly 2 (train-once)", n)
	}
}

// TestSweepIDPinned pins sweep IDs: a daemon restarted on a new build
// must give a resubmitted manifest the ID it had before, and the ID
// embeds the config key and every job key, so this also pins the key
// spaces under it.
func TestSweepIDPinned(t *testing.T) {
	jobs := []sweep.Job{
		{Bench: "gzip", Policy: sweep.PolicyBaseline},
		{Bench: "gzip", Policy: sweep.PolicyScheme, Scheme: "L+F", Delta: 2.5},
		{Bench: "mcf", Policy: sweep.PolicyOnline, Aggressiveness: 1.3},
		{Bench: "mcf", Policy: sweep.PolicySingleClock, MHz: 600},
	}
	fine6 := core.DefaultConfig()
	fine6.Sim.Topology = "fine6"
	for _, tc := range []struct {
		name string
		cfg  core.Config
		jobs []sweep.Job
		want string
	}{
		{"default", core.DefaultConfig(), jobs, "sw-3940e51e0ffac6f2c7a1aae8"},
		{"fine6", fine6, jobs, "sw-13b8492f6332054d5f3fed49"},
		{"empty", core.DefaultConfig(), nil, "sw-2ee773ea66ce0615b3f3dc2c"},
	} {
		if got := SweepID(sweep.NewKeySpace(tc.cfg), tc.jobs); got != tc.want {
			t.Errorf("%s: SweepID = %s, want pinned %s", tc.name, got, tc.want)
		}
	}
}
