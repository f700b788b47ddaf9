package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/wire"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// fleetServer wires a coordinator (EnableFleet) to an httptest server.
// The coordinator never executes jobs itself, so it carries no ExecFn.
func fleetServer(t *testing.T, dir string, fc FleetConfig) (*Server, *Client) {
	t.Helper()
	s := NewServer(dir, 2, 0)
	s.EnableFleet(fc)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, &Client{BaseURL: ts.URL}
}

// startFleetWorker runs one in-process Worker against the coordinator
// until the test ends.
func startFleetWorker(t *testing.T, baseURL, name string, fake *fakeExec) {
	t.Helper()
	cfg := (&sweep.Manifest{}).Config()
	w := &Worker{
		Server:   baseURL,
		Name:     name,
		CacheDir: t.TempDir(),
		Workers:  2,
		ExecFn:   fake.fn(func(j sweep.Job) string { return sweep.Key(cfg, j) }),
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker %s: %v", name, err)
		}
	})
}

// runManifestAsync submits and follows a manifest on a goroutine,
// returning a channel with the terminal status.
func runManifestAsync(t *testing.T, c *Client, m sweep.Manifest) <-chan *Status {
	t.Helper()
	ch := make(chan *Status, 1)
	go func() {
		st, err := c.RunManifest(manifestJSON(t, m), nil)
		if err != nil {
			t.Errorf("run manifest: %v", err)
			ch <- nil
			return
		}
		ch <- st
	}()
	return ch
}

func waitStatus(t *testing.T, ch <-chan *Status, timeout time.Duration) *Status {
	t.Helper()
	select {
	case st := <-ch:
		if st == nil {
			t.Fatal("manifest run failed")
		}
		return st
	case <-time.After(timeout):
		t.Fatal("sweep did not finish in time")
		return nil
	}
}

// TestFleetExecutesRemotely drives a sweep through a coordinator with
// two workers and asserts: every job executed exactly once fleet-wide,
// the merged results are byte-identical to a single-node run of the
// same manifest, and a coordinator restart over the same cache answers
// a resubmission entirely from disk without touching a worker.
func TestFleetExecutesRemotely(t *testing.T) {
	dir := t.TempDir()
	_, c := fleetServer(t, dir, FleetConfig{LeaseTTL: 5 * time.Second, Poll: 50 * time.Millisecond})
	fake := &fakeExec{} // shared: counts executions across the whole fleet
	startFleetWorker(t, c.BaseURL, "worker-a", fake)
	startFleetWorker(t, c.BaseURL, "worker-b", fake)

	m := sweep.Manifest{Name: "fleet", Benchmarks: workload.Names()[0:3], Policies: []string{"baseline", "online"}}
	st := waitStatus(t, runManifestAsync(t, c, m), 30*time.Second)
	if st.State != StateComplete {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}
	if st.Summary == nil || st.Summary.Executed != 6 || st.Summary.Errors != 0 {
		t.Fatalf("summary %+v, want 6 executed, 0 errors", st.Summary)
	}
	counts := fake.execCounts()
	if len(counts) != 6 {
		t.Fatalf("fleet executed %d unique jobs, want 6", len(counts))
	}
	for k, n := range counts {
		if n != 1 {
			t.Fatalf("job %.12s executed %d times fleet-wide, want 1", k, n)
		}
	}
	fleetBytes, err := c.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-identity: the same manifest on a plain single-node server
	// (fresh cache, same deterministic executor) merges to the same bytes.
	_, _, local := testServer(t, 2, 0)
	lst, err := local.RunManifest(manifestJSON(t, m), nil)
	if err != nil {
		t.Fatal(err)
	}
	localBytes, err := local.Results(lst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetBytes, localBytes) {
		t.Fatalf("fleet merge differs from single-node merge:\nfleet: %.200s\nlocal: %.200s", fleetBytes, localBytes)
	}

	// Coordinator restart over the same cache directory, zero workers:
	// the warm resubmission must complete from disk alone.
	_, c2 := fleetServer(t, dir, FleetConfig{LeaseTTL: 5 * time.Second})
	st2 := waitStatus(t, runManifestAsync(t, c2, m), 10*time.Second)
	if st2.State != StateComplete {
		t.Fatalf("warm: state %s (%s)", st2.State, st2.Error)
	}
	if st2.Summary.Executed != 0 || st2.Summary.DiskHits != 6 {
		t.Fatalf("warm summary %+v, want executed=0 disk_hits=6", st2.Summary)
	}
}

// TestFleetLeaseExpiryReassigns kills a worker mid-lease (it registers,
// takes the group, and never heartbeats) and asserts the coordinator
// expires the lease, reassigns the anchor group to a live worker, the
// sweep completes, and the dead worker's late completion is refused.
func TestFleetLeaseExpiryReassigns(t *testing.T) {
	ctx := context.Background()
	s, c := fleetServer(t, t.TempDir(), FleetConfig{
		LeaseTTL: 200 * time.Millisecond, Heartbeat: 50 * time.Millisecond,
		Poll: 50 * time.Millisecond, MaxAttempts: 5,
	})
	reg, err := c.RegisterWorker(ctx, "doomed")
	if err != nil {
		t.Fatal(err)
	}

	m := sweep.Manifest{Name: "expiry", Benchmarks: workload.Names()[0:1], Policies: []string{"baseline"}}
	ch := runManifestAsync(t, c, m)

	// The doomed worker grabs the group and goes silent.
	var l *wire.Lease
	deadline := time.Now().Add(5 * time.Second)
	for l == nil {
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never got a lease")
		}
		if l, err = c.RequestLease(ctx, reg.WorkerID, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	// A live worker picks the group up after the TTL lapses.
	fake := &fakeExec{}
	startFleetWorker(t, c.BaseURL, "survivor", fake)

	st := waitStatus(t, ch, 30*time.Second)
	if st.State != StateComplete {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}
	if n := len(fake.execCounts()); n != 1 {
		t.Fatalf("survivor executed %d jobs, want 1", n)
	}
	fg := s.fleetState.gauges()
	if fg.expired < 1 || fg.reassigned < 1 {
		t.Fatalf("gauges expired=%d reassigned=%d, want >=1 each", fg.expired, fg.reassigned)
	}
	// The dead worker's attempt to complete its expired lease is refused.
	err = c.CompleteLease(ctx, l.ID, reg.WorkerID,
		[]wire.JobResult{{Key: l.JobKeys[0], Source: "executed"}}, nil)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != wire.CodeLeaseExpired {
		t.Fatalf("late completion: %v, want %s", err, wire.CodeLeaseExpired)
	}
}

// TestFleetRetryCapFails exhausts an anchor group's grant attempts and
// asserts its jobs fail with the structured lease_failed error instead
// of requeueing forever.
func TestFleetRetryCapFails(t *testing.T) {
	ctx := context.Background()
	s, c := fleetServer(t, t.TempDir(), FleetConfig{
		LeaseTTL: 100 * time.Millisecond, Poll: 50 * time.Millisecond, MaxAttempts: 1,
	})
	reg, err := c.RegisterWorker(ctx, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	m := sweep.Manifest{Name: "cap", Benchmarks: workload.Names()[0:1], Policies: []string{"baseline"}}
	ch := runManifestAsync(t, c, m)

	var l *wire.Lease
	deadline := time.Now().Add(5 * time.Second)
	for l == nil {
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never got a lease")
		}
		if l, err = c.RequestLease(ctx, reg.WorkerID, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	st := waitStatus(t, ch, 30*time.Second)
	if st.State != StateFailed {
		t.Fatalf("state %s, want %s", st.State, StateFailed)
	}
	if !strings.Contains(st.Error, wire.CodeLeaseFailed) {
		t.Fatalf("error %q does not carry %s", st.Error, wire.CodeLeaseFailed)
	}
	if fg := s.fleetState.gauges(); fg.failed != 1 {
		t.Fatalf("failed groups = %d, want 1", fg.failed)
	}
}

// TestFleetHeartbeatKeepsLeaseAlive blocks execution for several lease
// TTLs while the worker heartbeats, and asserts the lease is never
// expired or reassigned.
func TestFleetHeartbeatKeepsLeaseAlive(t *testing.T) {
	s, c := fleetServer(t, t.TempDir(), FleetConfig{
		LeaseTTL: 250 * time.Millisecond, Heartbeat: 50 * time.Millisecond,
		Poll: 50 * time.Millisecond,
	})
	fake := &fakeExec{gate: make(chan struct{})}
	startFleetWorker(t, c.BaseURL, "steady", fake)

	m := sweep.Manifest{Name: "hb", Benchmarks: workload.Names()[0:1], Policies: []string{"baseline"}}
	ch := runManifestAsync(t, c, m)

	// Hold the job mid-execution across four TTLs, then release it.
	time.Sleep(time.Second)
	close(fake.gate)

	st := waitStatus(t, ch, 30*time.Second)
	if st.State != StateComplete {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}
	fg := s.fleetState.gauges()
	if fg.expired != 0 || fg.reassigned != 0 {
		t.Fatalf("gauges expired=%d reassigned=%d, want 0 (heartbeats should hold the lease)", fg.expired, fg.reassigned)
	}
	if fg.granted != 1 || fg.completed != 1 {
		t.Fatalf("gauges granted=%d completed=%d, want 1 each", fg.granted, fg.completed)
	}
}

// TestFleetEndpointsRequireCoordinator asserts every fleet endpoint on
// a daemon without -fleet answers the structured fleet_disabled error.
func TestFleetEndpointsRequireCoordinator(t *testing.T) {
	ctx := context.Background()
	_, _, c := testServer(t, 1, 0)
	var ae *APIError
	if _, err := c.RegisterWorker(ctx, "w"); !errors.As(err, &ae) || ae.Code != wire.CodeFleetDisabled {
		t.Fatalf("register: %v, want %s", err, wire.CodeFleetDisabled)
	}
	if _, err := c.RequestLease(ctx, "wk-1", 0); !errors.As(err, &ae) || ae.Code != wire.CodeFleetDisabled {
		t.Fatalf("lease: %v, want %s", err, wire.CodeFleetDisabled)
	}
	key := strings.Repeat("ab", 32)
	if _, _, err := c.GetCacheEntry(ctx, key); !errors.As(err, &ae) || ae.Code != wire.CodeFleetDisabled {
		t.Fatalf("cache get: %v, want %s", err, wire.CodeFleetDisabled)
	}
	if err := c.PutArtifact(ctx, key, []byte("{}")); !errors.As(err, &ae) || ae.Code != wire.CodeFleetDisabled {
		t.Fatalf("artifact put: %v, want %s", err, wire.CodeFleetDisabled)
	}
}

// TestFleetStrictFrames asserts the coordinator refuses malformed wire
// frames with structured errors: unknown fields, wrong protocol
// versions, bad sync keys, and unregistered workers.
func TestFleetStrictFrames(t *testing.T) {
	ctx := context.Background()
	_, c := fleetServer(t, t.TempDir(), FleetConfig{})

	post := func(body string) *APIError {
		t.Helper()
		resp, err := http.Post(c.BaseURL+"/v1/workers", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		err = decodeError(resp)
		var ae *APIError
		if !errors.As(err, &ae) {
			t.Fatalf("POST %s: unstructured error %v", body, err)
		}
		return ae
	}
	if ae := post(`{"proto":1,"name":"a","cpus":8}`); ae.Code != wire.CodeBadRequest {
		t.Fatalf("unknown field: code %s, want %s", ae.Code, wire.CodeBadRequest)
	}
	if ae := post(`{"proto":99,"name":"a"}`); ae.Code != wire.CodeProtoUnsupported {
		t.Fatalf("wrong proto: code %s, want %s", ae.Code, wire.CodeProtoUnsupported)
	}

	// Sync endpoints refuse keys that are not content addresses (path
	// traversal is already neutralized by the mux's path cleaning).
	var ae *APIError
	if err := c.PutCacheEntry(ctx, "deadbeef", []byte("{}")); !errors.As(err, &ae) || ae.Code != wire.CodeBadRequest {
		t.Fatalf("bad key: %v, want %s", err, wire.CodeBadRequest)
	}
	// And entries whose declared key does not match the URL.
	key := strings.Repeat("ab", 32)
	if err := c.PutCacheEntry(ctx, key, []byte(`{"key":"deadbeef","job":{},"outcome":{"result":{}}}`)); !errors.As(err, &ae) || ae.Code != wire.CodeBadRequest {
		t.Fatalf("key mismatch: %v, want %s", err, wire.CodeBadRequest)
	}
	artifactEntry := `{"schema":1,"key":"` + strings.Repeat("cd", 32) + `","kind":"profile","payload":{}}`
	if err := c.PutArtifact(ctx, key, []byte(artifactEntry)); !errors.As(err, &ae) || ae.Code != wire.CodeBadRequest {
		t.Fatalf("artifact key mismatch: %v, want %s", err, wire.CodeBadRequest)
	}

	// Lease traffic from a worker that never registered.
	if _, err := c.Heartbeat(ctx, "ls-1", "wk-404"); !errors.As(err, &ae) || ae.Code != wire.CodeUnknownWorker {
		t.Fatalf("unknown worker: %v, want %s", err, wire.CodeUnknownWorker)
	}
}

// TestFleetSegmentSyncByteIdentity runs a sweep through a one-worker
// fleet and asserts the segment-based result sync is invisible at the
// byte level: the coordinator holds at least one synced segment, every
// canonical JSON entry it re-derived from that segment is byte-identical
// to one written by a local run of the same deterministic executor, and
// a merge answered by the coordinator's segments alone (JSON fanout
// directories deleted) matches the JSON-oracle MergeBytes exactly.
func TestFleetSegmentSyncByteIdentity(t *testing.T) {
	dir := t.TempDir()
	_, c := fleetServer(t, dir, FleetConfig{LeaseTTL: 5 * time.Second, Poll: 50 * time.Millisecond})
	fake := &fakeExec{}
	startFleetWorker(t, c.BaseURL, "worker-a", fake)

	m := sweep.Manifest{Name: "seg-sync", Benchmarks: workload.Names()[0:3], Policies: []string{"baseline", "online"}}
	st := waitStatus(t, runManifestAsync(t, c, m), 30*time.Second)
	if st.State != StateComplete {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}

	segs, err := os.ReadDir(filepath.Join(dir, sweep.SegmentSubdir))
	if err != nil {
		t.Fatalf("coordinator segment dir: %v", err)
	}
	if len(segs) == 0 {
		t.Fatal("worker completed a lease but the coordinator holds no synced segment")
	}

	// Oracle: write the same outcomes through the canonical JSON path
	// locally, with an independent executor instance.
	cfg := m.Config()
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	oracleFn := (&fakeExec{}).fn(func(j sweep.Job) string { return sweep.Key(cfg, j) })
	oracle := &sweep.Cache{Dir: t.TempDir()}
	for _, j := range jobs {
		out, err := oracleFn(j)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Put(sweep.Key(cfg, j), j, out); err != nil {
			t.Fatal(err)
		}
	}
	want, err := sweep.MergeBytes(cfg, jobs, oracle)
	if err != nil {
		t.Fatal(err)
	}

	// Entry-level identity: the coordinator re-encoded each synced row
	// through the same deterministic serialization.
	coord := &sweep.Cache{Dir: dir}
	for _, j := range jobs {
		k := sweep.Key(cfg, j)
		coordPath, _ := coord.EntryPath(k) // k is a sweep.Key
		oraclePath, _ := oracle.EntryPath(k)
		got, err := os.ReadFile(coordPath)
		if err != nil {
			t.Fatalf("coordinator entry %.12s: %v", k, err)
		}
		wantEntry, err := os.ReadFile(oraclePath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantEntry) {
			t.Fatalf("coordinator entry %.12s differs from local oracle entry", k)
		}
	}

	// Merge-level identity from segments alone: remove the coordinator's
	// JSON fanout directories and stream the merge from its segment layer.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && e.Name() != sweep.SegmentSubdir && e.Name() != "artifacts" {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	src := sweep.SourceFor(dir)
	if err := sweep.MergeCheck(cfg, jobs, src); err != nil {
		t.Fatalf("merge check over segments alone: %v", err)
	}
	var buf bytes.Buffer
	if err := sweep.MergeTo(&buf, cfg, jobs, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("segment-only merge differs from JSON oracle:\nseg:    %.200s\noracle: %.200s", buf.Bytes(), want)
	}
}

// TestFleetTraceLeaseCorrelation drives a sweep through a traced
// coordinator with a traced worker and asserts the worker's execution
// spans arrive on the coordinator stamped with the lease that carried
// them: every imported span names the worker's registered ID, a real
// lease ID and a positive attempt number, and the sweep's /trace
// endpoint serves the correlated capture back out.
func TestFleetTraceLeaseCorrelation(t *testing.T) {
	dir := t.TempDir()
	s, c := fleetServer(t, dir, FleetConfig{LeaseTTL: 5 * time.Second, Poll: 50 * time.Millisecond})
	s.Trace = obs.NewTracer(0)

	// Wired by hand rather than via startFleetWorker: the worker needs
	// its own tracer to have spans to ship.
	cfg := (&sweep.Manifest{}).Config()
	fake := &fakeExec{}
	w := &Worker{
		Server:   c.BaseURL,
		Name:     "traced-worker",
		CacheDir: t.TempDir(),
		Workers:  2,
		Trace:    obs.NewTracer(0),
		ExecFn:   fake.fn(func(j sweep.Job) string { return sweep.Key(cfg, j) }),
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	})

	m := sweep.Manifest{Name: "fleet-trace", Benchmarks: workload.Names()[0:3], Policies: []string{"baseline", "online"}}
	st := waitStatus(t, runManifestAsync(t, c, m), 30*time.Second)
	if st.State != StateComplete {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}

	spans, _, _ := s.Trace.Snapshot(0)
	jobSpans, leases := 0, map[string]bool{}
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Worker, "wk-") {
			t.Fatalf("span %s/%s imported without a worker ID: %+v", sp.Phase, sp.Outcome, sp)
		}
		if !strings.HasPrefix(sp.Lease, "ls-") {
			t.Fatalf("span %s/%s imported without a lease ID: %+v", sp.Phase, sp.Outcome, sp)
		}
		if sp.Attempt < 1 {
			t.Fatalf("span %s/%s has attempt %d, want >= 1", sp.Phase, sp.Outcome, sp.Attempt)
		}
		leases[sp.Lease] = true
		if sp.Phase == "job" {
			jobSpans++
			if sp.Outcome != "executed" {
				t.Errorf("fleet job span outcome %q, want executed", sp.Outcome)
			}
		}
	}
	if jobSpans != 6 {
		t.Fatalf("coordinator holds %d job spans, want 6 (one per leased job)", jobSpans)
	}
	if len(leases) == 0 {
		t.Fatal("no lease IDs recorded")
	}

	// The /trace endpoint serves the correlated capture: every job span
	// is keyed inside the sweep's reachable closure, so none is filtered.
	resp, err := http.Get(c.BaseURL + "/v1/sweeps/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace: %s", resp.Status)
	}
	served, err := obs.ReadSpans(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(served) != len(spans) {
		t.Fatalf("/trace served %d spans, ring holds %d", len(served), len(spans))
	}
	for _, sp := range served {
		if sp.Worker == "" || sp.Lease == "" {
			t.Fatalf("/trace span lost its lease correlation: %+v", sp)
		}
	}
}
