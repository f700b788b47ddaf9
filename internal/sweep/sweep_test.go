package sweep

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// fakeExec returns a deterministic outcome derived from the job, and
// counts executions, so cache and shard logic can be tested without
// running the simulator.
func fakeExec(count *atomic.Int64) func(Job) (*Outcome, error) {
	return func(j Job) (*Outcome, error) {
		count.Add(1)
		out := &Outcome{}
		out.Res.Instructions = int64(len(j.Bench) * 1000)
		out.Res.TimePs = int64(len(j.Policy))*1_000_000 + int64(j.Delta*1000) + int64(j.Aggressiveness*100)
		out.Res.EnergyPJ = float64(len(j.Scheme)) * 7.5
		return out, nil
	}
}

func testJobs() []Job {
	return []Job{
		{Bench: "adpcm_decode", Policy: PolicyBaseline},
		{Bench: "adpcm_decode", Policy: PolicyScheme, Scheme: "L+F"},
		{Bench: "adpcm_decode", Policy: PolicyScheme, Scheme: "L+F", Delta: 2},
		{Bench: "mcf", Policy: PolicyOnline, Aggressiveness: 1.2},
		{Bench: "mcf", Policy: PolicySingleClock},
		{Bench: "swim", Policy: PolicyScheme, Scheme: "F+P", Delta: 0.5},
	}
}

func TestKeyStability(t *testing.T) {
	cfg := core.DefaultConfig()
	job := Job{Bench: "mcf", Policy: PolicyScheme, Scheme: "L+F", Delta: 2}
	k1 := Key(cfg, job)
	if k2 := Key(cfg, job); k2 != k1 {
		t.Fatalf("key not deterministic: %s vs %s", k1, k2)
	}
	// A config rebuilt from its serialized form (as another process
	// would see it) must key identically.
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cfg2 core.Config
	if err := json.Unmarshal(b, &cfg2); err != nil {
		t.Fatal(err)
	}
	if k2 := Key(cfg2, job); k2 != k1 {
		t.Fatalf("key unstable across config round-trip: %s vs %s", k1, k2)
	}
}

func TestKeySensitivity(t *testing.T) {
	cfg := core.DefaultConfig()
	base := Job{Bench: "mcf", Policy: PolicyScheme, Scheme: "L+F"}
	seen := map[string]string{Key(cfg, base): "base"}
	variants := map[string]Job{
		"bench":  {Bench: "swim", Policy: PolicyScheme, Scheme: "L+F"},
		"policy": {Bench: "mcf", Policy: PolicyOffline},
		"scheme": {Bench: "mcf", Policy: PolicyScheme, Scheme: "F"},
		"delta":  {Bench: "mcf", Policy: PolicyScheme, Scheme: "L+F", Delta: 2},
	}
	for name, j := range variants {
		k := Key(cfg, j)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}
	cfg2 := cfg
	cfg2.DeltaPct = 3
	if _, dup := seen[Key(cfg2, base)]; dup {
		t.Error("config change did not change the key")
	}
}

func TestKeyCanonicalization(t *testing.T) {
	cfg := core.DefaultConfig()
	// Explicitly spelling out a policy's default parameter, or setting a
	// parameter the policy ignores, must key identically to the plain
	// job — otherwise the cache would simulate the same work twice.
	pairs := [][2]Job{
		{{Bench: "mcf", Policy: PolicyOffline},
			{Bench: "mcf", Policy: PolicyOffline, Delta: cfg.DeltaPct}},
		{{Bench: "mcf", Policy: PolicySingleClock},
			{Bench: "mcf", Policy: PolicySingleClock, MHz: cfg.Sim.BaseMHz}},
		{{Bench: "mcf", Policy: PolicyOnline},
			{Bench: "mcf", Policy: PolicyOnline, Aggressiveness: cfg.Online.Aggressiveness}},
		{{Bench: "mcf", Policy: PolicyBaseline},
			{Bench: "mcf", Policy: PolicyBaseline, Delta: 3, Scheme: "L+F", MHz: 500}},
	}
	for _, p := range pairs {
		if Key(cfg, p[0]) != Key(cfg, p[1]) {
			t.Errorf("equivalent jobs key differently: %s vs %s", p[0], p[1])
		}
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	for _, j := range []Job{
		{Bench: "mcf", Policy: PolicyScheme, Scheme: "L+F", Delta: -1},
		{Bench: "mcf", Policy: PolicyScheme, Scheme: "L+F", Delta: math.NaN()},
		{Bench: "mcf", Policy: PolicyOnline, Aggressiveness: math.Inf(1)},
		{Bench: "mcf", Policy: PolicySingleClock, MHz: -500},
	} {
		if j.Validate() == nil {
			t.Errorf("%s: out-of-range parameters not rejected", j)
		}
	}
}

func TestShardPartition(t *testing.T) {
	cfg := core.DefaultConfig()
	jobs := testJobs()
	for _, shards := range []int{1, 2, 3, 5} {
		counts := make(map[string]int)
		for idx := 0; idx < shards; idx++ {
			for _, j := range Shard(cfg, jobs, shards, idx) {
				counts[Key(cfg, j)]++
			}
		}
		if len(counts) != len(jobs) {
			t.Fatalf("shards=%d: %d distinct jobs covered, want %d", shards, len(counts), len(jobs))
		}
		for k, n := range counts {
			if n != 1 {
				t.Errorf("shards=%d: job %s assigned %d times", shards, k[:12], n)
			}
		}
		// A global job must land with its off-line dependency so cold
		// sharded runs never train the same oracle twice.
		cfg := core.DefaultConfig()
		g := shardOf(NewKeySpace(cfg).AnchorKey(Job{Bench: "mcf", Policy: PolicyGlobal}), shards)
		o := shardOf(NewKeySpace(cfg).AnchorKey(Job{Bench: "mcf", Policy: PolicyOffline}), shards)
		if g != o {
			t.Errorf("shards=%d: global in shard %d but its offline dependency in shard %d", shards, g, o)
		}
	}
}

func TestCacheHitMissCorrupt(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig()
	jobs := testJobs()

	var execs atomic.Int64
	fresh := func() *Engine {
		e := New(cfg)
		e.Cache = &Cache{Dir: dir}
		e.ExecFn = fakeExec(&execs)
		return e
	}

	// Cold run: everything misses and executes.
	e1 := fresh()
	outs1, sum, err := e1.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != len(jobs) || sum.DiskHits != 0 {
		t.Fatalf("cold run summary: %s", sum)
	}

	// Same engine again: pure in-process memo hits.
	_, sum, err = e1.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MemHits != len(jobs) || sum.Executed != 0 {
		t.Fatalf("warm rerun summary: %s", sum)
	}

	// A fresh engine (a new process, as far as the cache is concerned)
	// must be served entirely from disk with identical outcomes.
	execs.Store(0)
	outs2, sum, err := fresh().Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.DiskHits != len(jobs) || sum.Executed != 0 || execs.Load() != 0 {
		t.Fatalf("disk-hit run summary: %s (execs=%d)", sum, execs.Load())
	}
	for i := range outs1 {
		if !reflect.DeepEqual(outs1[i], outs2[i]) {
			t.Errorf("job %d: outcome changed across cache round-trip", i)
		}
	}

	// Corrupt one entry; only that job re-executes, and the rewritten
	// entry serves the next engine.
	key := Key(cfg, jobs[0])
	path := filepath.Join(dir, key[:2], key+".json")
	if err := os.WriteFile(path, []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	execs.Store(0)
	_, sum, err = fresh().Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != 1 || sum.DiskHits != len(jobs)-1 {
		t.Fatalf("corrupt-entry run summary: %s", sum)
	}
	// A syntactically valid entry whose stored key mismatches is also a
	// miss (e.g. a file copied to the wrong name).
	if err := os.WriteFile(path, []byte(`{"key":"beef","job":{},"outcome":{"result":{}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	execs.Store(0)
	_, sum, err = fresh().Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != 1 {
		t.Fatalf("key-mismatch run summary: %s", sum)
	}
	execs.Store(0)
	_, sum, err = fresh().Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != 0 || sum.DiskHits != len(jobs) {
		t.Fatalf("post-repair run summary: %s", sum)
	}
}

func TestPersistFailureKeepsResult(t *testing.T) {
	// A cache rooted under a regular file cannot create entry
	// directories, failing Put regardless of the user's privileges.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	var execs atomic.Int64
	e := New(core.DefaultConfig())
	e.Cache = &Cache{Dir: filepath.Join(blocker, "cache")}
	e.ExecFn = fakeExec(&execs)
	job := Job{Bench: "mcf", Policy: PolicyBaseline}
	out, src, err := e.Do(job)
	if err != nil || out == nil || src != SourceExecuted {
		t.Fatalf("unwritable cache lost the result: out=%v src=%v err=%v", out, src, err)
	}
	// The outcome stays memoized in process despite never persisting.
	if _, src, _ := e.Do(job); src != SourceMemory {
		t.Errorf("result not memoized after persist failure (src=%v)", src)
	}
	if execs.Load() != 1 {
		t.Errorf("executed %d times, want 1", execs.Load())
	}
}

func TestSingleflight(t *testing.T) {
	var execs atomic.Int64
	gate := make(chan struct{})
	e := New(core.DefaultConfig())
	e.ExecFn = func(j Job) (*Outcome, error) {
		execs.Add(1)
		<-gate
		return &Outcome{}, nil
	}
	job := Job{Bench: "mcf", Policy: PolicyBaseline}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := e.Do(job); err != nil {
				t.Error(err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("concurrent duplicate jobs executed %d times, want 1", n)
	}
}

func TestMergeShardedMatchesUnsharded(t *testing.T) {
	cfg := core.DefaultConfig()
	jobs := testJobs()

	runInto := func(dir string, shards int) {
		for idx := 0; idx < shards; idx++ {
			var execs atomic.Int64
			e := New(cfg)
			e.Cache = &Cache{Dir: dir}
			e.ExecFn = fakeExec(&execs)
			if _, _, err := e.Run(context.Background(), Shard(cfg, jobs, shards, idx)); err != nil {
				t.Fatal(err)
			}
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	runInto(dirA, 1)
	runInto(dirB, 3)

	mergedA, err := Merge(cfg, jobs, &Cache{Dir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	mergedB, err := Merge(cfg, jobs, &Cache{Dir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	bytesA, _ := json.Marshal(mergedA)
	bytesB, _ := json.Marshal(mergedB)
	if string(bytesA) != string(bytesB) {
		t.Fatalf("sharded merge differs from unsharded:\n%s\nvs\n%s", bytesA, bytesB)
	}

	// Merging a manifest with uncached work names the missing job.
	extra := append(append([]Job(nil), jobs...), Job{Bench: "applu", Policy: PolicyBaseline})
	if _, err := Merge(cfg, extra, &Cache{Dir: dirA}); err == nil {
		t.Fatal("merge with missing entry did not fail")
	}
}

func TestManifestEnumeration(t *testing.T) {
	m := &Manifest{
		Benchmarks:     []string{"adpcm_decode", "mcf"},
		Policies:       []string{PolicyBaseline, PolicyOffline, PolicyOnline, PolicySingleClock, PolicyScheme},
		Schemes:        []string{"L+F", "F"},
		Deltas:         []float64{1, 2, 3},
		Aggressiveness: []float64{0.5, 1.8},
		MHz:            []int{250, 500, 1000},
	}
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// Per benchmark: 1 baseline + 3 offline deltas + 2 online points +
	// 3 single-clock frequencies + 2 schemes x 3 deltas; each parameter
	// sweep multiplies only its own policy.
	want := 2 * (1 + 3 + 2 + 3 + 2*3)
	if len(jobs) != want {
		t.Fatalf("enumerated %d jobs, want %d", len(jobs), want)
	}
	for _, j := range jobs {
		if j.Policy == PolicyBaseline && (j.Delta != 0 || j.Aggressiveness != 0) {
			t.Errorf("baseline job carries sweep parameters: %s", j)
		}
	}

	if _, err := (&Manifest{Benchmarks: []string{"nope"}}).Jobs(); err == nil {
		t.Error("unknown benchmark not rejected")
	}
	if _, err := (&Manifest{Policies: []string{"nope"}}).Jobs(); err == nil {
		t.Error("unknown policy not rejected")
	}
	if _, err := (&Manifest{Policies: []string{PolicyScheme}, Schemes: []string{"nope"}}).Jobs(); err == nil {
		t.Error("unknown scheme not rejected")
	}

	// The zero manifest is the full evaluation grid and must validate.
	full, err := (&Manifest{}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 19*(4+1+6) {
		t.Fatalf("full grid = %d jobs", len(full))
	}
}

// TestEndToEndCache drives the real executor on the smallest benchmark:
// every policy runs once, lands in the cache, and a second engine
// resolves the identical sweep with zero simulator executions.
func TestEndToEndCache(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig()
	jobs := []Job{
		{Bench: "g721_decode", Policy: PolicyBaseline},
		{Bench: "g721_decode", Policy: PolicySingleClock},
		{Bench: "g721_decode", Policy: PolicyOffline},
		{Bench: "g721_decode", Policy: PolicyOnline},
		{Bench: "g721_decode", Policy: PolicyGlobal},
		{Bench: "g721_decode", Policy: PolicyScheme, Scheme: "L+F"},
		{Bench: "g721_decode", Policy: PolicyScheme, Scheme: "L+F", Delta: 4},
		{Bench: "g721_decode", Policy: PolicySingleClock, MHz: 500},
	}

	e1 := New(cfg)
	e1.Cache = &Cache{Dir: dir}
	outs1, sum, err := e1.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != len(jobs) {
		t.Fatalf("cold run summary: %s", sum)
	}
	for i, o := range outs1 {
		if o.Res.Instructions == 0 || o.Res.TimePs <= 0 {
			t.Fatalf("job %s: degenerate result %+v", jobs[i], o.Res)
		}
	}
	if outs1[4].GlobalMHz == 0 {
		t.Error("global policy did not record its matched frequency")
	}
	if outs1[5].StaticReconfig == 0 {
		t.Error("scheme policy did not record static points")
	}
	// A larger tolerated slowdown must not reduce energy savings.
	if outs1[6].Res.EnergyPJ > outs1[5].Res.EnergyPJ {
		t.Errorf("delta=4 used more energy (%.0f pJ) than delta=default (%.0f pJ)",
			outs1[6].Res.EnergyPJ, outs1[5].Res.EnergyPJ)
	}
	// Halving the single clock must lengthen the run.
	if outs1[7].Res.TimePs <= outs1[1].Res.TimePs {
		t.Errorf("single clock at 500 MHz (%d ps) not slower than full speed (%d ps)",
			outs1[7].Res.TimePs, outs1[1].Res.TimePs)
	}

	e2 := New(cfg)
	e2.Cache = &Cache{Dir: dir}
	outs2, sum, err := e2.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != 0 || sum.DiskHits != len(jobs) {
		t.Fatalf("second run summary: %s (want zero executions)", sum)
	}
	for i := range outs1 {
		a, _ := json.Marshal(outs1[i])
		b, _ := json.Marshal(outs2[i])
		if string(a) != string(b) {
			t.Errorf("job %s: cached outcome differs from computed\n%s\nvs\n%s", jobs[i], a, b)
		}
	}
}
