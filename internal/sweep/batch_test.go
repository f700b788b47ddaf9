package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestBatchedMatchesSequential is the batching acceptance gate: for
// every built-in topology, a full policy grid run in lockstep must
// reproduce the job-by-job sequential execution the engine once had —
// identical per-job outcomes, identical result-cache and artifact-store
// bytes, and the same executed/error counts. The sequential side is a
// committed golden (testdata/batched/<topology>.json) recorded from
// that path on linux/amd64, where the batched path matched it byte for
// byte. The batched side runs at one and two engine workers: at two, an
// anchor's ready and profile-bound units overlap, and the global job
// waits on a single-clock flight the other unit owns. Any divergence is
// a correctness bug, not a tuning matter; -update rewrites the goldens
// from the one-worker run.
func TestBatchedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two profiles per topology, twice")
	}
	for _, name := range arch.TopologyNames() {
		t.Run(name, func(t *testing.T) {
			m := &Manifest{
				Benchmarks: []string{"g721_decode"},
				Policies:   Policies(),
				Schemes:    []string{"L+F"},
				Topology:   name,
			}
			jobs, err := m.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			cfg := m.Config()
			run := func(workers int) runGolden {
				dir := t.TempDir()
				eng := New(cfg)
				eng.Workers = workers
				eng.Cache = &Cache{Dir: dir}
				eng.Artifacts = ArtifactStore(dir)
				outs, sum, err := eng.Run(context.Background(), jobs)
				if err != nil {
					t.Fatal(err)
				}
				return captureGolden(t, jobs, outs, sum, dir)
			}
			path := filepath.Join("testdata", "batched", name+".json")
			if *update {
				writeGolden(t, path, run(1))
			}
			want := readGolden(t, path)
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					compareGolden(t, want, run(workers))
				})
			}
		})
	}
}

// TestPlanBatchesSplitsReadyFromProfileBound pins the lockstep units
// planBatches emits: per anchor, in first-appearance order, a ready
// unit (jobs whose policy declares no dependencies) and then a
// profile-bound unit (profile-dependent jobs in wave 0, the global
// comparator in wave 1), never an empty unit, whatever order the grid
// lists its jobs in.
func TestPlanBatchesSplitsReadyFromProfileBound(t *testing.T) {
	benches := []string{"gsm_decode", "adpcm_decode"}
	grid := func(policyMajor bool, policies ...string) []Job {
		var jobs []Job
		add := func(b, p string) {
			j := Job{Bench: b, Policy: p}
			if p == PolicyScheme {
				j.Scheme = "L+F"
			}
			jobs = append(jobs, j)
		}
		if policyMajor {
			for _, p := range policies {
				for _, b := range benches {
					add(b, p)
				}
			}
		} else {
			for _, b := range benches {
				for _, p := range policies {
					add(b, p)
				}
			}
		}
		return jobs
	}
	all := []string{PolicyGlobal, PolicyBaseline, PolicyOffline, PolicyOnline, PolicyScheme, PolicySingleClock}
	unit := func(bench string, wave0, wave1 []int) batchGroup {
		return batchGroup{bench: bench, wave0: wave0, wave1: wave1}
	}
	cases := []struct {
		name string
		jobs []Job
		want []batchGroup
	}{
		{"bench-major", grid(false, all...), []batchGroup{
			unit("gsm_decode", []int{1, 3, 5}, nil),
			unit("gsm_decode", []int{2, 4}, []int{0}),
			unit("adpcm_decode", []int{7, 9, 11}, nil),
			unit("adpcm_decode", []int{8, 10}, []int{6}),
		}},
		{"policy-major", grid(true, all...), []batchGroup{
			unit("gsm_decode", []int{2, 6, 10}, nil),
			unit("gsm_decode", []int{4, 8}, []int{0}),
			unit("adpcm_decode", []int{3, 7, 11}, nil),
			unit("adpcm_decode", []int{5, 9}, []int{1}),
		}},
		{"ready-only", grid(true, PolicyOnline, PolicyBaseline), []batchGroup{
			unit("gsm_decode", []int{0, 2}, nil),
			unit("adpcm_decode", []int{1, 3}, nil),
		}},
		{"profile-bound-only", grid(false, PolicyScheme, PolicyGlobal, PolicyOffline), []batchGroup{
			unit("gsm_decode", []int{0, 2}, []int{1}),
			unit("adpcm_decode", []int{3, 5}, []int{4}),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			units, invalid := planBatches(core.DefaultConfig(), tc.jobs)
			if len(invalid) != 0 {
				t.Errorf("invalid = %v, want none", invalid)
			}
			got := make([]batchGroup, len(units))
			for i, u := range units {
				got[i] = *u
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("units:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}

	// Jobs that fail validation are returned apart and never reach a unit.
	jobs := []Job{{Bench: "adpcm_decode", Policy: PolicyBaseline}, {Bench: "no_such_bench", Policy: PolicyBaseline}}
	units, invalid := planBatches(core.DefaultConfig(), jobs)
	if len(units) != 1 || !reflect.DeepEqual(invalid, []int{1}) {
		t.Errorf("invalid job: units %d invalid %v, want 1 unit and invalid [1]", len(units), invalid)
	}
}

// TestReadyLanesDoNotWaitForTraining runs a cold mixed grid on one
// engine worker and asserts that, for every benchmark, each job whose
// policy declares no dependencies is delivered before that benchmark's
// first training starts: ready lanes run in their own lockstep unit,
// ahead of the anchor's profile-bound unit, instead of waiting behind
// its profile batch.
func TestReadyLanesDoNotWaitForTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two profiles per benchmark")
	}
	m := &Manifest{
		Benchmarks: []string{"adpcm_decode", "g721_decode"},
		Policies:   Policies(),
		Schemes:    []string{"L+F"},
	}
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := m.Config()
	cfg.TrainWorkers = 1
	eng := New(cfg)
	eng.Workers = 1
	eng.Cache = &Cache{Dir: dir}
	eng.Artifacts = ArtifactStore(dir)
	eng.Streams = StreamStoreFor(dir)
	eng.Trace = obs.NewTracer(0)
	delivered := make(map[int]int64)
	_, _, err = eng.Run(context.Background(), jobs, WithOnDone(func(d JobDone) {
		delivered[d.Index] = eng.Trace.Now()
	}))
	if err != nil {
		t.Fatal(err)
	}
	spans, _, dropped := eng.Trace.Snapshot(0)
	if dropped != 0 {
		t.Fatalf("trace ring dropped %d spans", dropped)
	}
	firstTrain := make(map[string]int64)
	for _, s := range spans {
		if s.Phase != "train" {
			continue
		}
		if at, ok := firstTrain[s.Bench]; !ok || s.StartNS < at {
			firstTrain[s.Bench] = s.StartNS
		}
	}
	for _, b := range m.Benchmarks {
		if _, ok := firstTrain[b]; !ok {
			t.Fatalf("%s: no train span on a cold store", b)
		}
	}
	checked := 0
	for i, j := range jobs {
		p, _ := PolicyByName(j.Policy)
		if len(p.Deps(cfg, j)) != 0 {
			continue
		}
		checked++
		at, ok := delivered[i]
		if !ok {
			t.Errorf("%s: never delivered", j)
			continue
		}
		if train := firstTrain[j.Bench]; at >= train {
			t.Errorf("%s delivered at %v, after its benchmark's first training started at %v",
				j, time.Duration(at), time.Duration(train))
		}
	}
	if checked == 0 {
		t.Fatal("grid has no dependency-free jobs")
	}
}

// TestDoMatchesRun pins the wave of one that Engine.Do resolves
// through. On cold stores, a global job requested alone — its
// single_clock and offline dependencies belong to no Run, so each
// resolves as its own one-job wave — must produce the same outcome
// bytes, execute as many jobs, and leave the same cache tree (results,
// artifacts, packed streams) as the same job resolved inside one
// Engine.Run whose units own its dependencies as lanes.
func TestDoMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the off-line profile twice")
	}
	const bench = "adpcm_decode"
	global := Job{Bench: bench, Policy: PolicyGlobal}
	jobs := []Job{{Bench: bench, Policy: PolicySingleClock}, {Bench: bench, Policy: PolicyOffline}, global}
	engine := func(dir string) *Engine {
		eng := New(core.DefaultConfig())
		eng.Workers = 2
		eng.Cache = &Cache{Dir: dir}
		eng.Artifacts = ArtifactStore(dir)
		eng.Streams = StreamStoreFor(dir)
		return eng
	}

	dirDo := t.TempDir()
	doEng := engine(dirDo)
	doOut, src, err := doEng.Do(global)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceExecuted {
		t.Errorf("Do on a cold store: source %s, want executed", src)
	}

	dirRun := t.TempDir()
	outs, sum, err := engine(dirRun).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(doOut)
	b, _ := json.Marshal(outs[2])
	if !bytes.Equal(a, b) {
		t.Errorf("global outcome diverged\nDo  %s\nRun %s", a, b)
	}
	if n := doEng.tally.n[evExecuted].Load(); n != int64(sum.Executed) || n != int64(len(jobs)) {
		t.Errorf("executed: Do %d, Run %d, want %d", n, sum.Executed, len(jobs))
	}
	compareTrees(t, dirDo, dirRun)
}

// compareTrees asserts two cache directories hold the same relative
// paths with the same bytes.
func compareTrees(t *testing.T, dirA, dirB string) {
	t.Helper()
	list := func(root string) map[string][]byte {
		files := make(map[string][]byte)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[rel] = b
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	a, b := list(dirA), list(dirB)
	if len(a) != len(b) {
		t.Errorf("cache trees differ: %d vs %d files", len(a), len(b))
	}
	for rel, ab := range a {
		bb, ok := b[rel]
		if !ok {
			t.Errorf("second cache missing %s", rel)
			continue
		}
		if !bytes.Equal(ab, bb) {
			t.Errorf("cache entry %s differs between the two runs", rel)
		}
	}
	for rel := range b {
		if _, ok := a[rel]; !ok {
			t.Errorf("second cache has extra entry %s", rel)
		}
	}
}
