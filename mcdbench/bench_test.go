package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
)

// tinyGrid is a paper-shaped grid on the smallest benchmark, with delta
// points off the calibrated one so replanning runs for both the
// path-tracking (off-line) and merged (L+F) schemes.
func tinyGrid(deltas []float64) *sweep.Manifest {
	return &sweep.Manifest{
		Name:       "tiny",
		Benchmarks: []string{"g721_decode"},
		Policies: []string{sweep.PolicyBaseline, sweep.PolicySingleClock, sweep.PolicyOnline,
			sweep.PolicyOffline, sweep.PolicyScheme, sweep.PolicyGlobal},
		Schemes:        []string{lfScheme.Name},
		Deltas:         deltas,
		MHz:            []int{0, 700},
		Aggressiveness: []float64{0, 1.5},
		Seed:           11,
		TrainWorkers:   engineWorkers,
	}
}

// TestTracedDecompositionMatchesEngine checks that the traced run
// re-executes exactly the engine's work: from empty stores (training)
// and from warm stores (replay), its profiles, outcomes and merged bytes
// equal Engine.Run's byte for byte, and its layer self times account for
// its wall.
func TestTracedDecompositionMatchesEngine(t *testing.T) {
	for _, tc := range []struct {
		workload string
		deltas   []float64
	}{
		{wCold, nil},
		{wWarm, []float64{0.8, 3.3}},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			work := t.TempDir()
			in := &inputs{workload: tc.workload, grid: tinyGrid(tc.deltas)}
			p, err := prepare(in, work+"/warm")
			if err != nil {
				t.Fatal(err)
			}
			u, err := engineRep(p, work)
			if err != nil {
				t.Fatal(err)
			}
			if u.failed != 0 {
				t.Fatalf("engine run failed: %v", u.problems)
			}
			tr, err := tracedRun(p, u, work)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.problems) != 0 {
				t.Fatalf("traced run differs from the engine: %v", tr.problems)
			}
			for _, j := range p.jobs {
				if tr.d.outcomes[sweep.Key(p.cfg, j)] == nil {
					t.Fatalf("traced run did not resolve %s", j)
				}
			}
			var sum int64
			for _, d := range tr.sp.self {
				sum += int64(d)
			}
			if abs(sum-int64(tr.wall)) > int64(tr.wall)/100 {
				t.Fatalf("self times sum to %d ns, traced wall is %d ns", sum, tr.wall)
			}
			if tc.workload == wCold && len(tr.d.payloads) == 0 {
				t.Fatal("cold traced run trained no profiles")
			}
			if tc.workload == wWarm && (len(tr.d.payloads) != 0 || tr.sp.calls["sweep.stream_load"] == 0) {
				t.Fatal("warm traced run trained instead of loading")
			}
		})
	}
}

// TestReplanMirrorsCore checks the traced replan builds the plan
// core.Replan builds, for a path-tracking and a merged scheme.
func TestReplanMirrorsCore(t *testing.T) {
	work := t.TempDir()
	p, err := prepare(&inputs{workload: wCold, grid: tinyGrid(nil)}, work)
	if err != nil {
		t.Fatal(err)
	}
	d := newDecomp(nil, p.cfg, work, work)
	for _, spec := range []sweep.ProfileSpec{
		{Bench: "g721_decode", Scheme: lfScheme.Name},
		{Bench: "g721_decode", Scheme: "L+F+C+P", OnRef: true},
	} {
		prof := d.profile(spec)
		if d.err != nil {
			t.Fatal(d.err)
		}
		for _, delta := range []float64{0.9, 4.2} {
			if got, want := d.replan(prof, delta), core.Replan(prof, delta); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at delta %v: traced replan differs from core.Replan", spec.Scheme, delta)
			}
		}
	}
}

// TestServeRepChecksResults runs one small server lifetime and checks
// every sweep completes with /results equal to MergeBytes.
func TestServeRepChecksResults(t *testing.T) {
	grid := &sweep.Manifest{
		Name:           wServe,
		Benchmarks:     []string{"g721_decode", "g721_encode", "adpcm_decode"},
		Policies:       []string{sweep.PolicyBaseline, sweep.PolicySingleClock, sweep.PolicyOnline, sweep.PolicyScheme},
		Schemes:        []string{lfScheme.Name},
		Deltas:         []float64{1, 2, 3},
		MHz:            []int{600, 700, 800},
		Aggressiveness: []float64{0.5, 1, 2},
		Seed:           5,
		TrainWorkers:   engineWorkers,
	}
	in := &inputs{workload: wServe, grid: grid, clients: subManifests(rand.New(rand.NewSource(5)), grid)}
	p, err := prepare(in, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := serveRep(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || len(r.sweepLat) != engineWorkers*serveSweeps {
		t.Fatalf("%d failures, %d sweeps completed: %v", r.failed, len(r.sweepLat), r.problems)
	}
	if r.sum.Executed != 0 {
		t.Fatalf("served sweeps simulated %d jobs; the warm cache should answer all", r.sum.Executed)
	}
}

// TestGenerateSeedDeterministic checks the same seed gives the same
// manifests, another seed different ones, and every seed the same size.
func TestGenerateSeedDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a1, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		a2, _ := generate(name, 7)
		b, _ := generate(name, 8)
		if encode(t, a1) != encode(t, a2) {
			t.Fatalf("%s: seed 7 generated two different inputs", name)
		}
		if encode(t, a1) == encode(t, b) {
			t.Fatalf("%s: seeds 7 and 8 generated the same inputs", name)
		}
		var sizes []size
		for _, seed := range []int64{7, 8, 9, heldOutSeed} {
			in, err := generate(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sizeOf(in)
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, s)
		}
		for _, s := range sizes[1:] {
			if s != sizes[0] {
				t.Fatalf("%s: sizes differ across seeds: %+v", name, sizes)
			}
		}
	}
}

func encode(t *testing.T, in *inputs) string {
	b, err := json.Marshal(in.manifests())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricTablesMatchBenchmarkJSON checks metric names and units are
// well formed, unique, and listed in BENCHMARK.json exactly as the
// benchmark reports them, and that its workloads are the ones here.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
			t.Errorf("malformed metric %q (%q)", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, table []metric, listed []struct{ Name, Unit string }) {
		if len(table) != len(listed) {
			t.Fatalf("%s: benchmark reports %d metrics, BENCHMARK.json lists %d", what, len(table), len(listed))
		}
		for i, m := range table {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s %d: reported %s (%s), listed %s (%s)", what, i, m.name, m.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: listed %s, benchmark has %s", i, w.Name, workloadNames[i])
		}
	}
}

// TestTail checks the tail is the highest percentile with at least ten
// samples beyond it.
func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); p != 99 || v != 990 {
		t.Fatalf("tail of 1..1000 = %v at p%v, want 990 at p99", v, p)
	}
	if v, p := tail(append(xs, xs...)); p != 99 || v != 990 {
		t.Fatalf("tail of 1..1000 twice = %v at p%v, want 990 at p99", v, p)
	}
	if v, p := tail(xs[:40]); p != 75 || v != 30 {
		t.Fatalf("tail of 1..40 = %v at p%v, want 30 at p75", v, p)
	}
	if v, p := tail(xs[:5]); p != 100 || v != 5 {
		t.Fatalf("tail of 1..5 = %v at p%v, want the maximum", v, p)
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
