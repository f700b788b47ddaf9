// Package perf is the repository's benchmark harness: it runs named
// performance scenarios over the simulation pipeline, emits
// machine-readable reports (perf/trajectory.json keeps each PR's
// report, keyed by PR number), and compares runs against a committed
// baseline with a noise-tolerant threshold so CI can gate on
// performance regressions. Scenarios are deterministic in their simulated
// work (instruction counts never vary between runs on any machine); only
// wall-clock and allocation metrics move, and those are what the
// comparison checks.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/workload"
)

// SchemaVersion identifies the report JSON layout.
const SchemaVersion = 1

// Scenario is one named benchmark workload. Run executes the workload
// once and returns the number of simulated instructions it covered;
// measurement (wall time, allocations) wraps around it.
type Scenario struct {
	Name string
	// Desc is a one-line description shown by `mcdperf -list`.
	Desc string
	// Setup, when non-nil, prepares untimed state the scenario measures
	// against (e.g. a warm artifact store) and returns a cleanup
	// function. It runs before the measurement window opens.
	Setup func() (cleanup func(), err error)
	Run   func() (instructions int64, err error)
}

// Result is the measured outcome of one scenario run.
type Result struct {
	Name         string  `json:"name"`
	WallNs       int64   `json:"wall_ns"`
	Instructions int64   `json:"instructions"`
	NsPerInstr   float64 `json:"ns_per_instr"`
	InstrsPerSec float64 `json:"instrs_per_sec"`
	// Allocs and Bytes are heap allocation counts/volume over the run
	// (runtime.MemStats deltas, so they include every pipeline stage the
	// scenario exercises, not just the simulator loop).
	Allocs         uint64  `json:"allocs"`
	Bytes          uint64  `json:"bytes"`
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	BytesPerInstr  float64 `json:"bytes_per_instr"`
}

// Report is the machine-readable output of one harness invocation.
type Report struct {
	Schema    int    `json:"schema"`
	Label     string `json:"label,omitempty"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GOMAXPROCS records the parallelism the report was measured under.
	// Wall-clock comparisons across differing parallelism environments are
	// meaningless for the parallel-training scenarios, so CompareOpts
	// refuses them (omitempty keeps pre-knob reports loading unchanged).
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	CreatedAt  string   `json:"created_at,omitempty"`
	Scenarios  []Result `json:"scenarios"`
}

// Find returns the result for a named scenario, or nil.
func (r *Report) Find(name string) *Result {
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// Measure runs one scenario and returns its measured result. The heap is
// settled with a forced GC before the run so allocation deltas belong to
// the scenario alone; Setup (when present) runs before the window opens
// so preparation work is never measured.
func Measure(s Scenario) (Result, error) {
	if s.Setup != nil {
		cleanup, err := s.Setup()
		if err != nil {
			return Result{}, fmt.Errorf("perf: scenario %s: setup: %w", s.Name, err)
		}
		if cleanup != nil {
			defer cleanup()
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	instrs, err := s.Run()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Result{}, fmt.Errorf("perf: scenario %s: %w", s.Name, err)
	}
	if instrs <= 0 {
		return Result{}, fmt.Errorf("perf: scenario %s reported %d instructions", s.Name, instrs)
	}
	res := Result{
		Name:         s.Name,
		WallNs:       wall.Nanoseconds(),
		Instructions: instrs,
		Allocs:       after.Mallocs - before.Mallocs,
		Bytes:        after.TotalAlloc - before.TotalAlloc,
	}
	res.NsPerInstr = float64(res.WallNs) / float64(instrs)
	if wall > 0 {
		res.InstrsPerSec = float64(instrs) / wall.Seconds()
	}
	res.AllocsPerInstr = float64(res.Allocs) / float64(instrs)
	res.BytesPerInstr = float64(res.Bytes) / float64(instrs)
	return res, nil
}

// RunAll measures the named scenarios (all registered scenarios when
// names is empty) and assembles a report. The synthetic workload suite
// is built before any timing starts — it is shared process-wide setup,
// and without the warm-up the first scenario to touch a benchmark would
// be charged for constructing all nineteen.
func RunAll(names []string, label string) (*Report, error) {
	scens, err := Select(names)
	if err != nil {
		return nil, err
	}
	workload.Suite()
	rep := &Report{
		Schema:     SchemaVersion,
		Label:      label,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
	}
	for _, s := range scens {
		res, err := Measure(s)
		if err != nil {
			return nil, err
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}
	return rep, nil
}

// Select resolves scenario names against the registry; empty means all,
// in registration order.
func Select(names []string) ([]Scenario, error) {
	if len(names) == 0 {
		return Scenarios(), nil
	}
	var out []Scenario
	for _, n := range names {
		s, ok := ByName(n)
		if !ok {
			return nil, fmt.Errorf("perf: unknown scenario %q (have %v)", n, Names())
		}
		out = append(out, s)
	}
	return out, nil
}

// WriteFile marshals the report to path with a trailing newline.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a report from a JSON file and validates its schema.
func Load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("perf: %s: schema %d, want %d", path, r.Schema, SchemaVersion)
	}
	return &r, nil
}

// registry holds the built-in scenarios in registration order.
var registry []Scenario

// Register adds a scenario; duplicate names panic (programming error).
func Register(s Scenario) {
	for _, have := range registry {
		if have.Name == s.Name {
			panic("perf: duplicate scenario " + s.Name)
		}
	}
	registry = append(registry, s)
}

// Scenarios returns every registered scenario in registration order.
func Scenarios() []Scenario {
	out := make([]Scenario, len(registry))
	copy(out, registry)
	return out
}

// Names returns the sorted registered scenario names.
func Names() []string {
	var out []string
	for _, s := range registry {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// ByName looks a scenario up.
func ByName(name string) (Scenario, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
