package sweep

import (
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/workload"
)

// Manifest declares a sweep as a grid: the cross product of benchmarks,
// policies, context schemes and parameter points, under an optionally
// overridden configuration. Empty slices mean "everything" (all 19
// benchmarks, all policies, all six schemes) and a single default
// parameter point, so the zero manifest is the paper's full evaluation.
type Manifest struct {
	// Schema is the manifest format version; 0 (omitted) and
	// ManifestSchema are accepted, anything newer is rejected with a
	// structured error instead of silently misreading future fields.
	Schema     int      `json:"schema,omitempty"`
	Name       string   `json:"name,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	Policies   []string `json:"policies,omitempty"`
	// Schemes applies to the "scheme" policy.
	Schemes []string `json:"schemes,omitempty"`
	// Deltas sweeps the slowdown-threshold delta for the "offline" and
	// "scheme" policies (Figures 10-11); empty means one run at the
	// configuration's calibrated delta.
	Deltas []float64 `json:"deltas,omitempty"`
	// Aggressiveness sweeps the on-line controller for the "online"
	// policy; empty means one run at the default.
	Aggressiveness []float64 `json:"aggressiveness,omitempty"`
	// MHz sweeps the "single_clock" policy's frequency (e.g. to chart a
	// frequency ladder); empty means one run at the full base frequency.
	MHz []int `json:"mhz,omitempty"`

	// Configuration overrides; zero values keep core.DefaultConfig().
	DeltaPct float64 `json:"delta_pct,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	// RecordingCache overrides how many decoded packed streams the
	// engine holds in memory (Engine.RecordingCache); 0 keeps the
	// automatic sizing. It is an
	// execution knob, not part of the simulated configuration, so it
	// never enters cache keys.
	RecordingCache int `json:"recording_cache,omitempty"`
	// TrainWorkers bounds intra-job training parallelism
	// (core.Config.TrainWorkers): segment shakes and batched multi-scheme
	// collection fan out over this many workers; 0 means GOMAXPROCS.
	// Like recording_cache it is an execution knob — every setting
	// produces bit-identical results — so it never enters cache keys.
	TrainWorkers int `json:"train_workers,omitempty"`
	// Topology selects the machine's clock-domain topology by registered
	// name (arch.TopologyNames); empty means the paper's default
	// 4-domain split, and naming the default explicitly keys identically
	// to omitting it.
	Topology string `json:"topology,omitempty"`
}

// LoadManifest reads and validates a JSON manifest file through the
// shared validator (ParseManifest + ValidateManifest), so file loading
// reports the same structured errors API submission does; unwrap with
// errors.As into *ValidationError for the (code, message, field)
// triple.
func LoadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: manifest: %w", err)
	}
	m, verr := ParseManifest(b)
	if verr != nil {
		return nil, fmt.Errorf("sweep: manifest %s: %w", path, verr)
	}
	if _, verr := ValidateManifest(m); verr != nil {
		return nil, fmt.Errorf("sweep: manifest %s: %w", path, verr)
	}
	return m, nil
}

// Config returns the core configuration the manifest's jobs run under.
// The topology name is canonicalized (the default maps to the empty
// string) so the paper configuration keys identically however it is
// spelled.
func (m *Manifest) Config() core.Config {
	cfg := core.DefaultConfig()
	if m.DeltaPct > 0 {
		cfg.DeltaPct = m.DeltaPct
	}
	if m.Seed != 0 {
		cfg.Sim.Seed = m.Seed
	}
	cfg.Sim.Topology = arch.CanonicalTopologyName(m.Topology)
	cfg.TrainWorkers = m.TrainWorkers
	return cfg
}

// Jobs enumerates the manifest's job grid in deterministic order.
// Parameter sweeps are only applied to the policies they affect, so a
// manifest with deltas does not duplicate delta-independent baselines.
func (m *Manifest) Jobs() ([]Job, error) {
	if _, err := arch.TopologyByName(m.Topology); err != nil {
		return nil, fmt.Errorf("sweep: manifest: %w", err)
	}
	benches := m.Benchmarks
	if len(benches) == 0 {
		benches = workload.Names()
	}
	policies := m.Policies
	if len(policies) == 0 {
		policies = Policies()
	}
	schemes := m.Schemes
	if len(schemes) == 0 {
		for _, s := range calltree.Schemes() {
			schemes = append(schemes, s.Name)
		}
	}
	deltas := m.Deltas
	if len(deltas) == 0 {
		deltas = []float64{0}
	}
	aggr := m.Aggressiveness
	if len(aggr) == 0 {
		aggr = []float64{0}
	}
	mhz := m.MHz
	if len(mhz) == 0 {
		mhz = []int{0}
	}

	var jobs []Job
	for _, b := range benches {
		for _, p := range policies {
			switch p {
			case PolicyScheme:
				for _, s := range schemes {
					for _, d := range deltas {
						jobs = append(jobs, Job{Bench: b, Policy: p, Scheme: s, Delta: d})
					}
				}
			case PolicyOffline:
				for _, d := range deltas {
					jobs = append(jobs, Job{Bench: b, Policy: p, Delta: d})
				}
			case PolicyOnline:
				for _, a := range aggr {
					jobs = append(jobs, Job{Bench: b, Policy: p, Aggressiveness: a})
				}
			case PolicySingleClock:
				for _, f := range mhz {
					jobs = append(jobs, Job{Bench: b, Policy: p, MHz: f})
				}
			default:
				jobs = append(jobs, Job{Bench: b, Policy: p})
			}
		}
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}
