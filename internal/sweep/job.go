// Package sweep implements a sharded experiment-sweep engine over a
// dependency-aware job DAG, backed by a content-addressed, persistent
// on-disk result cache and artifact store. A sweep is a set of Jobs,
// each naming one (benchmark, policy, context scheme, parameters)
// simulation under one core.Config. Policies are registered values that
// declare typed prerequisites — other jobs, and trained profiles stored
// as artifacts — and the engine resolves every node through an
// in-process memo, the persistent caches, and finally execution, exactly
// once per key. Jobs are keyed by a deterministic hash of their full
// specification, so identical work is never simulated twice: results are
// memoized in process, persisted as JSON cache entries, and survive
// across runs and across processes. A sweep can be partitioned into
// shards for multi-process fan-out — each job placed by its dependency
// chain's anchor key, so the shard that owns an expensive training also
// owns everything built from it — and later merged back from the shared
// cache into one deterministic result set.
package sweep

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Job is one unit of sweep work. The zero value of each optional field
// means "use the engine configuration's value", which keeps keys stable
// for the common case.
type Job struct {
	// Bench is the benchmark name (workload.Names()).
	Bench string `json:"bench"`
	// Policy selects the comparator; see the Policy constants.
	Policy string `json:"policy"`
	// Scheme is the calling-context scheme name for PolicyScheme.
	Scheme string `json:"scheme,omitempty"`
	// Delta overrides the slowdown-threshold delta (percent) for the
	// offline and scheme policies; 0 uses Config.DeltaPct.
	Delta float64 `json:"delta,omitempty"`
	// Aggressiveness overrides the on-line controller aggressiveness;
	// 0 uses Config.Online.Aggressiveness.
	Aggressiveness float64 `json:"aggressiveness,omitempty"`
	// MHz overrides the single-clock frequency; 0 uses Config.Sim.BaseMHz.
	MHz int `json:"mhz,omitempty"`
}

// String renders a compact human-readable job label.
func (j Job) String() string {
	s := j.Bench + "/" + j.Policy
	if j.Scheme != "" {
		s += "/" + j.Scheme
	}
	if j.Delta != 0 {
		s += fmt.Sprintf("/delta=%g", j.Delta)
	}
	if j.Aggressiveness != 0 {
		s += fmt.Sprintf("/aggr=%g", j.Aggressiveness)
	}
	if j.MHz != 0 {
		s += fmt.Sprintf("/mhz=%d", j.MHz)
	}
	return s
}

// Validate checks that the job names a known benchmark and registered
// policy, passes the policy's own parameter validation, and that its
// generic parameters are in range — out-of-range values would otherwise
// produce garbage results that the cache then serves forever under a
// perfectly valid key.
func (j Job) Validate() error {
	if workload.ByName(j.Bench) == nil {
		return fmt.Errorf("sweep: unknown benchmark %q", j.Bench)
	}
	p, ok := PolicyByName(j.Policy)
	if !ok {
		return fmt.Errorf("sweep: unknown policy %q (registered: %s)", j.Policy, strings.Join(Policies(), ", "))
	}
	if err := p.ValidateJob(j); err != nil {
		return err
	}
	if j.Delta < 0 || math.IsNaN(j.Delta) || math.IsInf(j.Delta, 0) {
		return fmt.Errorf("sweep: %s: delta %v out of range", j, j.Delta)
	}
	if j.Aggressiveness < 0 || math.IsNaN(j.Aggressiveness) || math.IsInf(j.Aggressiveness, 0) {
		return fmt.Errorf("sweep: %s: aggressiveness %v out of range", j, j.Aggressiveness)
	}
	if j.MHz < 0 {
		return fmt.Errorf("sweep: %s: mhz %d out of range", j, j.MHz)
	}
	return nil
}

// canonical delegates to the job's policy: parameter values the policy
// treats as defaults map onto the zero value, and parameters it ignores
// are cleared, so semantically identical jobs share one cache key (e.g.
// an explicit delta equal to cfg.DeltaPct keys the same as no delta at
// all). Unknown policies pass through unchanged (Key is only meaningful
// for validated jobs).
func (j Job) canonical(cfg core.Config) Job {
	p, ok := PolicyByName(j.Policy)
	if !ok {
		return j
	}
	return p.CanonicalJob(j, cfg)
}

// SchemeByName resolves one of the paper's six context schemes.
func SchemeByName(name string) (calltree.Scheme, bool) {
	return calltree.SchemeByName(name)
}

// Outcome is the cacheable result of one job: the simulation result plus
// the policy-specific byproducts the report generators need.
type Outcome struct {
	Res sim.Result `json:"result"`
	// Stats holds the run-time instrumentation activity of edited runs
	// (PolicyScheme); zero otherwise.
	Stats core.EditStats `json:"edit_stats"`
	// GlobalMHz is the matched frequency chosen by PolicyGlobal.
	GlobalMHz int `json:"global_mhz,omitempty"`
	// StaticReconfig and StaticInstr count the edit plan's static
	// reconfiguration and path-tracking points (PolicyScheme).
	StaticReconfig int `json:"static_reconfig,omitempty"`
	StaticInstr    int `json:"static_instr,omitempty"`
}
