package sweep

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/isa"
	"repro/internal/workload"
)

// Policy is one comparator the sweep can run, registered by name. A
// policy declares its prerequisites as typed dependencies — other jobs
// resolved through the engine's result layers, and trained profiles
// resolved through the artifact layers — and builds its outcome from the
// resolved values. Adding a comparator means registering a Policy, not
// editing the executor.
type Policy interface {
	// Name is the policy's job name (Job.Policy).
	Name() string
	// ValidateJob checks policy-specific job parameters; generic range
	// checks (delta, aggressiveness, mhz) happen in Job.Validate.
	ValidateJob(j Job) error
	// CanonicalJob maps parameter values the policy treats as defaults
	// onto the zero value and clears parameters it ignores, so
	// semantically identical jobs share one cache key.
	CanonicalJob(j Job, cfg core.Config) Job
	// Deps declares the job's prerequisites in the order OpenLane
	// receives them resolved.
	Deps(cfg core.Config, j Job) []Dep
	// ShardAnchor names the dependency whose key decides which shard owns
	// the job, or nil to place the job by its own key. The anchor may be
	// a placement-only hint that Deps does not resolve (single-clock jobs
	// place with the comparator chain that consumes them).
	ShardAnchor(cfg core.Config, j Job) *Dep
	// OpenLane prepares the job's production run from its resolved
	// dependencies, indexed like Deps' return, without consuming any
	// stream: the engine steps the lane through the benchmark's
	// reference stream and then calls its Finish.
	OpenLane(rt Runtime, j Job, deps []Resolved) (*Lane, error)
}

// Dep is one typed prerequisite: exactly one of Job or Profile is set.
type Dep struct {
	// Job names a result dependency, resolved through the engine's memo,
	// result cache and executor like any directly requested job.
	Job *Job
	// Profile names a training dependency, resolved through the engine's
	// profile memo and the artifact store.
	Profile *ProfileSpec
}

// ProfileSpec identifies one trained profile: a (benchmark, scheme,
// input) training run. OnRef trains on the reference input itself, which
// is how the off-line oracle gets its perfect future knowledge.
type ProfileSpec struct {
	Bench  string
	Scheme string
	OnRef  bool
}

// inputWindow resolves the spec's input name and instruction window.
func (s ProfileSpec) inputWindow(b *workload.Benchmark) (string, int64) {
	if s.OnRef {
		return b.Ref.Name, b.RefWindow
	}
	return b.Train.Name, b.TrainWindow
}

// ArtifactKey returns the content-addressed artifact-store key of the
// spec's trained profile under a configuration. Callers keying several
// specs under one configuration use KeySpace.ArtifactKey.
func (s ProfileSpec) ArtifactKey(cfg core.Config) string {
	return s.artifactKey(artifact.NewKeySpace(cfg))
}

func (s ProfileSpec) artifactKey(ks *artifact.KeySpace) string {
	b := workload.ByName(s.Bench)
	if b == nil {
		panic("sweep: profile spec names unknown benchmark " + s.Bench)
	}
	input, window := s.inputWindow(b)
	return ks.ProfileKey(s.Bench, s.Scheme, input, window)
}

// Resolved is one resolved dependency: Outcome for job deps, Profile for
// profile deps.
type Resolved struct {
	Outcome *Outcome
	Profile *core.Profile
}

// Runtime is what a policy's OpenLane may use to build its lane: the
// engine configuration, replayable benchmark streams, and replanning of
// trained profiles at job-level deltas.
type Runtime interface {
	// Config returns the engine configuration jobs run under.
	Config() core.Config
	// Feeder returns a replayable stream for one benchmark input,
	// shared and recorded once across concurrent jobs.
	Feeder(b *workload.Benchmark, ref bool) isa.Feeder
	// Plan returns a profile's edit plan at the job's delta, replanning
	// from the shaken histograms when it differs from the
	// configuration's.
	Plan(prof *core.Profile, delta float64) *edit.Plan
}

// Lane is one job's production simulation opened for streaming: the
// consumer that eats the benchmark's reference stream, the instruction
// budget it runs under, and the finalization that builds the outcome.
// Every job executes as a lane: the engine drives all of a lockstep
// unit's lanes from one replay of the shared decoded stream
// (isa.PackedStream.FeedLockstep), and a job resolved on its own is a
// unit of one lane.
type Lane struct {
	Consumer isa.Consumer
	Budget   int64
	Finish   func() (*Outcome, error)
}

// LanePolicy is another name for Policy, kept for callers that assert
// it: every policy opens lanes.
type LanePolicy = Policy

// policies is the registry, in registration order (which Policies()
// exposes as the canonical policy order).
var policies []Policy

// RegisterPolicy adds a policy to the registry; duplicate names panic
// (programming error).
func RegisterPolicy(p Policy) {
	if _, ok := PolicyByName(p.Name()); ok {
		panic("sweep: duplicate policy " + p.Name())
	}
	policies = append(policies, p)
}

// PolicyByName resolves a registered policy.
func PolicyByName(name string) (Policy, bool) {
	for _, p := range policies {
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}

// Policies lists every registered policy name in canonical order.
func Policies() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.Name()
	}
	return out
}

// reachableFrom accumulates the result, artifact, and stream keys in a
// job's dependency closure (the job's own key included).
func reachableFrom(ks *KeySpace, j Job, results, artifacts, streams map[string]bool) error {
	if err := j.Validate(); err != nil {
		return err
	}
	key := ks.Key(j)
	if results[key] {
		return nil
	}
	results[key] = true
	// Every production run replays the benchmark's reference stream.
	if b := workload.ByName(j.Bench); b != nil {
		streams[StreamKey(b, true)] = true
	}
	p, ok := PolicyByName(j.Policy)
	if !ok {
		return fmt.Errorf("sweep: unknown policy %q", j.Policy)
	}
	for _, d := range p.Deps(ks.cfg, j) {
		if d.Profile != nil {
			artifacts[ks.ArtifactKey(*d.Profile)] = true
			// Cold trainings replay the spec's training (or, for the
			// oracle, reference) stream.
			if b := workload.ByName(d.Profile.Bench); b != nil {
				streams[StreamKey(b, d.Profile.OnRef)] = true
			}
			continue
		}
		if err := reachableFrom(ks, *d.Job, results, artifacts, streams); err != nil {
			return err
		}
	}
	return nil
}

// Reachable returns every result-cache key, artifact-store key, and
// packed-stream key reachable from a job set under the key space's
// configuration: each job's own key plus its full dependency closure.
// This is the mark set `mcdsweep prune` retains.
func (k *KeySpace) Reachable(jobs []Job) (results, artifacts, streams map[string]bool, err error) {
	results = make(map[string]bool)
	artifacts = make(map[string]bool)
	streams = make(map[string]bool)
	for _, j := range jobs {
		if err := reachableFrom(k, j, results, artifacts, streams); err != nil {
			return nil, nil, nil, err
		}
	}
	return results, artifacts, streams, nil
}

// Reachable is the key-space Reachable under cfg:
// NewKeySpace(cfg).Reachable(jobs). Callers that already hold cfg's key
// space should use it.
func Reachable(cfg core.Config, jobs []Job) (results, artifacts, streams map[string]bool, err error) {
	return NewKeySpace(cfg).Reachable(jobs)
}
