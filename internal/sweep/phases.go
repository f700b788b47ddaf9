package sweep

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// PhaseBreakdown is an engine's cumulative wall-clock by pipeline
// phase, plus the hit counters that explain where the time went. It is
// deliberately not part of Summary: Summary stays a comparable,
// deterministic value (tests compare Summaries with ==), while phase
// timings are wall-clock and vary run to run.
// Callers snapshot Engine.Phases before and after a Run and Sub the
// two to attribute time to one batch.
type PhaseBreakdown struct {
	// TrainNS is total time inside trainings (tree walk, collection,
	// shakes, thresholding); TreewalkNS, CollectNS and ShakeNS are its
	// dominant components, observed from inside core. ShakeNS sums
	// per-segment shake times across pool workers, so it can exceed
	// CollectNS wall-clock under parallel training (and is also counted
	// inside CollectNS when shakes run inline on the collecting
	// goroutine).
	TrainNS    int64 `json:"train_ns"`
	TreewalkNS int64 `json:"treewalk_ns"`
	CollectNS  int64 `json:"collect_ns"`
	ShakeNS    int64 `json:"shake_ns"`
	// SimNS is production simulation: the lockstep passes of every
	// wave.
	SimNS int64 `json:"sim_ns"`
	// StreamNS is packed-stream resolution (decode-from-disk or
	// record-by-walking).
	StreamNS int64 `json:"stream_ns"`
	// PersistNS is result-cache writes; SealNS is segment sealing at
	// the end of a Run — together the "merge" side of a batch.
	PersistNS int64 `json:"persist_ns"`
	SealNS    int64 `json:"seal_ns"`
	// Trained and ArtifactHits split profile resolutions that did the
	// training against ones answered by the artifact store; StreamHits
	// and StreamRecords do the same for packed streams.
	Trained       int64 `json:"trained"`
	ArtifactHits  int64 `json:"artifact_hits"`
	StreamHits    int64 `json:"stream_hits"`
	StreamRecords int64 `json:"stream_records"`
}

// Sub returns p - q, the usual before/after delta.
func (p PhaseBreakdown) Sub(q PhaseBreakdown) PhaseBreakdown {
	return PhaseBreakdown{
		TrainNS:       p.TrainNS - q.TrainNS,
		TreewalkNS:    p.TreewalkNS - q.TreewalkNS,
		CollectNS:     p.CollectNS - q.CollectNS,
		ShakeNS:       p.ShakeNS - q.ShakeNS,
		SimNS:         p.SimNS - q.SimNS,
		StreamNS:      p.StreamNS - q.StreamNS,
		PersistNS:     p.PersistNS - q.PersistNS,
		SealNS:        p.SealNS - q.SealNS,
		Trained:       p.Trained - q.Trained,
		ArtifactHits:  p.ArtifactHits - q.ArtifactHits,
		StreamHits:    p.StreamHits - q.StreamHits,
		StreamRecords: p.StreamRecords - q.StreamRecords,
	}
}

// String renders the breakdown as one log-friendly line.
func (p PhaseBreakdown) String() string {
	d := func(ns int64) string { return time.Duration(ns).Round(time.Millisecond).String() }
	var b strings.Builder
	fmt.Fprintf(&b, "train=%s (treewalk=%s collect=%s shake=%s) sim=%s stream=%s persist=%s seal=%s",
		d(p.TrainNS), d(p.TreewalkNS), d(p.CollectNS), d(p.ShakeNS),
		d(p.SimNS), d(p.StreamNS), d(p.PersistNS), d(p.SealNS))
	fmt.Fprintf(&b, " trained=%d artifact_hits=%d stream_hits=%d stream_records=%d",
		p.Trained, p.ArtifactHits, p.StreamHits, p.StreamRecords)
	return b.String()
}

// phaseCounters is the engine-side atomic mirror of PhaseBreakdown.
type phaseCounters struct {
	trainNS, treewalkNS, collectNS, shakeNS          atomic.Int64
	simNS, streamNS, persistNS, sealNS               atomic.Int64
	trained, artifactHits, streamHits, streamRecords atomic.Int64
}

// Phases snapshots the engine's cumulative per-phase breakdown.
// Counters only grow; take before/after snapshots and Sub them to
// attribute work to one Run (the same convention Summary's counters
// use internally).
func (e *Engine) Phases() PhaseBreakdown {
	return PhaseBreakdown{
		TrainNS:       e.phases.trainNS.Load(),
		TreewalkNS:    e.phases.treewalkNS.Load(),
		CollectNS:     e.phases.collectNS.Load(),
		ShakeNS:       e.phases.shakeNS.Load(),
		SimNS:         e.phases.simNS.Load(),
		StreamNS:      e.phases.streamNS.Load(),
		PersistNS:     e.phases.persistNS.Load(),
		SealNS:        e.phases.sealNS.Load(),
		Trained:       e.phases.trained.Load(),
		ArtifactHits:  e.phases.artifactHits.Load(),
		StreamHits:    e.phases.streamHits.Load(),
		StreamRecords: e.phases.streamRecords.Load(),
	}
}

// phaseSink adapts one training's core-side phase observations
// (core.Config.Observe) into the engine's cumulative counters and,
// when tracing, per-phase spans keyed by the training's artifact key.
// Shake observations arrive per segment from pool workers; the sink
// folds them into one aggregate the executor emits as a single span
// after the training returns, so a tracer ring is never flooded by
// thousands of per-segment spans.
type phaseSink struct {
	e       *Engine
	key     string // artifact key (a batch group's representative)
	bench   string
	shakeNS atomic.Int64
}

func (p *phaseSink) ObservePhase(phase string, d time.Duration) {
	switch phase {
	case "treewalk":
		p.e.phases.treewalkNS.Add(int64(d))
		p.emit("treewalk", d)
	case "collect":
		p.e.phases.collectNS.Add(int64(d))
		p.emit("collect", d)
	case "shake":
		p.e.phases.shakeNS.Add(int64(d))
		p.shakeNS.Add(int64(d))
	}
}

// emit records one core phase span ending now.
func (p *phaseSink) emit(phase string, d time.Duration) {
	if tr := p.e.Trace; tr != nil {
		tr.Emit(obs.Span{
			Key:     p.key,
			Phase:   phase,
			Bench:   p.bench,
			StartNS: tr.Now() - int64(d),
			DurNS:   int64(d),
		})
	}
}

// finish closes out the training: the aggregate shake span plus the
// whole-training span with its outcome ("trained"). The trained
// counter is per resolved spec (noteProfile), not per pass.
func (p *phaseSink) finish(d time.Duration) {
	p.e.phases.trainNS.Add(int64(d))
	if tr := p.e.Trace; tr != nil {
		if sh := p.shakeNS.Load(); sh > 0 {
			tr.Emit(obs.Span{
				Key:     p.key,
				Phase:   "shake",
				Bench:   p.bench,
				StartNS: tr.Now() - int64(d),
				DurNS:   sh,
			})
		}
		tr.Emit(obs.Span{
			Key:     p.key,
			Phase:   "train",
			Bench:   p.bench,
			Outcome: "trained",
			StartNS: tr.Now() - int64(d),
			DurNS:   int64(d),
		})
	}
}
