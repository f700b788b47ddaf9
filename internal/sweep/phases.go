package sweep

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/jsonscan"
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

// phaseMembers is PhaseBreakdown's member table for the direct decoder,
// listed in field order.
var phaseMembers = jsonscan.Table[PhaseBreakdown]{
	"train_ns":       func(s *jsonscan.Scanner, p *PhaseBreakdown) { s.Int64(&p.TrainNS) },
	"treewalk_ns":    func(s *jsonscan.Scanner, p *PhaseBreakdown) { s.Int64(&p.TreewalkNS) },
	"collect_ns":     func(s *jsonscan.Scanner, p *PhaseBreakdown) { s.Int64(&p.CollectNS) },
	"shake_ns":       func(s *jsonscan.Scanner, p *PhaseBreakdown) { s.Int64(&p.ShakeNS) },
	"sim_ns":         func(s *jsonscan.Scanner, p *PhaseBreakdown) { s.Int64(&p.SimNS) },
	"stream_ns":      func(s *jsonscan.Scanner, p *PhaseBreakdown) { s.Int64(&p.StreamNS) },
	"persist_ns":     func(s *jsonscan.Scanner, p *PhaseBreakdown) { s.Int64(&p.PersistNS) },
	"seal_ns":        func(s *jsonscan.Scanner, p *PhaseBreakdown) { s.Int64(&p.SealNS) },
	"trained":        func(s *jsonscan.Scanner, p *PhaseBreakdown) { s.Int64(&p.Trained) },
	"artifact_hits":  func(s *jsonscan.Scanner, p *PhaseBreakdown) { s.Int64(&p.ArtifactHits) },
	"stream_hits":    func(s *jsonscan.Scanner, p *PhaseBreakdown) { s.Int64(&p.StreamHits) },
	"stream_records": func(s *jsonscan.Scanner, p *PhaseBreakdown) { s.Int64(&p.StreamRecords) },
}

// DecodePhasesJSON decodes a breakdown, or null, at s into *p, as
// json.Unmarshal would with unknown members refused and member names
// matched exactly.
func DecodePhasesJSON(s *jsonscan.Scanner, p **PhaseBreakdown) { jsonscan.Pointer(s, p, phaseMembers) }

// event is one kind of engine event. note counts every event, and sums
// its duration, in the engine's tally; Summary and PhaseBreakdown are
// views of tally snapshots.
type event uint8

const (
	evJob             event = iota // a batch job finished
	evExecuted                     // a job simulated
	evDiskHit                      // a job answered by the JSON result cache
	evSegmentHit                   // a job answered by the columnar segment layer
	evCorrupt                      // an unusable persistent entry, treated as a miss
	evStreamHit                    // a packed stream loaded from the stream store
	evStreamRecord                 // a packed stream recorded by a generating walk
	evProfileMemo                  // a profile answered by the in-process memo
	evProfileArtifact              // a profile answered by the artifact store
	evProfileTrained               // a profile trained
	evTrain                        // one training pass
	evTreewalk                     // a training's tree walk
	evCollect                      // a training's collection run
	evShake                        // a training's shakes, summed over segments
	evLockstep                     // one lockstep replay of a chunk of lanes
	evSimulate                     // one lane's share of a lockstep replay
	evPersist                      // one result-cache write
	evSeal                         // one segment seal
	nEvents
)

// eventSpans labels each event's span: its phase and, where the event
// itself decides it, its outcome. An event without a phase has no span.
var eventSpans = [nEvents]struct{ phase, outcome string }{
	evJob:             {"job", ""},
	evStreamHit:       {"stream", "hit"},
	evStreamRecord:    {"stream", "recorded"},
	evProfileMemo:     {"profile", "memo"},
	evProfileArtifact: {"profile", "artifact"},
	evProfileTrained:  {"profile", "trained"},
	evTrain:           {"train", "trained"},
	evTreewalk:        {"treewalk", ""},
	evCollect:         {"collect", ""},
	evShake:           {"shake", ""},
	evSimulate:        {"simulate", "lockstep"},
	evPersist:         {"persist", ""},
	evSeal:            {"seal", ""},
}

// tally is an engine's cumulative event book: per event, how many
// times it happened and its summed duration in nanoseconds. Counters
// only grow; views subtract a before snapshot from an after one.
type tally struct {
	n, ns [nEvents]atomic.Int64
}

// counts is a tally snapshot, or the difference of two.
type counts struct {
	n, ns [nEvents]int64
}

// since returns the tally's counts minus before, the usual
// before/after delta; since(counts{}) is a snapshot.
func (t *tally) since(before counts) counts {
	var c counts
	for i := range c.n {
		c.n[i], c.ns[i] = t.n[i].Load()-before.n[i], t.ns[i].Load()-before.ns[i]
	}
	return c
}

// Phases snapshots the engine's cumulative per-phase breakdown.
// Counters only grow; take before/after snapshots and Sub them to
// attribute work to one Run (as Run does for its Summary).
func (e *Engine) Phases() PhaseBreakdown {
	c := e.tally.since(counts{})
	return PhaseBreakdown{
		TrainNS:       c.ns[evTrain],
		TreewalkNS:    c.ns[evTreewalk],
		CollectNS:     c.ns[evCollect],
		ShakeNS:       c.ns[evShake],
		SimNS:         c.ns[evLockstep],
		StreamNS:      c.ns[evStreamHit] + c.ns[evStreamRecord],
		PersistNS:     c.ns[evPersist],
		SealNS:        c.ns[evSeal],
		Trained:       c.n[evProfileTrained],
		ArtifactHits:  c.n[evProfileArtifact],
		StreamHits:    c.n[evStreamHit],
		StreamRecords: c.n[evStreamRecord],
	}
}

// note records one engine event of duration d, ending now, in the
// tally and, when tracing, as a span: sp supplies the subject (key,
// policy, bench) and any outcome the event does not fix itself.
func (e *Engine) note(ev event, d time.Duration, sp obs.Span) {
	e.tally.n[ev].Add(1)
	if d != 0 {
		e.tally.ns[ev].Add(int64(d))
	}
	tr := e.Trace
	if tr == nil || eventSpans[ev].phase == "" {
		return
	}
	sp.Phase = eventSpans[ev].phase
	if o := eventSpans[ev].outcome; o != "" {
		sp.Outcome = o
	}
	sp.StartNS = tr.Now() - int64(d)
	sp.DurNS = int64(d)
	tr.Emit(sp)
}

// phaseSink forwards one training's core-side phase observations
// (core.Config.Observe) to the engine's note, keyed by the training's
// artifact key. Shake observations arrive per segment from pool
// workers; the sink sums them into one event that finish notes after
// the training returns, so a tracer ring is never flooded by thousands
// of per-segment spans.
type phaseSink struct {
	e       *Engine
	key     string // artifact key (a batch group's representative)
	bench   string
	shakeNS atomic.Int64
}

func (p *phaseSink) ObservePhase(phase string, d time.Duration) {
	switch phase {
	case "treewalk":
		p.e.note(evTreewalk, d, obs.Span{Key: p.key, Bench: p.bench})
	case "collect":
		p.e.note(evCollect, d, obs.Span{Key: p.key, Bench: p.bench})
	case "shake":
		p.shakeNS.Add(int64(d))
	}
}

// finish closes out the training: its summed shakes, then the
// whole-training event. The trained counter is per resolved spec
// (evProfileTrained), not per pass.
func (p *phaseSink) finish(d time.Duration) {
	if sh := p.shakeNS.Load(); sh > 0 {
		p.e.note(evShake, time.Duration(sh), obs.Span{Key: p.key, Bench: p.bench})
	}
	p.e.note(evTrain, d, obs.Span{Key: p.key, Bench: p.bench})
}
