package clock

import "repro/internal/xrand"

// SyncConfig parameterizes the inter-domain synchronization circuit.
type SyncConfig struct {
	// WindowPs is the synchronization window: when the destination clock
	// edge falls within this distance of the data's arrival, the consumer
	// must wait one additional cycle (paper Table 1: 300 ps, which is 30%
	// of the 1 GHz period).
	WindowPs int64
	// WindowFrac bounds the window to this fraction of the faster clock's
	// period, per Sjogren and Myers; the effective window is
	// min(WindowPs, WindowFrac * fasterPeriod).
	WindowFrac float64
	// JitterPs is the standard deviation of per-edge clock jitter
	// (paper Table 1: 110 ps, normally distributed).
	JitterPs float64
	// Disabled turns synchronization penalties off entirely, modeling a
	// globally synchronous processor (used for the MCD baseline-penalty
	// experiment).
	Disabled bool
}

// DefaultSyncConfig returns the paper's synchronization parameters.
func DefaultSyncConfig() SyncConfig {
	return SyncConfig{WindowPs: 300, WindowFrac: 0.3, JitterPs: 110}
}

// Synchronizer applies the synchronization circuit model to values
// crossing between clock domains. It is deterministic for a given seed:
// the k-th crossing's jitter is the k-th draw of xrand.New(seed), read
// from the process-wide jitter tape that every synchronizer with the
// same seed and JitterPs shares (see jitterTape). Past the tape's end
// the synchronizer continues the same draws on a private generator.
type Synchronizer struct {
	cfg SyncConfig
	// tape serves the jitter draws; next is the index of the next draw
	// and avail the tape prefix this synchronizer knows to be
	// published. Once next passes the end of a sealed tape, tape is nil
	// and rng continues the draws.
	tape  *jitterTape
	next  int64
	avail int64
	rng   xrand.Rand

	// Crossings counts domain-boundary transfers; Penalties counts those
	// that paid the extra consumer cycle.
	Crossings int64
	Penalties int64

	// Window memo: the effective window depends only on the faster of
	// the two periods, which is constant between DVFS steps while Cross
	// runs a few times per instruction.
	memoPeriod int64
	memoWindow int64
}

// NewSynchronizer returns a synchronizer with the given configuration and
// deterministic seed. It attaches to the process's jitter tape for
// (seed, cfg.JitterPs), creating the tape if needed; a disabled
// synchronizer draws nothing and takes no tape.
func NewSynchronizer(cfg SyncConfig, seed int64) *Synchronizer {
	if cfg.Disabled {
		return &Synchronizer{cfg: cfg}
	}
	return newSynchronizerOn(cfg, tapeFor(seed, cfg.JitterPs))
}

func newSynchronizerOn(cfg SyncConfig, t *jitterTape) *Synchronizer {
	return &Synchronizer{cfg: cfg, tape: t}
}

// jitter returns the synchronizer's next jitter draw.
func (s *Synchronizer) jitter() int64 {
	k := s.next
	s.next++
	if k < s.avail {
		return int64(s.tape.vals[k])
	}
	if s.tape == nil {
		return drawJitter(&s.rng, s.cfg.JitterPs)
	}
	if s.avail = s.tape.extend(k); k < s.avail {
		return int64(s.tape.vals[k])
	}
	v := s.tape.handOff(&s.rng)
	s.tape = nil
	return v
}

// Cross returns the time at which a value produced at time t in the
// producer domain becomes usable in the consumer domain: the first
// consumer clock edge after t, plus one extra consumer cycle whenever the
// edge distance (after jitter) falls inside the synchronization window.
// When the synchronizer is disabled, or producer and consumer share a
// schedule, the value is usable at t with no realignment penalty beyond
// the consumer's own edge.
func (s *Synchronizer) Cross(t int64, prod, cons *Schedule) int64 {
	if prod == cons {
		return t
	}
	if s.cfg.Disabled {
		return t
	}
	s.Crossings++
	edge := cons.NextEdge(t)
	gap := edge - t
	fasterPeriod := prod.PeriodAt(t)
	if p := cons.PeriodAt(t); p < fasterPeriod {
		fasterPeriod = p
	}
	window := s.memoWindow
	if fasterPeriod != s.memoPeriod {
		window = s.cfg.WindowPs
		if w := int64(s.cfg.WindowFrac * float64(fasterPeriod)); w < window {
			window = w
		}
		s.memoPeriod, s.memoWindow = fasterPeriod, window
	}
	// Jitter shifts both edges; the net effect on the gap is the
	// difference of two independent normal draws.
	if gap+s.jitter() < window {
		s.Penalties++
		return cons.NextEdge(edge)
	}
	return edge
}

// PenaltyRate returns the fraction of crossings that paid the extra cycle.
func (s *Synchronizer) PenaltyRate() float64 {
	if s.Crossings == 0 {
		return 0
	}
	return float64(s.Penalties) / float64(s.Crossings)
}
