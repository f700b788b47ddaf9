// Package clock models the per-domain clocks of an MCD processor: a
// piecewise-constant frequency schedule built from DVFS ramp plans, clock
// edge arithmetic on a picosecond timeline, and the inter-domain
// synchronization circuit of Sjogren and Myers as used by Semeraro et al.,
// including jitter-induced randomization. Jitter depends only on the
// seed and the jitter magnitude, so its draws are made once per process
// into a shared tape that every synchronizer with the same pair reads
// (see jitterTape) rather than once per machine.
package clock

import (
	"fmt"
	"sort"

	"repro/internal/dvfs"
)

// Segment is a maximal interval during which a domain runs at a constant
// frequency. Clock edges within a segment fall at Start + k*PeriodPs for
// k >= 1 (the edge at exactly Start belongs to the previous segment).
type Segment struct {
	Start    int64 // picoseconds
	PeriodPs int64
	MHz      int
}

// Schedule is the full frequency history of one domain. The zero value is
// unusable; create schedules with New. A Schedule is not safe for
// concurrent use.
type Schedule struct {
	segs []Segment
	last int // cache of the most recently used segment index

	// scale is the domain's DVFS envelope (ladder, voltage range, ramp
	// rate). Schedules built with New carry the paper-default envelope;
	// topology-driven machines hand each domain its own.
	scale dvfs.Scale

	// Edge cache for the final segment: once simulation time is inside
	// the last (open-ended) segment, edge arithmetic reduces to strides
	// of a constant period, so NextEdge and Advance avoid the segment
	// search and usually the division too. The cache is valid only while
	// tailPeriod > 0 and is dropped whenever the segment list changes.
	tailStart  int64   // Start of the final segment
	tailPeriod int64   // its period; 0 = cache invalid
	tailEdge   int64   // the last edge NextEdge returned inside it
	tailVolts  float64 // matched supply voltage of the final segment

	ramp []dvfs.Change // SetTarget's reusable ramp plan
}

// dropTailCache invalidates the final-segment edge cache; callers must
// invoke it before any mutation of s.segs.
func (s *Schedule) dropTailCache() { s.tailPeriod = 0 }

// fillTailCache records an edge known to lie inside the final segment.
func (s *Schedule) fillTailCache(seg Segment, edge int64) {
	s.tailStart = seg.Start
	s.tailPeriod = seg.PeriodPs
	s.tailEdge = edge
	s.tailVolts = s.scale.VoltageFor(seg.MHz)
}

// New returns a schedule running at mhz from time zero under the
// default DVFS envelope.
func New(mhz int) *Schedule { return NewWithPhase(mhz, 0) }

// NewWithPhase returns a schedule running at mhz whose clock edges are
// offset by phasePs within the period. Independent PLLs give each MCD
// domain an unrelated phase, which is what makes inter-domain
// synchronization costly even when nominal frequencies match.
func NewWithPhase(mhz int, phasePs int64) *Schedule {
	return NewScaled(dvfs.DefaultScale(), mhz, phasePs)
}

// NewScaled is NewWithPhase under an explicit per-domain DVFS envelope.
func NewScaled(sc dvfs.Scale, mhz int, phasePs int64) *Schedule {
	mhz = sc.Quantize(mhz)
	p := dvfs.PeriodPs(mhz)
	phasePs %= p
	if phasePs < 0 {
		phasePs += p
	}
	return &Schedule{scale: sc, segs: []Segment{{Start: phasePs - p, PeriodPs: p, MHz: mhz}}}
}

// Scale returns the schedule's DVFS envelope.
func (s *Schedule) Scale() dvfs.Scale { return s.scale }

// NewFixed returns a schedule pinned at mhz which is never expected to
// change; it is identical to New but documents intent (e.g. the external
// memory domain).
func NewFixed(mhz int) *Schedule { return New(mhz) }

// segAt returns the index of the segment containing time t.
func (s *Schedule) segAt(t int64) int {
	if s.tailPeriod > 0 && t >= s.tailStart {
		return len(s.segs) - 1
	}
	// Fast path: reuse the cached index; simulation time is mostly
	// monotonic, so the cached segment or its successor usually matches.
	i := s.last
	if i < len(s.segs) && s.segs[i].Start <= t {
		if i+1 >= len(s.segs) || t < s.segs[i+1].Start {
			return i
		}
		if i+2 >= len(s.segs) || t < s.segs[i+2].Start {
			s.last = i + 1
			return i + 1
		}
	}
	j := sort.Search(len(s.segs), func(k int) bool { return s.segs[k].Start > t }) - 1
	if j < 0 {
		j = 0
	}
	s.last = j
	return j
}

// FreqAt returns the effective frequency, in MHz, at time t.
func (s *Schedule) FreqAt(t int64) int { return s.segs[s.segAt(t)].MHz }

// VoltsAt returns the matched supply voltage at time t.
func (s *Schedule) VoltsAt(t int64) float64 {
	if s.tailPeriod > 0 && t >= s.tailStart {
		return s.tailVolts
	}
	return s.scale.VoltageFor(s.FreqAt(t))
}

// PeriodAt returns the clock period, in picoseconds, at time t.
func (s *Schedule) PeriodAt(t int64) int64 { return s.segs[s.segAt(t)].PeriodPs }

// NextEdge returns the earliest clock edge strictly after time t.
func (s *Schedule) NextEdge(t int64) int64 {
	if t < 0 {
		t = 0
	}
	if p := s.tailPeriod; p > 0 && t >= s.tailStart {
		// Inside the final segment: edges fall at tailStart + k*p, k >= 1.
		e := s.tailEdge
		if d := t - e; d >= 0 {
			if d < p {
				e += p
			} else {
				e += (d/p + 1) * p
			}
			s.tailEdge = e
			return e
		} else if e-t <= p {
			return e
		}
		return s.tailStart + ((t-s.tailStart)/p+1)*p
	}
	return s.nextEdgeSlow(t)
}

// nextEdgeSlow walks the segment list; it feeds the tail cache whenever
// the answer lies in the final segment.
func (s *Schedule) nextEdgeSlow(t int64) int64 {
	for i := s.segAt(t); ; i++ {
		seg := s.segs[i]
		k := (t-seg.Start)/seg.PeriodPs + 1
		e := seg.Start + k*seg.PeriodPs
		if i+1 < len(s.segs) && e >= s.segs[i+1].Start {
			// The next edge belongs to the following segment; treat its
			// start as the phase origin.
			t = s.segs[i+1].Start - 1
			continue
		}
		if i == len(s.segs)-1 {
			s.fillTailCache(seg, e)
		}
		return e
	}
}

// Advance returns the time of the n-th clock edge strictly after t: the
// completion time of an n-cycle operation that begins at the first edge
// after t. n must be positive.
func (s *Schedule) Advance(t int64, n int64) int64 {
	if n <= 0 {
		return t
	}
	e := s.NextEdge(t)
	n--
	if n > 0 && s.tailPeriod > 0 && e > s.tailStart {
		// The first edge is already inside the final segment; the rest of
		// the cycles stride at its constant period.
		return e + n*s.tailPeriod
	}
	for n > 0 {
		i := s.segAt(e)
		seg := s.segs[i]
		if i+1 >= len(s.segs) {
			return e + n*seg.PeriodPs
		}
		// Edges remaining inside this segment after e.
		room := (s.segs[i+1].Start - 1 - e) / seg.PeriodPs
		if room >= n {
			return e + n*seg.PeriodPs
		}
		if room > 0 {
			e += room * seg.PeriodPs
			n -= room
		}
		e = s.NextEdge(e)
		n--
	}
	return e
}

// SetTarget requests a frequency change toward mhz beginning at time now.
// Any previously scheduled changes after now are discarded (a new request
// preempts an in-flight ramp), and the ramp proceeds from the effective
// frequency at now, one ladder notch per RampPsPerMHz*StepMHz
// picoseconds of the schedule's envelope. The processor keeps executing
// throughout. mhz is quantized to the domain's ladder.
func (s *Schedule) SetTarget(now int64, mhz int) {
	mhz = s.scale.Quantize(mhz)
	i := s.segAt(now)
	s.dropTailCache()
	cur := s.segs[i].MHz
	// Discard scheduled future segments.
	s.segs = s.segs[:i+1]
	if s.last > i {
		s.last = i
	}
	if cur == mhz {
		return
	}
	if s.ramp == nil {
		// Room for the longest ramp, so planning never allocates again.
		s.ramp = make([]dvfs.Change, 0, s.scale.NumSteps())
	}
	s.ramp = s.scale.AppendRamp(s.ramp[:0], cur, mhz, now)
	for _, ch := range s.ramp {
		s.segs = append(s.segs, Segment{Start: ch.At, PeriodPs: dvfs.PeriodPs(ch.MHz), MHz: ch.MHz})
	}
}

// SetImmediate pins the frequency to mhz at time now with no ramp. It is
// used for modeling globally synchronous baselines, not DVFS transitions.
func (s *Schedule) SetImmediate(now int64, mhz int) {
	mhz = s.scale.Quantize(mhz)
	i := s.segAt(now)
	s.dropTailCache()
	s.segs = s.segs[:i+1]
	if s.last > i {
		s.last = i
	}
	if s.segs[i].MHz == mhz {
		return
	}
	if s.segs[i].Start == now {
		s.segs[i] = Segment{Start: now, PeriodPs: dvfs.PeriodPs(mhz), MHz: mhz}
		return
	}
	s.segs = append(s.segs, Segment{Start: now, PeriodPs: dvfs.PeriodPs(mhz), MHz: mhz})
}

// TargetMHz returns the frequency the schedule is ramping toward (the
// frequency of the final segment).
func (s *Schedule) TargetMHz() int { return s.segs[len(s.segs)-1].MHz }

// Segments returns the schedule's segments, trimmed so the last segment is
// understood to extend to infinity. The returned slice must not be
// modified.
func (s *Schedule) Segments() []Segment { return s.segs }

// CyclesIn returns the (fractional) number of clock cycles the domain
// ticks through during [t0, t1).
func (s *Schedule) CyclesIn(t0, t1 int64) float64 {
	if t1 <= t0 {
		return 0
	}
	total := 0.0
	for i := s.segAt(t0); i < len(s.segs); i++ {
		seg := s.segs[i]
		lo := max64(t0, max64(seg.Start, 0))
		hi := t1
		if i+1 < len(s.segs) && s.segs[i+1].Start < hi {
			hi = s.segs[i+1].Start
		}
		if hi > lo {
			total += float64(hi-lo) / float64(seg.PeriodPs)
		}
		if i+1 >= len(s.segs) || s.segs[i+1].Start >= t1 {
			break
		}
	}
	return total
}

// String summarizes the schedule.
func (s *Schedule) String() string {
	return fmt.Sprintf("clock.Schedule{%d segments, now->%d MHz}", len(s.segs), s.TargetMHz())
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
