package isa

import (
	"hash/fnv"

	"repro/internal/xrand"
)

// walker generates the dynamic stream for one (program, input) pair.
type walker struct {
	in      Input
	c       Consumer
	rng     *xrand.Rand
	stopped bool

	// sinceLoad is the dynamic distance to the most recent load, for
	// pointer-chasing dependencies. Zero means "no load yet".
	sinceLoad uint32
	// brState holds per-branch-PC pattern counters; an open-addressed
	// table because the lookup runs for most branch instructions and a
	// map's hashing dominates the pattern arithmetic it feeds.
	brState pcTable
	// memCtr holds per-block sequential access counters.
	memCtr map[*Block]uint32
	// loopSeq holds per-loop dynamic instance counters for TripsBySeq.
	loopSeq map[*Loop]int

	ins Instr // scratch instruction, reused across emissions
}

// seedFor derives the deterministic generation seed for a program+input.
func seedFor(name string, in Input) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(in.Name))
	return int64(h.Sum64()^0x9e3779b97f4a7c15) ^ in.Seed
}

// Walk generates the program's dynamic stream under the given input,
// feeding instructions and markers to c until the walk completes or c
// asks to stop. Generation is deterministic for a given (program name,
// input name, input seed).
//
// Control flow is a function of the Input alone: block sizes, loop trip
// counts and call predicates read only the Input, while the random draws
// decide each instruction's class, operands, address and branch outcome,
// never how many instructions a block, loop or call produces. A complete
// walk therefore emits exactly Count(in) instructions; the workload
// suite's TestCountMatchesWalk fails if a generator change breaks this.
func (p *Program) Walk(in Input, c Consumer) {
	if in.Scale == 0 {
		in.Scale = 1
	}
	w := &walker{
		in:      in,
		c:       c,
		rng:     xrand.New(seedFor(p.Name, in)),
		memCtr:  make(map[*Block]uint32),
		loopSeq: make(map[*Loop]int),
	}
	w.brState.init(1024)
	w.subroutine(p.Main)
}

func (w *walker) marker(m Marker) {
	if w.stopped {
		return
	}
	if !w.c.Marker(m) {
		w.stopped = true
	}
}

func (w *walker) subroutine(s *Subroutine) {
	if w.stopped {
		return
	}
	w.marker(Marker{Kind: SubEnter, ID: s.ID})
	w.body(s.Body)
	w.marker(Marker{Kind: SubExit, ID: s.ID})
}

func (w *walker) body(nodes []Node) {
	for _, n := range nodes {
		if w.stopped {
			return
		}
		switch n := n.(type) {
		case *Block:
			w.block(n)
		case *Loop:
			w.loop(n)
		case *Call:
			if n.When != nil && !n.When(w.in) {
				continue
			}
			w.marker(Marker{Kind: CallSite, Site: n.SiteID})
			w.subroutine(n.Target)
		}
	}
}

func (w *walker) loop(l *Loop) {
	trips := l.trips(w.in, w.loopSeq)
	if trips < 1 {
		return
	}
	w.marker(Marker{Kind: LoopEnter, ID: l.ID})
	for t := 0; t < trips && !w.stopped; t++ {
		w.body(l.Body)
		// Loop back-edge branch: taken on every iteration but the last,
		// giving the predictor a realistic, learnable loop branch.
		w.emitBranch(l.backPC, t < trips-1)
	}
	w.marker(Marker{Kind: LoopExit, ID: l.ID})
}

func (w *walker) emitBranch(pc uint32, taken bool) {
	if w.stopped {
		return
	}
	w.ins = Instr{Class: Branch, PC: pc, Taken: taken}
	w.bumpSinceLoad()
	if !w.c.Instr(&w.ins) {
		w.stopped = true
	}
}

func (w *walker) bumpSinceLoad() {
	if w.sinceLoad > 0 && w.sinceLoad < 65000 {
		w.sinceLoad++
	}
}

func (w *walker) block(b *Block) {
	mix := b.Mix
	rng := w.rng
	ctr := w.memCtr[b]
	n := b.Size(w.in)
	// Hoist the mix parameters: the consumer call below is opaque to the
	// compiler, so anything left behind a pointer is reloaded per
	// instruction.
	loadDepFrac := mix.LoadDepFrac
	stride, fp := mix.Stride, mix.Footprint
	if fp < stride {
		fp = stride
	}
	memBase := b.basePC * 2654435761 // per-block region
	basePC, span := b.basePC, b.span
	for j := 0; j < n && !w.stopped; j++ {
		class := mix.pick(rng.Float64())
		pc := basePC + uint32(j)%span*4
		ins := &w.ins
		*ins = Instr{Class: class, PC: pc}

		// Register dependencies.
		if loadDepFrac > 0 && w.sinceLoad > 0 && rng.Float64() < loadDepFrac {
			ins.Src1 = uint16(w.sinceLoad)
		} else if rng.Float64() < 0.85 {
			ins.Src1 = w.depDist(mix)
		}
		if rng.Float64() < 0.45 {
			ins.Src2 = w.depDist(mix)
		}

		switch class {
		case Load, Store:
			ins.Addr = memBase + (ctr*stride)%fp
			ctr++
		case Branch:
			// Whether a branch is data-dependent (unpredictable) is a
			// static property of the branch, not of the occurrence:
			// RandomFrac of the block's branch PCs are random, the rest
			// follow a learnable repeating pattern.
			if pcIsRandom(pc, mix.RandomFrac) {
				ins.Taken = rng.Float64() < mix.TakenProb
			} else {
				ins.Taken = w.patternOutcome(pc, mix.TakenProb)
			}
		}

		w.bumpSinceLoad()
		if class == Load {
			w.sinceLoad = 1
		}
		if !w.c.Instr(ins) {
			w.stopped = true
		}
	}
	w.memCtr[b] = ctr
}

// depDist draws a register dependency distance with the mix's mean,
// approximately geometric, clamped to the representable range.
func (w *walker) depDist(mix *Mix) uint16 {
	d := 1 + int(w.rng.ExpFloat64()*mix.DepMean)
	if d > 60000 {
		d = 60000
	}
	return uint16(d)
}

// pcIsRandom deterministically classifies a branch PC as data-dependent
// with probability frac.
func pcIsRandom(pc uint32, frac float64) bool {
	h := pc * 2654435761
	return float64(h%1024) < frac*1024
}

// pcTable is an open-addressed PC-keyed counter table (PCs are never
// zero, so zero keys mark empty slots). Capacity is a power of two.
type pcTable struct {
	keys []uint32
	vals []uint32
	n    int
}

func (t *pcTable) init(capacity int) {
	t.keys = make([]uint32, capacity)
	t.vals = make([]uint32, capacity)
	t.n = 0
}

// postIncr returns the counter for pc and increments it.
func (t *pcTable) postIncr(pc uint32) uint32 {
	mask := uint32(len(t.keys) - 1)
	i := (pc * 2654435761) & mask
	for {
		switch t.keys[i] {
		case pc:
			v := t.vals[i]
			t.vals[i] = v + 1
			return v
		case 0:
			if t.n >= len(t.keys)*3/4 {
				t.grow()
				return t.postIncr(pc)
			}
			t.keys[i] = pc
			t.vals[i] = 1
			t.n++
			return 0
		}
		i = (i + 1) & mask
	}
}

func (t *pcTable) grow() {
	oldK, oldV := t.keys, t.vals
	t.init(len(oldK) * 2)
	mask := uint32(len(t.keys) - 1)
	for j, k := range oldK {
		if k == 0 {
			continue
		}
		i := (k * 2654435761) & mask
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i] = k
		t.vals[i] = oldV[j]
		t.n++
	}
}

// patternOutcome produces a deterministic repeating branch pattern with
// the requested taken probability: a run of identical outcomes with one
// exception per period. Two-level predictors learn these quickly.
func (w *walker) patternOutcome(pc uint32, takenProb float64) bool {
	ctr := w.brState.postIncr(pc)
	if takenProb >= 0.5 {
		period := uint32(1.0/(1.0001-takenProb) + 0.5)
		if period < 2 {
			period = 2
		}
		return ctr%period != period-1
	}
	period := uint32(1.0/(takenProb+0.0001) + 0.5)
	if period < 2 {
		period = 2
	}
	return ctr%period == period-1
}
