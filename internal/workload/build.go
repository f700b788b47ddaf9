package workload

import (
	"fmt"
	"hash/fnv"
	"repro/internal/xrand"

	"repro/internal/isa"
)

// Benchmark is one ready-to-run workload: a program plus its training
// and reference inputs and simulation windows. Each window is the
// complete walk of its input, sized by isa.Program.Count.
type Benchmark struct {
	Spec        Spec
	Prog        *isa.Program
	Train, Ref  isa.Input
	TrainWindow int64
	RefWindow   int64
}

// Name returns the benchmark name.
func (b *Benchmark) Name() string { return b.Spec.Name }

// Input returns the named input set ("train" or "ref").
func (b *Benchmark) Input(name string) (isa.Input, int64) {
	if name == "train" {
		return b.Train, b.TrainWindow
	}
	return b.Ref, b.RefWindow
}

// category identifies a node calibration class.
type category uint8

const (
	catBothLR category = iota
	catTrainLR
	catRefLR
	catPlain
	catTrainOnlyLR
	catTrainOnlyPlain
	catRefOnlyLR
	catRefOnlyPlain
	numCategories
)

// gate returns the call predicate for one-sided categories.
func (c category) gate() func(isa.Input) bool {
	switch c {
	case catTrainOnlyLR, catTrainOnlyPlain:
		return func(in isa.Input) bool { return in.Name == "train" }
	case catRefOnlyLR, catRefOnlyPlain:
		return func(in isa.Input) bool { return in.Name == "ref" }
	}
	return nil
}

// sizes returns the per-instance instruction counts under the training
// and reference inputs for a category.
func (c category) sizes(spec *Spec, jitter float64) (train, ref int) {
	lr := int(float64(spec.LRInstrs) * jitter)
	off := lr / 3
	plain := int(float64(spec.PlainInstrs) * jitter)
	switch c {
	case catBothLR:
		return lr, lr
	case catTrainLR:
		return lr, off
	case catRefLR:
		return off, lr
	case catPlain:
		return plain, plain
	case catTrainOnlyLR:
		return lr, 0
	case catTrainOnlyPlain:
		return plain, 0
	case catRefOnlyLR:
		return 0, lr
	case catRefOnlyPlain:
		return 0, plain
	}
	return 0, 0
}

// builder assembles one benchmark program from its spec.
type builder struct {
	spec *Spec
	b    *isa.Builder
	rng  *xrand.Rand

	main       *isa.Subroutine
	parents    []*parentSlot // main + containers
	pools      [numCategories][]*isa.Subroutine
	poolTarget [numCategories]int
	mixIdx     int
	nextParent int
	subSeq     int
}

type parentSlot struct {
	sub  *isa.Subroutine
	body []isa.Node
}

// Build materializes a benchmark from its spec.
func Build(spec Spec) *Benchmark {
	if spec.LRInstrs == 0 {
		spec.LRInstrs = 13000
	}
	if spec.PlainInstrs == 0 {
		spec.PlainInstrs = 3000
	}
	if spec.LeafInstances == 0 {
		spec.LeafInstances = 1
	}
	if spec.TrainScale == 0 {
		spec.TrainScale = 1
	}
	if spec.RefScale == 0 {
		spec.RefScale = 1
	}
	h := fnv.New64a()
	h.Write([]byte(spec.Name))
	w := &builder{
		spec: &spec,
		b:    isa.NewBuilder(spec.Name),
		rng:  xrand.New(int64(h.Sum64())),
	}
	w.main = w.b.Subroutine("main")
	w.parents = []*parentSlot{{sub: w.main}}
	// main is itself a long-running common node: give it its own work.
	w.parents[0].body = append(w.parents[0].body, w.leafBlock(catBothLR))

	// Category budgets; main consumed one CommonBothLR slot.
	remaining := map[category]int{
		catBothLR:         spec.Tree.CommonBothLR - 1,
		catTrainLR:        spec.Tree.CommonTrainLR,
		catRefLR:          spec.Tree.CommonRefLR,
		catPlain:          spec.Tree.CommonPlain,
		catTrainOnlyLR:    spec.Tree.TrainOnlyLR,
		catTrainOnlyPlain: spec.Tree.TrainOnly - spec.Tree.TrainOnlyLR,
		catRefOnlyLR:      spec.Tree.RefOnlyLR,
		catRefOnlyPlain:   spec.Tree.RefOnly - spec.Tree.RefOnlyLR,
	}
	if remaining[catBothLR] < 0 {
		panic(fmt.Sprintf("workload %s: CommonBothLR must be >= 1 (main)", spec.Name))
	}

	// Special hand-built structures consume part of the budget.
	switch spec.Special {
	case "epic_encode":
		w.buildEpicFilter(remaining)
	case "art":
		w.buildArtCore(remaining)
	}

	// Containers: long-running subroutines the remaining common leaves
	// nest under.
	nContainers := spec.Containers
	if nContainers > remaining[catBothLR] {
		nContainers = remaining[catBothLR]
	}
	for i := 0; i < nContainers; i++ {
		c := w.b.Subroutine(fmt.Sprintf("phase%d", i))
		slot := &parentSlot{sub: c}
		slot.body = append(slot.body, w.leafBlock(catBothLR))
		w.parents = append(w.parents, slot)
		w.parents[0].body = append(w.parents[0].body, w.b.Call(c))
		remaining[catBothLR]--
	}

	// Pool sizing for shared-subroutine reuse (static collapse).
	for c := category(0); c < numCategories; c++ {
		n := remaining[c]
		target := n
		if spec.ReuseFrac > 0 && n > 0 {
			target = int(float64(n)*(1-spec.ReuseFrac) + 0.999)
			if target < 1 {
				target = 1
			}
		}
		w.poolTarget[c] = target
	}

	// mpeg2 decode: reference-only paths reach subroutines shared with
	// training-visible contexts, but through a dispatcher that never
	// executes during training. Path-tracking schemes see label 0 there
	// and skip reconfiguration; L+F and F reconfigure by static identity.
	if spec.RefOnlySharesPool && remaining[catRefOnlyPlain] > 0 && remaining[catRefOnlyLR] > 0 {
		disp := w.b.Subroutine("ref_dispatch")
		body := []isa.Node{w.leafBlock(catRefOnlyPlain)}
		for i := 0; i < remaining[catRefOnlyLR]; i++ {
			body = append(body, w.b.Call(w.poolSub(catBothLR)))
		}
		w.b.SetBody(disp, body...)
		w.parents[0].body = append(w.parents[0].body,
			w.b.CallWhen(disp, func(in isa.Input) bool { return in.Name == "ref" }))
		remaining[catRefOnlyPlain]-- // the dispatcher itself
		remaining[catRefOnlyLR] = 0
	}

	// Realize the leaves, cycling categories so placement interleaves.
	order := []category{
		catBothLR, catTrainLR, catRefLR, catPlain,
		catTrainOnlyLR, catTrainOnlyPlain, catRefOnlyLR, catRefOnlyPlain,
	}
	for _, c := range order {
		for i := 0; i < remaining[c]; i++ {
			w.realizeLeaf(c)
		}
	}

	// Materialize bodies.
	for _, p := range w.parents {
		w.b.SetBody(p.sub, p.body...)
	}
	prog := w.b.Finish(w.main)

	bench := &Benchmark{
		Spec:  spec,
		Prog:  prog,
		Train: isa.Input{Name: "train", Scale: spec.TrainScale, Seed: 7},
		Ref:   isa.Input{Name: "ref", Scale: spec.RefScale, Seed: 11},
	}
	bench.TrainWindow = prog.Count(bench.Train)
	bench.RefWindow = prog.Count(bench.Ref)
	return bench
}

// nextMix cycles the palette.
func (w *builder) nextMix() *isa.Mix {
	m := w.spec.Mixes[w.mixIdx%len(w.spec.Mixes)]
	w.mixIdx++
	return m
}

// jitter returns a deterministic size multiplier in [0.92, 1.15].
func (w *builder) jitter() float64 { return 0.92 + 0.23*w.rng.Float64() }

// leafBlock builds a work block for a node of the given category.
func (w *builder) leafBlock(c category) *isa.Block {
	spec := w.spec
	trainN, refN := c.sizes(spec, w.jitter())
	mix := w.nextMix()
	nominal := trainN
	if refN > nominal {
		nominal = refN
	}
	return w.b.BlockBy(mix, min(nominal, 4096), func(in isa.Input) int {
		if in.Name == "train" {
			return trainN
		}
		return refN
	})
}

// parent picks the next placement slot round-robin. When the benchmark
// routes reference-only paths through shared subroutines (mpeg2 decode),
// common shared-pool leaves avoid main so that the run-time label
// lookup cannot accidentally match the dispatcher's un-tracked frame.
func (w *builder) parent(c category) *parentSlot {
	if w.spec.RefOnlySharesPool && c == catBothLR && len(w.parents) > 1 {
		p := w.parents[1+w.nextParent%(len(w.parents)-1)]
		w.nextParent++
		return p
	}
	p := w.parents[w.nextParent%len(w.parents)]
	w.nextParent++
	return p
}

// poolSub returns (creating on demand) a shared subroutine for the
// category, cycling through the pool.
func (w *builder) poolSub(c category) *isa.Subroutine {
	pool := w.pools[c]
	if len(pool) < w.poolTarget[c] {
		s := w.b.Subroutine(fmt.Sprintf("fn%d", w.subSeq))
		w.subSeq++
		w.b.SetBody(s, w.leafBlock(c))
		w.pools[c] = append(pool, s)
		return s
	}
	return pool[w.rng.Intn(len(pool))]
}

// realizeLeaf adds one tree node of the given category: either a loop in
// a parent body or a call (from a fresh site) to a pooled subroutine.
func (w *builder) realizeLeaf(c category) {
	spec := w.spec
	p := w.parent(c)
	asLoop := w.rng.Float64() < spec.LoopFrac
	instances := spec.LeafInstances
	if c != catBothLR && c != catPlain {
		instances = 1
	}
	if asLoop {
		trainN, refN := c.sizes(spec, w.jitter())
		const blockN = 500
		body := w.b.Block(w.nextMix(), blockN)
		loop := w.b.Loop(func(in isa.Input) int {
			n := trainN
			if in.Name != "train" {
				n = refN
			}
			return n / (blockN + 1)
		}, body)
		for i := 0; i < instances; i++ {
			p.body = append(p.body, loop)
		}
		return
	}
	target := w.poolSub(c)
	var call *isa.Call
	if gate := c.gate(); gate != nil {
		// mpeg2 decode: reference-only paths lead to subroutines shared
		// with training-visible contexts, so non-path schemes still
		// reconfigure there.
		if spec.RefOnlySharesPool && (c == catRefOnlyLR) {
			target = w.poolSub(catBothLR)
		}
		call = w.b.CallWhen(target, gate)
	} else {
		call = w.b.Call(target)
	}
	for i := 0; i < instances; i++ {
		p.body = append(p.body, call)
	}
}

// buildEpicFilter realizes epic encode's internal_filter: one subroutine
// called from six distinct sites inside its parent build_level, each
// invocation splitting its work differently between an FP-heavy and a
// memory-heavy loop (Section 4.2). Consumes 7 CommonBothLR nodes
// (build_level + six filter contexts) and 12 CommonPlain (the two
// sub-loops in each context).
func (w *builder) buildEpicFilter(remaining map[category]int) {
	if remaining[catBothLR] < 7 || remaining[catPlain] < 12 {
		panic("workload: epic_encode spec lacks node budget for special structure")
	}
	remaining[catBothLR] -= 7
	remaining[catPlain] -= 12

	filter := w.b.Subroutine("internal_filter")
	const blockN = 500
	fpBody := w.b.Block(isa.FPHeavy, blockN)
	memBody := w.b.Block(isa.MemBound, blockN)
	// Total loop work ~9k per invocation, split by invocation sequence;
	// each individual loop instance stays below the 10k cutoff.
	const totalTrips = 18
	la := w.b.Loop(nil, fpBody)
	la.TripsBySeq = func(_ isa.Input, seq int) int { return 2 + (seq%6)*(totalTrips-4)/5 }
	lb := w.b.Loop(nil, memBody)
	lb.TripsBySeq = func(_ isa.Input, seq int) int { return totalTrips - (2 + (seq%6)*(totalTrips-4)/5) }
	glue := w.b.Block(isa.IntHeavy, 4000)
	w.b.SetBody(filter, glue, la, lb)

	level := w.b.Subroutine("build_level")
	slot := &parentSlot{sub: level}
	slot.body = append(slot.body, w.leafBlock(catBothLR))
	for i := 0; i < 6; i++ {
		slot.body = append(slot.body, w.b.Call(filter))
	}
	w.b.SetBody(level, slot.body...)
	w.parents[0].body = append(w.parents[0].body, w.b.Call(level))
}

// buildArtCore realizes art's core computation: a long-running match
// routine whose outer loop contains seven sub-loops, each long-running
// (Section 4.2). Consumes 8 CommonBothLR (routine + 7 sub-loops) and 1
// CommonPlain (the outer loop).
func (w *builder) buildArtCore(remaining map[category]int) {
	if remaining[catBothLR] < 8 || remaining[catPlain] < 1 {
		panic("workload: art spec lacks node budget for special structure")
	}
	remaining[catBothLR] -= 8
	remaining[catPlain]--

	match := w.b.Subroutine("match")
	const blockN = 500
	var inner []isa.Node
	mixes := []*isa.Mix{isa.FPHeavy, isa.MemBound, isa.FPHeavy, isa.Stream, isa.FPHeavy, isa.MemBound, isa.Stream}
	for i := 0; i < 7; i++ {
		body := w.b.Block(mixes[i], blockN)
		inner = append(inner, w.b.Loop(isa.FixedTrips(24), body))
	}
	outer := w.b.Loop(isa.FixedTrips(3), inner...)
	w.b.SetBody(match, w.leafBlock(catBothLR), outer)
	w.parents[0].body = append(w.parents[0].body, w.b.Call(match))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
