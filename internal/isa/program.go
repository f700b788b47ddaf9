package isa

import "fmt"

// Input identifies one input set of a program (the paper distinguishes a
// smaller "training" set and a larger "reference" set). Loops and call
// predicates consult the input, so the same Program walks differently
// under different inputs — including following entirely different code
// paths, as mpeg2 decode does in the paper.
type Input struct {
	// Name is the input set name, conventionally "train" or "ref".
	Name string
	// Seed drives all randomized generation for this (program, input)
	// pair; walks are fully deterministic.
	Seed int64
	// Scale multiplies scaled loop trip counts; reference inputs are
	// typically larger than training inputs.
	Scale float64
	// Flags enables optional code paths (predicated call sites).
	Flags map[string]bool
	// Params carries named integer knobs for trip-count closures.
	Params map[string]int
}

// Flag reports whether a named flag is set.
func (in Input) Flag(name string) bool { return in.Flags[name] }

// Param returns a named parameter or the provided default.
func (in Input) Param(name string, def int) int {
	if v, ok := in.Params[name]; ok {
		return v
	}
	return def
}

// Node is one element of a subroutine body: a Block, Loop or Call.
type Node interface{ node() }

// Block emits N instructions drawn from Mix. If NBy is set it overrides N
// per input, letting a block's dynamic size differ between training and
// reference runs (how some paper benchmarks change which nodes qualify as
// long-running between input sets). Control flow is a function of the
// Input alone: the size reads only the Input (a size below 1 emits
// nothing), and the Mix draws fill in instructions without changing
// how many there are.
type Block struct {
	Mix *Mix
	N   int
	NBy func(in Input) int
	// basePC and span are assigned by the Builder.
	basePC uint32
	span   uint32
}

// Size returns the block's dynamic instruction count under an input.
func (b *Block) Size(in Input) int {
	if b.NBy != nil {
		return b.NBy(in)
	}
	return b.N
}

func (*Block) node() {}

// Loop emits its body Trips(input) times, bracketed by loop markers. A
// loop corresponds to a strongly connected component of the subroutine's
// control-flow graph. If TripsBySeq is set it overrides Trips and also
// receives the zero-based count of the loop's earlier dynamic instances
// in this walk, modeling code whose behaviour differs per invocation
// (e.g. epic encode's internal_filter, paper Section 4.2). Control flow
// is a function of the Input alone: the trip count reads only the Input
// and, for TripsBySeq, the instance number. A count below 1 skips the
// loop but still consumes a TripsBySeq instance.
type Loop struct {
	ID         int32
	Body       []Node
	Trips      func(in Input) int
	TripsBySeq func(in Input, seq int) int
	// backPC is the loop back-edge branch PC, assigned by the Builder.
	backPC uint32
}

func (*Loop) node() {}

// trips resolves one dynamic instance's trip count. seqs holds the
// walk's per-loop instance counters; a TripsBySeq loop consumes one
// instance whatever its trip count.
func (l *Loop) trips(in Input, seqs map[*Loop]int) int {
	if l.TripsBySeq == nil {
		return l.Trips(in)
	}
	seq := seqs[l]
	seqs[l] = seq + 1
	return l.TripsBySeq(in, seq)
}

// Call transfers control to Target from a specific static call site.
// When, if non-nil, gates the call on the input set, modeling code paths
// that arise only under some inputs.
type Call struct {
	SiteID int32
	Target *Subroutine
	When   func(in Input) bool
}

func (*Call) node() {}

// Subroutine is a named routine with a body of nodes.
type Subroutine struct {
	ID   int32
	Name string
	Body []Node
}

// Program is a complete synthetic application.
type Program struct {
	Name string
	Main *Subroutine
	Subs []*Subroutine
	// counters for static structure accounting
	numLoops int32
	numSites int32
	nextPC   uint32
}

// Count returns the number of instructions Walk emits under an input,
// without generating them. Because control flow is a function of the
// Input alone (see Walk), the count follows from program structure: a
// Block adds its size, a Call whose predicate is false adds nothing,
// and a Loop adds its body plus one back-edge branch per trip. Loop
// instances are visited in walk order so TripsBySeq sees the same
// sequence numbers the walk does.
func (p *Program) Count(in Input) int64 {
	if in.Scale == 0 {
		in.Scale = 1
	}
	c := &counter{in: in, loopSeq: make(map[*Loop]int)}
	return c.body(p.Main.Body)
}

// counter mirrors walker's control flow, emitting nothing.
type counter struct {
	in      Input
	loopSeq map[*Loop]int
}

func (c *counter) body(nodes []Node) int64 {
	var n int64
	for _, nd := range nodes {
		switch nd := nd.(type) {
		case *Block:
			n += int64(max(nd.Size(c.in), 0))
		case *Loop:
			n += c.loop(nd)
		case *Call:
			if nd.When == nil || nd.When(c.in) {
				n += c.body(nd.Target.Body)
			}
		}
	}
	return n
}

func (c *counter) loop(l *Loop) int64 {
	var n int64
	for t, trips := 0, l.trips(c.in, c.loopSeq); t < trips; t++ {
		n += c.body(l.Body) + 1 // body, then the back-edge branch
	}
	return n
}

// NumSubs returns the number of static subroutines.
func (p *Program) NumSubs() int { return len(p.Subs) }

// NumLoops returns the number of static loops.
func (p *Program) NumLoops() int { return int(p.numLoops) }

// NumSites returns the number of static call sites.
func (p *Program) NumSites() int { return int(p.numSites) }

// Builder constructs programs with automatic ID and PC assignment.
type Builder struct {
	p *Program
}

// NewBuilder starts a new program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{p: &Program{Name: name, nextPC: 0x1000}}
}

// Subroutine registers a new subroutine. Its body is assigned later with
// SetBody, allowing mutually recursive structures.
func (b *Builder) Subroutine(name string) *Subroutine {
	s := &Subroutine{ID: int32(len(b.p.Subs)), Name: name}
	b.p.Subs = append(b.p.Subs, s)
	return s
}

// SetBody attaches a body to a subroutine.
func (b *Builder) SetBody(s *Subroutine, body ...Node) { s.Body = body }

// Block creates an instruction block of n instructions drawn from mix.
func (b *Builder) Block(mix *Mix, n int) *Block {
	if !mix.ok {
		mix.normalize()
	}
	if n < 1 {
		n = 1
	}
	span := uint32(n)
	if span > 48 {
		span = 48
	}
	blk := &Block{Mix: mix, N: n, basePC: b.p.nextPC, span: span}
	b.p.nextPC += span * 4
	return blk
}

// BlockBy creates a block whose dynamic size is input-dependent; nominal
// sizes the static PC span.
func (b *Builder) BlockBy(mix *Mix, nominal int, f func(Input) int) *Block {
	blk := b.Block(mix, nominal)
	blk.NBy = f
	return blk
}

// Loop creates a loop around body with the given trip-count function.
func (b *Builder) Loop(trips func(Input) int, body ...Node) *Loop {
	l := &Loop{ID: b.p.numLoops, Body: body, Trips: trips, backPC: b.p.nextPC}
	b.p.numLoops++
	b.p.nextPC += 4
	return l
}

// Call creates an unconditional call to target from a fresh call site.
func (b *Builder) Call(target *Subroutine) *Call {
	c := &Call{SiteID: b.p.numSites, Target: target}
	b.p.numSites++
	return c
}

// CallWhen creates a call gated on an input predicate.
func (b *Builder) CallWhen(target *Subroutine, when func(Input) bool) *Call {
	c := b.Call(target)
	c.When = when
	return c
}

// Finish validates the program and returns it. main must have been
// registered and given a body.
func (b *Builder) Finish(main *Subroutine) *Program {
	if main == nil {
		panic("isa: Finish with nil main")
	}
	b.p.Main = main
	for _, s := range b.p.Subs {
		if s.Body == nil && s != main {
			panic(fmt.Sprintf("isa: subroutine %q has no body", s.Name))
		}
	}
	return b.p
}

// FixedTrips returns a trip-count function that ignores the input.
func FixedTrips(n int) func(Input) int { return func(Input) int { return n } }

// ScaledTrips returns a trip-count function that multiplies n by the
// input's Scale (minimum 1).
func ScaledTrips(n int) func(Input) int {
	return func(in Input) int {
		t := int(float64(n) * in.Scale)
		if t < 1 {
			t = 1
		}
		return t
	}
}

// ParamTrips returns a trip-count function reading a named input
// parameter with a default.
func ParamTrips(name string, def int) func(Input) int {
	return func(in Input) int { return in.Param(name, def) }
}

// FlagWhen returns a call predicate that requires a named input flag.
func FlagWhen(name string) func(Input) bool {
	return func(in Input) bool { return in.Flag(name) }
}
