package isa

// Feeder yields the dynamic stream of one (program, input) pair to a
// consumer. Program generation implements it by walking (regenerating
// the stream from the tree and the deterministic RNG); a PackedStream
// implements it by replay. Consumers cannot tell the two apart:
// the sequences are identical item for item.
type Feeder interface {
	Feed(c Consumer)
}

// Feeder returns the generating feeder for an input: each Feed call
// performs a fresh deterministic walk.
func (p *Program) Feeder(in Input) Feeder { return walkFeeder{p: p, in: in} }

type walkFeeder struct {
	p  *Program
	in Input
}

func (f walkFeeder) Feed(c Consumer) { f.p.Walk(f.in, c) }
