package isa

import "testing"

// walkCount counts the instructions a complete walk generates: the
// oracle Count must match.
func walkCount(p *Program, in Input) int64 {
	var c instrCounter
	p.Walk(in, &c)
	return int64(c)
}

type instrCounter int64

func (c *instrCounter) Instr(*Instr) bool  { *c++; return true }
func (c *instrCounter) Marker(Marker) bool { return true }

// TestCountHandBuilt checks Count against a hand-computed total and the
// walk on programs built around each control-flow edge case.
func TestCountHandBuilt(t *testing.T) {
	train := Input{Name: "train", Scale: 1}
	cases := []struct {
		name  string
		build func(b *Builder, main *Subroutine)
		in    Input
		want  int64
	}{
		{"nby-nonpositive", func(b *Builder, main *Subroutine) {
			b.SetBody(main,
				b.BlockBy(IntHeavy, 10, func(Input) int { return 0 }),
				b.BlockBy(IntHeavy, 10, func(Input) int { return -4 }),
				b.Block(IntHeavy, 7))
		}, train, 7},
		{"zero-trips", func(b *Builder, main *Subroutine) {
			b.SetBody(main, b.Loop(FixedTrips(0), b.Block(Balanced, 5)), b.Block(IntHeavy, 3))
		}, train, 3},
		{"negative-trips", func(b *Builder, main *Subroutine) {
			b.SetBody(main, b.Loop(FixedTrips(-2), b.Block(Balanced, 5)), b.Block(IntHeavy, 3))
		}, train, 3},
		{"seq-below-one", func(b *Builder, main *Subroutine) {
			// Four instances with 2, 0, -1 and 3 trips: the skipped
			// instances still consume their sequence numbers.
			l := b.Loop(nil, b.Block(Balanced, 4))
			l.TripsBySeq = func(_ Input, seq int) int { return []int{2, 0, -1, 3}[seq%4] }
			b.SetBody(main, l, l, l, l)
		}, train, (2 + 3) * (4 + 1)},
		{"seq-nested-two-sites", func(b *Builder, main *Subroutine) {
			// f's inner loop runs seq+1 trips; two calls of f run it
			// 1, 2 (first site) then 3, 4 (second site) times.
			f := b.Subroutine("f")
			inner := b.Loop(nil, b.Block(FPHeavy, 3))
			inner.TripsBySeq = func(_ Input, seq int) int { return seq + 1 }
			b.SetBody(f, b.Loop(FixedTrips(2), inner))
			b.SetBody(main, b.Call(f), b.Block(IntHeavy, 1), b.Call(f))
		}, train, (1*4 + 2*4 + 2) + 1 + (3*4 + 4*4 + 2)},
		{"call-when-false", func(b *Builder, main *Subroutine) {
			g := b.Subroutine("g")
			b.SetBody(g, b.Block(MemBound, 10))
			b.SetBody(main,
				b.CallWhen(g, FlagWhen("x")),
				b.CallWhen(g, func(in Input) bool { return in.Name == "ref" }),
				b.Block(IntHeavy, 2),
				b.Call(g))
		}, train, 12},
		{"scale-zero", func(b *Builder, main *Subroutine) {
			// Scale 0 means 1, so ScaledTrips(3) runs 3 trips, not 1.
			b.SetBody(main, b.Loop(ScaledTrips(3), b.Block(Stream, 4)))
		}, Input{Name: "train"}, 3 * (4 + 1)},
		{"simple", nil, train, 10 + 3*51 + 200},
	}
	for _, tc := range cases {
		p := simpleProgram()
		if tc.build != nil {
			b := NewBuilder(tc.name)
			main := b.Subroutine("main")
			tc.build(b, main)
			p = b.Finish(main)
		}
		if got := p.Count(tc.in); got != tc.want {
			t.Errorf("%s: Count = %d, want %d", tc.name, got, tc.want)
		}
		if got := walkCount(p, tc.in); got != tc.want {
			t.Errorf("%s: walk generates %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Caps on fuzzed program shapes: at most fuzzMaxNodes nodes per body,
// loops and calls nested at most fuzzMaxDepth deep, blocks of at most
// fuzzMaxBlock instructions and loops of at most fuzzMaxTrips trips, so
// a walk stays under 7e4 instructions.
const (
	fuzzMaxDepth = 3
	fuzzMaxNodes = 3
	fuzzMaxBlock = 31
	fuzzMaxTrips = 3
)

// fuzzShape decodes fuzz bytes into a program, reading zeros once the
// bytes run out.
type fuzzShape struct {
	src   []byte
	b     *Builder
	subs  []*Subroutine
	depth []int // depth each sub's body was built at
}

func (g *fuzzShape) next() int {
	if len(g.src) == 0 {
		return 0
	}
	v := int(g.src[0])
	g.src = g.src[1:]
	return v
}

// trips returns a trip count in [-2, fuzzMaxTrips].
func (g *fuzzShape) trips() int { return g.next()%(fuzzMaxTrips+3) - 2 }

func (g *fuzzShape) body(depth int) []Node {
	mixes := []*Mix{IntHeavy, Balanced, Branchy, FPHeavy, MemBound, Stream}
	var nodes []Node
	for n := 1 + g.next()%fuzzMaxNodes; len(nodes) < n; {
		op := g.next() % 6
		if depth >= fuzzMaxDepth && (op == 2 || op == 3 || op == 4) {
			op = 0
		}
		mix := mixes[len(nodes)%len(mixes)]
		switch op {
		case 0:
			nodes = append(nodes, g.b.Block(mix, 1+g.next()%fuzzMaxBlock))
		case 1:
			// Sizes in [-8, fuzzMaxBlock], differing per input.
			tn, rn := g.next()%(fuzzMaxBlock+9)-8, g.next()%(fuzzMaxBlock+9)-8
			nodes = append(nodes, g.b.BlockBy(mix, 8, func(in Input) int {
				if in.Name == "train" {
					return tn
				}
				return rn
			}))
		case 2:
			var trips func(Input) int
			switch mode, tt, rt := g.next()%3, g.trips(), g.trips(); mode {
			case 0:
				trips = FixedTrips(tt)
			case 1:
				trips = func(in Input) int {
					if in.Name == "train" {
						return tt
					}
					return rt
				}
			default:
				trips = func(in Input) int { return int(float64(tt) * in.Scale) }
			}
			nodes = append(nodes, g.b.Loop(trips, g.body(depth+1)...))
		case 3:
			// Trips in [-1, fuzzMaxTrips] varying with the instance.
			a, s, m := g.next(), g.next(), 1+g.next()%(fuzzMaxTrips+2)
			l := g.b.Loop(nil, g.body(depth+1)...)
			l.TripsBySeq = func(_ Input, seq int) int { return (a+s*seq)%m - 1 }
			nodes = append(nodes, l)
		case 4:
			nodes = append(nodes, g.call(depth))
		case 5:
			// Repeat the previous node: a second instance of the same
			// loop or call site.
			if len(nodes) == 0 {
				nodes = append(nodes, g.b.Block(mix, 1+g.next()%fuzzMaxBlock))
			} else {
				nodes = append(nodes, nodes[len(nodes)-1])
			}
		}
	}
	return nodes
}

// call reuses a subroutine built deeper than depth (so call graphs stay
// acyclic and within the depth cap) or builds a fresh one.
func (g *fuzzShape) call(depth int) *Call {
	var eligible []*Subroutine
	for i, s := range g.subs {
		if g.depth[i] > depth {
			eligible = append(eligible, s)
		}
	}
	var target *Subroutine
	if k := g.next() % (len(eligible) + 1); k < len(eligible) {
		target = eligible[k]
	} else {
		target = g.b.Subroutine("sub")
		g.subs = append(g.subs, target)
		g.depth = append(g.depth, depth+1)
		g.b.SetBody(target, g.body(depth+1)...)
	}
	switch g.next() % 3 {
	case 1:
		return g.b.CallWhen(target, FlagWhen("x"))
	case 2:
		return g.b.CallWhen(target, func(in Input) bool { return in.Name == "train" })
	}
	return g.b.Call(target)
}

// FuzzProgramCount checks Count against a full walk on bounded random
// program shapes under two inputs (the training one with Scale 0).
func FuzzProgramCount(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzShape{src: data, b: NewBuilder("fuzz")}
		main := g.b.Subroutine("main")
		g.b.SetBody(main, g.body(0)...)
		p := g.b.Finish(main)
		for _, in := range []Input{
			{Name: "train", Seed: 3},
			{Name: "ref", Seed: 5, Scale: 1, Flags: map[string]bool{"x": true}},
		} {
			got, want := p.Count(in), walkCount(p, in)
			if got != want {
				t.Fatalf("%s: Count = %d, walk generates %d", in.Name, got, want)
			}
			if want > 7e4 {
				t.Fatalf("%s: walk of %d instructions escapes the shape caps", in.Name, want)
			}
		}
	})
}
