package isa

// tapeConsumer records everything it sees, tagging order.
type tapeConsumer struct {
	instrs  []Instr
	markers []Marker
	order   []byte // 'i' or 'm'
	stopAt  int    // stop after this many instructions; 0 = never
}

func (c *tapeConsumer) Instr(ins *Instr) bool {
	c.instrs = append(c.instrs, *ins)
	c.order = append(c.order, 'i')
	return c.stopAt == 0 || len(c.instrs) < c.stopAt
}

func (c *tapeConsumer) Marker(m Marker) bool {
	c.markers = append(c.markers, m)
	c.order = append(c.order, 'm')
	return true
}

func streamProg() *Program {
	b := NewBuilder("streamtest")
	inner := b.Subroutine("inner")
	b.SetBody(inner, b.Block(Branchy, 40))
	main := b.Subroutine("main")
	b.SetBody(main,
		b.Block(Balanced, 25),
		b.Loop(FixedTrips(3), b.Block(MemBound, 10), b.Call(inner)),
		b.Block(FPHeavy, 15),
	)
	return b.Finish(main)
}
