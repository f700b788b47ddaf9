package workload

import (
	"testing"

	"repro/internal/isa"
)

// countInstrs measures the complete dynamic instruction count of a walk:
// the oracle Program.Count must match.
func countInstrs(p *isa.Program, in isa.Input) int64 {
	var c counter
	p.Walk(in, &c)
	return c.n
}

type counter struct{ n int64 }

func (c *counter) Instr(*isa.Instr) bool  { c.n++; return true }
func (c *counter) Marker(isa.Marker) bool { return true }

// TestCountMatchesWalk pins every suite window to the walk it sizes: for
// all 19 benchmarks under both inputs, Build's structural count must
// equal the number of instructions a full walk generates.
func TestCountMatchesWalk(t *testing.T) {
	for _, b := range Suite() {
		for _, name := range []string{"train", "ref"} {
			in, window := b.Input(name)
			if got := countInstrs(b.Prog, in); got != window {
				t.Errorf("%s/%s: window %d, walk generates %d", b.Name(), name, window, got)
			}
		}
	}
}

// BenchmarkBuildSuite measures a fresh suite build: every spec's program
// assembled and both of its windows sized.
func BenchmarkBuildSuite(b *testing.B) {
	specs := Specs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			Build(s)
		}
	}
}
