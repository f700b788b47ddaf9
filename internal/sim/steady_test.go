package sim_test

import (
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/control"
	"repro/internal/isa"
	"repro/internal/sim"
)

// collect captures the first n instructions of a program walk.
func collect(prog *isa.Program, in isa.Input, n int) []isa.Instr {
	c := &collectConsumer{want: n}
	prog.Walk(in, c)
	return c.instrs
}

type collectConsumer struct {
	instrs []isa.Instr
	want   int
}

func (c *collectConsumer) Instr(ins *isa.Instr) bool {
	c.instrs = append(c.instrs, *ins)
	return len(c.instrs) < c.want
}

func (c *collectConsumer) Marker(isa.Marker) bool { return true }

// TestSteadyStateAllocFree locks in the hot-path invariant: once a
// machine has warmed up, simulating an instruction performs zero heap
// allocations. A regression here turns every sweep into GC churn, so it
// is tier-1.
//
// The count is runtime.MemStats.Mallocs over 30,000 instructions, not
// testing.AllocsPerRun, which divides by its run count and so reads 0
// for anything rarer than one allocation per run. Each machine's seed is
// one no other test uses, so its synchronizer's jitter tape starts cold
// and the window includes tape extensions.
//
// With the on-line controller attached, each DVFS ramp appends to its
// domain's frequency history (clock.Schedule keeps every segment for
// the run's energy accounting), so that history's amortized doubling is
// the one allocation allowed, and it must account for every malloc.
func TestSteadyStateAllocFree(t *testing.T) {
	const (
		seed   = 0x5eed15
		warmup = 50_000
		window = 30_000
	)
	b := isa.NewBuilder("allocfree")
	main := b.Subroutine("main")
	b.SetBody(main, b.Block(isa.Balanced, 100_000))
	prog := b.Finish(main)
	instrs := collect(prog, isa.Input{Name: "train"}, warmup+window)

	for i, tc := range []struct {
		name   string
		attach func(*sim.Machine)
	}{
		{"baseline", func(*sim.Machine) {}},
		{"online", func(m *sim.Machine) { control.NewAttackDecay(control.DefaultAttackDecay()).Attach(m) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			cfg.Seed = seed + int64(i)
			m := sim.New(cfg)
			tc.attach(m)
			for i := range instrs[:warmup] {
				m.Instr(&instrs[i])
			}
			domains := m.Topology().NumDomains()
			caps := make([]int, domains)
			for d := range caps {
				caps[d] = cap(m.Clock(arch.Domain(d)).Segments())
			}
			var grown uint64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range instrs[warmup:] {
				m.Instr(&instrs[warmup+i])
				for d := range caps {
					if c := cap(m.Clock(arch.Domain(d)).Segments()); c != caps[d] {
						caps[d] = c
						grown++
					}
				}
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != grown {
				t.Fatalf("%d instructions after warm-up allocate %d times, %d of them frequency-history growth; want no other allocation",
					window, n, grown)
			}
			if tc.name == "baseline" && grown != 0 {
				t.Fatalf("baseline machine grew its frequency history %d times", grown)
			}
		})
	}
}
