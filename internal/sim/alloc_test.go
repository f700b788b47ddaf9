package sim

import (
	"testing"

	"repro/internal/isa"
)

// TestSetTracerTypedNil verifies that detaching observers with a typed
// nil restores the no-dispatch fast path instead of leaving a non-nil
// interface wrapping a nil pointer (which would panic on first use).
func TestSetTracerTypedNil(t *testing.T) {
	m := New(DefaultConfig())
	var tr *panicTracer // typed nil
	var ms *panicSink   // typed nil
	m.SetTracer(tr)
	m.SetMarkerSink(ms)

	b := isa.NewBuilder("typednil")
	main := b.Subroutine("main")
	b.SetBody(main, b.Block(isa.Balanced, 100))
	prog := b.Finish(main)
	// Would panic via the typed-nil interface if the fast path were not
	// restored.
	prog.Walk(isa.Input{Name: "train"}, &isa.CountingConsumer{Inner: m, Budget: 100})
	if m.Seq() != 100 {
		t.Fatalf("simulated %d instructions, want 100", m.Seq())
	}

	// Attach-then-detach with untyped nil behaves the same.
	m2 := New(DefaultConfig())
	m2.SetTracer(&countTracer{})
	m2.SetTracer(nil)
	m2.SetMarkerSink(&countSink{})
	m2.SetMarkerSink(nil)
	prog.Walk(isa.Input{Name: "train"}, &isa.CountingConsumer{Inner: m2, Budget: 100})
	if m2.Seq() != 100 {
		t.Fatalf("simulated %d instructions after detach, want 100", m2.Seq())
	}
}

type panicTracer struct{}

func (*panicTracer) Trace(int64, *isa.Instr, *Times) { panic("typed-nil tracer invoked") }

type panicSink struct{}

func (*panicSink) MachineMarker(isa.Marker, int64) { panic("typed-nil sink invoked") }

type countTracer struct{ n int64 }

func (c *countTracer) Trace(int64, *isa.Instr, *Times) { c.n++ }

type countSink struct{ n int64 }

func (c *countSink) MachineMarker(isa.Marker, int64) { c.n++ }
