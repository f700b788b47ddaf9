package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sweep"
)

// encoderLine is what Event.AppendLine must reproduce: the line
// json.Encoder writes for the event, as the stream endpoint once did.
func encoderLine(t *testing.T, ev *Event) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(ev); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func checkLine(t *testing.T, label string, ev Event) {
	t.Helper()
	got, err := ev.AppendLine(nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if want := encoderLine(t, &ev); !bytes.Equal(got, want) {
		t.Errorf("%s:\ngot:  %q\nwant: %q", label, got, want)
	}
}

// TestEventLineAdversarial holds the direct event encoder to
// json.Encoder on the values that tell them apart: absent and present
// outcome and error, float format switchovers and negative zero, and
// strings that need HTML, line-separator or invalid-UTF-8 escaping in
// every string member.
func TestEventLineAdversarial(t *testing.T) {
	base := Event{
		Versioned: Stamp(),
		Seq:       7,
		Job:       sweep.Job{Bench: "gzip", Policy: sweep.PolicyScheme, Scheme: "L+F", Delta: 2.5},
		Key:       "3f2a",
		Source:    "disk",
		Elapsed:   12345,
	}
	checkLine(t, "nil outcome, no error", base)

	withErr := base
	withErr.Error = "sweep: job failed"
	checkLine(t, "error", withErr)

	out := &sweep.Outcome{GlobalMHz: 600, StaticReconfig: 3}
	out.Res.Instructions = 1000
	out.Res.DomainPJ = []float64{1.5, 2}
	out.Res.AvgMHz = []float64{}
	withOut := base
	withOut.Outcome = out
	checkLine(t, "outcome", withOut)
	withOut.Error = "partial"
	checkLine(t, "outcome and error", withOut)

	for _, f := range []float64{1e21, 1e-7, 0.1 + 0.2, math.Copysign(0, -1), -1e21, 1e-6, 1e20} {
		ev := base
		ev.Job.Delta = f
		ev.Job.Aggressiveness = f
		o := &sweep.Outcome{}
		o.Res.EnergyPJ = f
		o.Res.AvgMHz = []float64{f, -f}
		o.Stats.OverheadPct = f
		ev.Outcome = o
		checkLine(t, "float", ev)
	}

	for _, s := range []string{
		"<html>&amp;", "line\u2028para\u2029sep", "invalid\xff\xfeutf8",
		`quote"back\slash`, "ctrl\x00\x1f\t\n", "",
	} {
		ev := base
		ev.Job.Bench = s
		ev.Key = s
		ev.Source = s
		ev.Error = s
		checkLine(t, "string "+s, ev)
	}

	// The zero event still has every non-omitempty member.
	checkLine(t, "zero", Event{})

	// A non-finite float errors, as json.Encoder does.
	bad := base
	bad.Outcome = &sweep.Outcome{}
	bad.Outcome.Res.EnergyPJ = math.NaN()
	if _, err := bad.AppendLine(nil); err == nil {
		t.Error("NaN outcome: want an error")
	}
	bad = base
	bad.Job.Delta = math.Inf(1)
	if _, err := bad.AppendLine(nil); err == nil {
		t.Error("infinite delta: want an error")
	}
}

// TestEventLineRandomized cross-checks the event encoder against
// json.Encoder on pseudo-random events (fixed seed), and the direct
// decoder against the encoder: each line decodes back to its event.
func TestEventLineRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randStr := func() string {
		b := make([]byte, rng.Intn(3)*rng.Intn(10))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	randFloat := func() float64 {
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	for i := 0; i < 1000; i++ {
		ev := Event{
			Versioned: Versioned{Proto: rng.Intn(3)},
			Seq:       rng.Intn(1 << 20),
			Job: sweep.Job{
				Bench: randStr(), Policy: randStr(), Scheme: randStr(),
				Delta: float64(rng.Intn(2)) * randFloat(), MHz: rng.Intn(2) * rng.Intn(1000),
			},
			Key:     randStr(),
			Source:  randStr(),
			Elapsed: rng.Int63() - rng.Int63(),
			Error:   randStr(),
		}
		if rng.Intn(2) == 0 {
			o := &sweep.Outcome{StaticInstr: rng.Intn(2) * rng.Intn(100)}
			o.Res.TimePs = rng.Int63()
			o.Res.EnergyPJ = randFloat()
			o.Res.DomainPJ = []float64{randFloat()}
			ev.Outcome = o
		}
		checkLine(t, "random event", ev)
		checkRoundTrip(t, ev)
		if t.Failed() {
			t.Fatalf("first mismatch at iteration %d", i)
		}
	}
}
