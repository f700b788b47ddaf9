package wire

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/jsonscan"
	"repro/internal/jsonscan/jsonscantest"
	"repro/internal/sweep"
)

// decodeDirect decodes one whole frame through its member table and
// checks its version, as DecodeStatus does for a Status. Production
// reads events and terminal lines through DecodeStreamLine; the tests
// decode each frame kind on its own against DecodeStrict.
func decodeDirect[T any](data []byte, v *T, members jsonscan.Table[T]) *Error {
	if err := jsonscan.Decode(data, v, members); err != nil {
		return badFrame(err)
	}
	return checkProto(any(v).(interface{ Version() int }).Version())
}

// checkDirect decodes data as a T with the direct decoder and with
// DecodeStrict. Both must accept or refuse it alike, with the same error
// code and equal values, unless data spells a member name in another
// case: then the direct decoder alone refuses it, as bad_request. It
// returns the direct decoder's value and error.
func checkDirect[T any](t *testing.T, data []byte, members jsonscan.Table[T]) (T, *Error) {
	t.Helper()
	var got, want T
	werr := decodeDirect(data, &got, members)
	if jsonscantest.WrongCase(data, want) {
		if werr == nil || werr.Code != CodeBadRequest {
			t.Fatalf("%T: member name in another case: got %v, want a %s error", want, werr, CodeBadRequest)
		}
		return got, werr
	}
	owerr := DecodeStrict(data, &want)
	switch {
	case (werr == nil) != (owerr == nil):
		t.Fatalf("%T: direct error %v, DecodeStrict error %v", want, werr, owerr)
	case werr != nil:
		if werr.Code != owerr.Code {
			t.Fatalf("%T: direct code %q (%v), DecodeStrict code %q (%v)", want, werr.Code, werr, owerr.Code, owerr)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%T: values differ:\ndirect: %+v\nstrict: %+v", want, got, want)
	}
	return got, werr
}

// FuzzDecodeStreamLine holds the direct decoders of the three frames a
// client reads (a stream event, the terminal line and a Status) to
// DecodeStrict on arbitrary bytes, and DecodeStreamLine to the frame
// decoders: a line that decodes as an event is that event, one that
// decodes as a terminal frame with done true is that frame, and any
// other line is refused, as proto_unsupported only when one of those
// decodes refused it so.
func FuzzDecodeStreamLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, everr := checkDirect(t, data, eventMembers)
		end, enderr := checkDirect(t, data, streamEndMembers)
		checkDirect(t, data, statusMembers)

		var lev Event
		lend, lerr := DecodeStreamLine(data, &lev)
		switch {
		case everr == nil:
			if lerr != nil || lend != nil || !reflect.DeepEqual(lev, ev) {
				t.Fatalf("event line: got event %+v, end %+v, error %v; want %+v", lev, lend, lerr, ev)
			}
		case enderr == nil && end.Done:
			if lerr != nil || lend == nil || !reflect.DeepEqual(*lend, end) {
				t.Fatalf("terminal line: got end %+v, error %v; want %+v", lend, lerr, end)
			}
		default:
			want := CodeBadRequest
			if everr.Code == CodeProtoUnsupported || enderr != nil && enderr.Code == CodeProtoUnsupported && end.Done {
				want = CodeProtoUnsupported
			}
			if lerr == nil || lerr.Code != want {
				t.Fatalf("line accepted or refused with the wrong code: %v, want %s", lerr, want)
			}
		}
	})
}

// TestDecodeStreamLineWrongCase pins the one deliberate difference from
// DecodeStrict: a member name in another case is refused, at any depth,
// where encoding/json folds it onto the member.
func TestDecodeStreamLineWrongCase(t *testing.T) {
	for _, line := range []string{
		`{"PROTO":1,"Seq":3,"SOURCE":"disk"}`,
		`{"proto":1,"DONE":true,"status":{"proto":1,"id":"x","jobs":0,"done":0,"state":"complete"}}`,
		`{"proto":1,"done":true,"status":{"proto":1,"ID":"x","jobs":0,"done":0,"state":"complete"}}`,
		`{"proto":1,"seq":0,"job":{"Bench":"gzip","policy":"baseline"}}`,
		`{"proto":1,"seq":0,"outcome":{"result":{"instructions":1}}}`,
		`{"proto":1,"ſeq":0}`,
	} {
		var ev Event
		var end StreamEnd
		if DecodeStrict([]byte(line), &ev) != nil && DecodeStrict([]byte(line), &end) != nil {
			t.Fatalf("%s: DecodeStrict no longer folds case", line)
		}
		ev = Event{}
		lend, werr := DecodeStreamLine([]byte(line), &ev)
		if werr == nil || werr.Code != CodeBadRequest || lend != nil {
			t.Errorf("%s: got end %v, error %v; want a %s error", line, lend, werr, CodeBadRequest)
		}
	}
	var st Status
	if werr := DecodeStatus([]byte(`{"proto":1,"Id":"x"}`), &st); werr == nil || werr.Code != CodeBadRequest {
		t.Errorf("status with a member in another case: error %v", werr)
	}
}

// fill sets every field reachable from v, through nested structs and
// pointers, to its own non-zero value: integers and floats count up,
// strings name their count, bools are true, and slices hold two counts.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), n)
		fill(v.Index(1), n)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// checkTableCovers fills a T, encodes it with encoding/json and decodes
// it through the member table: every json field of T and of the types
// nested in it must come back, each into its own field.
func checkTableCovers[T any](t *testing.T, members jsonscan.Table[T]) {
	t.Helper()
	var want T
	n := 0
	fill(reflect.ValueOf(&want).Elem(), &n)
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got T
	if err := jsonscan.Decode(data, &got, members); err != nil {
		t.Fatalf("%T: a member table misses a field: %v\n%s", want, err, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: a member table decodes a field into another:\ngot:  %+v\nwant: %+v", want, got, want)
	}
}

// TestMemberTablesCoverFields guards the member tables against a field
// added to a frame, or to sim.Result, core.EditStats, sweep.Job,
// sweep.Outcome, sweep.Summary or sweep.PhaseBreakdown inside one,
// without a table entry: the test fails here rather than a live stream.
func TestMemberTablesCoverFields(t *testing.T) {
	checkTableCovers(t, eventMembers)
	checkTableCovers(t, streamEndMembers)
	checkTableCovers(t, statusMembers)
}

// checkRoundTrip decodes ev's AppendLine bytes with the direct decoder
// and requires ev back, with each invalid UTF-8 byte in a string read
// back as U+FFFD, since the encoder writes it so.
func checkRoundTrip(t *testing.T, ev Event) {
	t.Helper()
	line, err := ev.AppendLine(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Event
	if err := jsonscan.Decode(line, &got, eventMembers); err != nil {
		t.Fatalf("direct decode of %q: %v", line, err)
	}
	want := ev
	for _, s := range []*string{&want.Job.Bench, &want.Job.Policy, &want.Job.Scheme, &want.Key, &want.Source, &want.Error} {
		*s = string([]rune(*s))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip of %q:\ngot:  %+v\nwant: %+v", line, got, want)
	}
}

// restartLine is an event line shaped like the ones the serve-restart
// benchmark workload streams: a delta-sweep scheme job answered from
// the result cache, with a full outcome.
func restartLine(b testing.TB) []byte {
	out := &sweep.Outcome{StaticReconfig: 7, StaticInstr: 21}
	out.Res.Instructions = 13550
	out.Res.TimePs = 9823412345
	out.Res.EnergyPJ = 12345678.123456789
	out.Res.DomainPJ = []float64{3456789.0123456789, 2345678.9012345678, 1234567.8901234567, 987654.32109876543}
	out.Res.AvgMHz = []float64{987.65432109876, 876.54321098765, 765.43210987654}
	out.Res.SyncCrossings = 4523
	out.Res.SyncPenalties = 812
	out.Res.Mispredicts = 734
	out.Res.MispredictRate = 0.054169741697416974
	out.Res.IL1MissRate = 0.012345679012345678
	out.Res.DL1MissRate = 0.045678901234567890
	out.Res.L2MissRate = 0.12345678901234568
	out.Stats.DynReconfig = 12
	out.Stats.DynInstr = 345
	out.Stats.OverheadCycles = 1234
	out.Stats.OverheadPct = 0.12345678901234568
	ev := Event{
		Versioned: Stamp(),
		Seq:       17,
		Job:       sweep.Job{Bench: "gzip", Policy: sweep.PolicyScheme, Scheme: "L+F", Delta: 2.5},
		Key:       "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
		Source:    "disk",
		Elapsed:   183214,
		Outcome:   out,
	}
	line, err := ev.AppendLine(nil)
	if err != nil {
		b.Fatal(err)
	}
	return line
}

// BenchmarkDecodeStreamLine decodes one serve-restart-shaped event line
// per iteration with the direct decoder and, for comparison, with
// DecodeStrict.
func BenchmarkDecodeStreamLine(b *testing.B) {
	line := restartLine(b)
	b.Run("direct", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for range b.N {
			var ev Event
			if end, werr := DecodeStreamLine(line, &ev); werr != nil || end != nil {
				b.Fatal(end, werr)
			}
		}
	})
	b.Run("strict", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for range b.N {
			var ev Event
			if werr := DecodeStrict(line, &ev); werr != nil {
				b.Fatal(werr)
			}
		}
	})
}
