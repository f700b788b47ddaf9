package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestDecodeStrictRoundTrip(t *testing.T) {
	in := LeaseRequest{Versioned: Stamp(), WorkerID: "wk-1", WaitMS: 250}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out LeaseRequest
	if werr := DecodeStrict(b, &out); werr != nil {
		t.Fatalf("round trip: %v", werr)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestDecodeStrictRejectsUnknownField(t *testing.T) {
	var rr RegisterRequest
	werr := DecodeStrict([]byte(`{"proto":1,"name":"a","worker_count":4}`), &rr)
	if werr == nil {
		t.Fatal("unknown field accepted")
	}
	if werr.Code != CodeBadRequest {
		t.Fatalf("code = %s, want %s", werr.Code, CodeBadRequest)
	}
	if !strings.Contains(werr.Message, "worker_count") {
		t.Fatalf("message does not name the unknown field: %s", werr.Message)
	}
}

func TestDecodeStrictRejectsWrongProto(t *testing.T) {
	for _, body := range []string{
		`{"proto":2,"name":"a"}`, // future version
		`{"name":"a"}`,           // absent version
	} {
		var rr RegisterRequest
		werr := DecodeStrict([]byte(body), &rr)
		if werr == nil {
			t.Fatalf("%s accepted", body)
		}
		if werr.Code != CodeProtoUnsupported {
			t.Fatalf("%s: code = %s, want %s", body, werr.Code, CodeProtoUnsupported)
		}
		if werr.Field != "proto" {
			t.Fatalf("%s: field = %q, want proto", body, werr.Field)
		}
	}
}

func TestDecodeStrictRejectsMalformedJSON(t *testing.T) {
	var st Status
	if werr := DecodeStrict([]byte(`{"proto":1,`), &st); werr == nil || werr.Code != CodeBadRequest {
		t.Fatalf("malformed JSON: %v", werr)
	}
}

// TestDecodeStrictWholeFrame checks that a frame must be the entire
// body: trailing garbage and a second frame are refused, trailing
// whitespace is not, and an empty body is malformed.
func TestDecodeStrictWholeFrame(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"trailing garbage", `{"proto":1,"seq":3}garbage`, false},
		{"second frame", `{"proto":1,"seq":3}{"proto":1,"seq":4}`, false},
		{"second frame after newline", "{\"proto\":1,\"seq\":3}\n{\"proto\":1,\"seq\":4}\n", false},
		{"trailing bracket", `{"proto":1,"seq":3}}`, false},
		{"trailing newline", "{\"proto\":1,\"seq\":3}\n", true},
		{"trailing whitespace", "{\"proto\":1,\"seq\":3} \t\r\n ", true},
		{"empty body", "", false},
		{"whitespace body", " \n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ev Event
			werr := DecodeStrict([]byte(tc.body), &ev)
			if tc.ok {
				if werr != nil {
					t.Fatalf("refused: %v", werr)
				}
				if ev.Seq != 3 {
					t.Fatalf("seq = %d, want 3", ev.Seq)
				}
				return
			}
			if werr == nil || werr.Code != CodeBadRequest {
				t.Fatalf("got %v, want a %s error", werr, CodeBadRequest)
			}
		})
	}
}

func TestErrorRendersCodeAndField(t *testing.T) {
	e := &Error{Code: CodeBadRequest, Message: "no such knob", Field: "benchmarks"}
	s := e.Error()
	for _, want := range []string{"no such knob", CodeBadRequest, "benchmarks"} {
		if !strings.Contains(s, want) {
			t.Fatalf("error %q is missing %q", s, want)
		}
	}
}

// FuzzDecodeStrict feeds arbitrary bytes to the strict frame decoder as
// each frame a client decodes from the server: a stream event, the
// stream's terminal line, and the status a submission answers with. The
// contract: a structured *Error with a known code, or a value that
// re-encodes and decodes strictly to an equal value; never a panic.
func FuzzDecodeStrict(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip[Event](t, data)
		fuzzRoundTrip[StreamEnd](t, data)
		fuzzRoundTrip[Status](t, data)
	})
}

func fuzzRoundTrip[T any](t *testing.T, data []byte) {
	t.Helper()
	var v T
	if werr := DecodeStrict(data, &v); werr != nil {
		if werr.Code != CodeBadRequest && werr.Code != CodeProtoUnsupported {
			t.Fatalf("%T: unknown error code %q", v, werr.Code)
		}
		return
	}
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%T: decoded frame does not encode: %v", v, err)
	}
	var w T
	if werr := DecodeStrict(enc, &w); werr != nil {
		t.Fatalf("%T: re-encoded frame does not decode: %v\n%s", v, werr, enc)
	}
	if !reflect.DeepEqual(v, w) {
		t.Fatalf("%T: round trip changed the frame:\n%+v\n%+v", v, v, w)
	}
}
