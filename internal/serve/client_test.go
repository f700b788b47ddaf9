package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jsonscan/jsonscantest"
	"repro/internal/serve/wire"
)

// followLineOracle is how Follow handled a stream line before each line
// was decoded once: a lenient probe for "done", then a strict decode as
// the frame the probe named. It is wire.DecodeStreamLine's reference
// behavior; a probe failure is a bad_request, as any strict decode
// failure is.
func followLineOracle(line []byte) (*Event, *wire.StreamEnd, *wire.Error) {
	var probe struct {
		Done bool `json:"done"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return nil, nil, &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	if probe.Done {
		var end wire.StreamEnd
		if werr := wire.DecodeStrict(line, &end); werr != nil {
			return nil, nil, werr
		}
		return nil, &end, nil
	}
	var ev Event
	if werr := wire.DecodeStrict(line, &ev); werr != nil {
		return nil, nil, werr
	}
	return &ev, nil, nil
}

// FuzzFollowLine feeds arbitrary bytes to Follow's line decoder and to
// the probe-then-strict oracle. They must accept and reject the same
// lines, with the same wire error code, the same frame kind and equal
// decoded values, except for a line that spells a member name in
// another case: the oracle folds it, as encoding/json does, and the
// line decoder must refuse it as bad_request.
func FuzzFollowLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		var ev Event
		end, werr := wire.DecodeStreamLine(line, &ev)
		if jsonscantest.WrongCase(line, wire.Event{}) || jsonscantest.WrongCase(line, wire.StreamEnd{}) {
			if werr == nil || werr.Code != wire.CodeBadRequest {
				t.Fatalf("member name in another case: got end %v, error %v; want a %s error", end, werr, wire.CodeBadRequest)
			}
			return
		}
		oev, oend, owerr := followLineOracle(line)
		switch {
		case (werr == nil) != (owerr == nil):
			t.Fatalf("decoder error %v, oracle error %v", werr, owerr)
		case werr != nil:
			if werr.Code != owerr.Code {
				t.Fatalf("decoder code %q (%v), oracle code %q (%v)", werr.Code, werr, owerr.Code, owerr)
			}
		case (end != nil) != (oend != nil):
			t.Fatalf("decoder terminal=%v, oracle terminal=%v", end != nil, oend != nil)
		case end != nil:
			if !reflect.DeepEqual(*end, *oend) {
				t.Fatalf("terminal lines differ:\n%+v\n%+v", *end, *oend)
			}
		default:
			if !reflect.DeepEqual(ev, *oev) {
				t.Fatalf("events differ:\n%+v\n%+v", ev, *oev)
			}
		}
	})
}

// streamOf serves body as a sweep's NDJSON stream.
func streamOf(t *testing.T, body string) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return &Client{BaseURL: ts.URL}
}

// TestFollowStrictWithoutCallback checks that Follow strict-decodes
// every event line even when the caller takes no events: a line that is
// not a valid event fails the stream instead of being skipped.
func TestFollowStrictWithoutCallback(t *testing.T) {
	end := `{"proto":1,"done":true,"status":{"proto":1,"id":"sw-1","jobs":1,"done":1,"state":"complete"}}` + "\n"
	good := `{"proto":1,"seq":0,"job":{"bench":"gzip","policy":"baseline"},"key":"k","source":"disk","elapsed_ns":5}` + "\n"
	st, err := streamOf(t, good+end).Follow("sw-1", 0, nil)
	if err != nil || st.ID != "sw-1" || st.State != StateComplete {
		t.Fatalf("valid stream: status %+v, error %v", st, err)
	}
	for _, bad := range []string{
		`{"proto":1,"seq":0,"bogus":1}`,
		`{"proto":2,"seq":0,"job":{"bench":"gzip","policy":"baseline"},"key":"k","source":"disk","elapsed_ns":5}`,
		`{"proto":1,"seq":"zero"}`,
		`{"done":false}`,
	} {
		_, err := streamOf(t, bad+"\n"+end).Follow("sw-1", 0, nil)
		var werr *wire.Error
		if !errors.As(err, &werr) {
			t.Errorf("%s: nil callback accepted a bad event line (error %v)", bad, err)
			continue
		}
		if !strings.HasPrefix(err.Error(), "server: stream line: ") {
			t.Errorf("%s: error %q", bad, err)
		}
	}
}

// TestFollowRefusesWrongCase checks that Follow refuses a stream line
// that spells a member name in another case, which encoding/json would
// fold onto the member: an event's and the terminal line's.
func TestFollowRefusesWrongCase(t *testing.T) {
	end := `{"proto":1,"done":true,"status":{"proto":1,"id":"sw-1","jobs":1,"done":1,"state":"complete"}}` + "\n"
	for _, bad := range []string{
		`{"PROTO":1,"Seq":3,"job":{"bench":"gzip","policy":"baseline"},"key":"k","SOURCE":"disk","elapsed_ns":5}` + "\n" + end,
		`{"proto":1,"seq":0,"job":{"Bench":"gzip","policy":"baseline"},"key":"k","source":"disk","elapsed_ns":5}` + "\n" + end,
		`{"proto":1,"DONE":true,"status":{"proto":1,"id":"sw-1","jobs":1,"done":1,"state":"complete"}}` + "\n",
		`{"proto":1,"done":true,"Status":{"proto":1,"id":"sw-1","jobs":1,"done":1,"state":"complete"}}` + "\n",
	} {
		st, err := streamOf(t, bad).Follow("sw-1", 0, nil)
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Code != wire.CodeBadRequest {
			t.Errorf("%s: status %+v, error %v; want a %s error", bad, st, err, wire.CodeBadRequest)
		}
	}
}
