package sweep

import (
	"strings"
	"testing"
)

// TestParseManifestStrict pins the shared validator's parse contract:
// unknown fields and malformed JSON are bad_json, an unsupported
// schema version is invalid_manifest attributed to "schema", and both
// the omitted and current version parse.
func TestParseManifestStrict(t *testing.T) {
	cases := []struct {
		name  string
		body  string
		code  string // "" means accept
		field string
	}{
		{"current schema", `{"schema": 1, "benchmarks": ["gzip"]}`, "", ""},
		{"legacy no schema", `{"benchmarks": ["gzip"]}`, "", ""},
		{"future schema", `{"schema": 2}`, ErrInvalidManifest, "schema"},
		{"unknown field", `{"benchmark": ["gzip"]}`, ErrBadJSON, ""},
		{"syntax error", `{"benchmarks": [`, ErrBadJSON, ""},
		{"trailing data", `{"benchmarks": ["gzip"]} {}`, ErrBadJSON, ""},
		{"trailing bracket", `{"benchmarks": ["gzip"]}]`, ErrBadJSON, ""},
		{"trailing brace", `{"benchmarks": ["gzip"]}}`, ErrBadJSON, ""},
		{"trailing brace after newline", "{\"benchmarks\": [\"gzip\"]}\n}", ErrBadJSON, ""},
		{"trailing garbage", `{"benchmarks": ["gzip"]}x`, ErrBadJSON, ""},
		{"trailing newline", "{\"benchmarks\": [\"gzip\"]}\n", "", ""},
		{"trailing whitespace", "{\"benchmarks\": [\"gzip\"]} \t\r\n", "", ""},
		{"wrong type", `{"benchmarks": "gzip"}`, ErrBadJSON, ""},
		// encoding/json matches member names case-insensitively; the
		// manifest does not.
		{"upper-case members", `{"BENCHMARKS": ["gzip"], "Policies": ["baseline"]}`, ErrBadJSON, "benchmarks"},
		{"capitalised member", `{"Policies": ["baseline"]}`, ErrBadJSON, "policies"},
		{"mixed-case member", `{"delta_PCT": 2}`, ErrBadJSON, "delta_pct"},
		{"wrong case beside right case", `{"benchmarks": ["gzip"], "BENCHMARKS": ["mcf"]}`, ErrBadJSON, "benchmarks"},
		{"wrong-case schema", `{"Schema": 1}`, ErrBadJSON, "schema"},
		{"long s folds to s", "{\"\u017fchema\": 1}", ErrBadJSON, "schema"},
		{"escaped exact name", `{"benchm\u0061rks": ["gzip"]}`, "", ""},
		{"escaped wrong case", `{"BENCHM\u0041RKS": ["gzip"]}`, ErrBadJSON, "benchmarks"},
		{"wrong case in a value only", `{"name": "BENCHMARKS:", "benchmarks": ["gzip"]}`, "", ""},
		{"escaped quotes in a value", `{"name": "\"BENCHMARKS\": 1", "benchmarks": ["gzip"]}`, "", ""},
		{"one escaped quote in a value", `{"name": "say \"BENCHMARKS", "benchmarks": ["gzip"]}`, "", ""},
	}
	for _, c := range cases {
		m, verr := ParseManifest([]byte(c.body))
		if c.code == "" {
			if verr != nil {
				t.Errorf("%s: rejected: %v", c.name, verr)
			} else if m == nil {
				t.Errorf("%s: nil manifest", c.name)
			}
			continue
		}
		if verr == nil {
			t.Errorf("%s: accepted, want code %s", c.name, c.code)
			continue
		}
		if verr.Code != c.code || verr.Field != c.field {
			t.Errorf("%s: got (%s, field %q), want (%s, field %q)",
				c.name, verr.Code, verr.Field, c.code, c.field)
		}
	}
}

// TestValidateManifestFields pins field attribution for semantic
// failures — the same triple the daemon returns and the CLI prints.
func TestValidateManifestFields(t *testing.T) {
	cases := []struct {
		name  string
		m     Manifest
		field string
	}{
		{"topology", Manifest{Topology: "hexa12"}, "topology"},
		{"benchmarks", Manifest{Benchmarks: []string{"nope"}}, "benchmarks"},
		{"policies", Manifest{Policies: []string{"nope"}}, "policies"},
		{"schemes", Manifest{Schemes: []string{"nope"}, Policies: []string{PolicyScheme}}, "schemes"},
		{"recording cache", Manifest{RecordingCache: -1}, "recording_cache"},
		{"cross-field", Manifest{Benchmarks: []string{"gzip"}, Policies: []string{PolicyOnline}, Aggressiveness: []float64{-1}}, ""},
	}
	for _, c := range cases {
		_, verr := ValidateManifest(&c.m)
		if verr == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if verr.Code != ErrInvalidManifest || verr.Field != c.field {
			t.Errorf("%s: got (%s, field %q), want (invalid_manifest, field %q)",
				c.name, verr.Code, verr.Field, c.field)
		}
	}
	m := Manifest{Benchmarks: []string{"gzip"}, Policies: []string{PolicyBaseline, PolicySingleClock}}
	jobs, verr := ValidateManifest(&m)
	if verr != nil || len(jobs) != 2 {
		t.Fatalf("valid manifest: jobs %d, err %v", len(jobs), verr)
	}
}

// TestValidationErrorText pins the CLI rendering: code and field are in
// the error string a wrapped LoadManifest failure prints.
func TestValidationErrorText(t *testing.T) {
	e := &ValidationError{Code: ErrInvalidManifest, Field: "topology", Message: "unknown topology"}
	s := e.Error()
	for _, want := range []string{ErrInvalidManifest, `"topology"`, "unknown topology"} {
		if !strings.Contains(s, want) {
			t.Errorf("error text %q missing %q", s, want)
		}
	}
}
