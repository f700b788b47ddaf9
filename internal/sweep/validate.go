package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"repro/internal/arch"
	"repro/internal/calltree"
	"repro/internal/workload"
)

// Manifest validation shared by every submission surface. The CLI
// (cmd/mcdsweep) and the daemon (internal/serve) both parse through
// ParseManifest and validate through ValidateManifest, so a mistake
// reports the same structured (code, message, field) triple whether it
// arrives on the command line or over HTTP.

// Validation error codes.
const (
	// ErrBadJSON means the submission is not valid JSON for the
	// manifest shape (syntax error, wrong type, or an unknown field).
	ErrBadJSON = "bad_json"
	// ErrInvalidManifest means the JSON parsed but names something the
	// build does not register, or an out-of-range parameter.
	ErrInvalidManifest = "invalid_manifest"
)

// ManifestSchema is the manifest schema version this build writes and
// accepts. Version 0 (the field omitted) is the legacy pre-versioning
// shape and parses identically.
const ManifestSchema = 1

// ValidationError is a structured manifest error: a machine-readable
// code, a human message, and, when attributable, the manifest field
// that caused it. It is the exact payload the daemon returns in its
// error body and the CLI renders on stderr.
type ValidationError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

func (e *ValidationError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("%s (field %q): %s", e.Code, e.Field, e.Message)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// ParseManifest decodes manifest JSON strictly: unknown fields, and
// known ones spelt in another case, are rejected (a typoed key silently
// meaning "sweep everything" is the worst failure mode a grid format
// can have), and the schema version must be one this build understands.
func ParseManifest(data []byte) (*Manifest, *ValidationError) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, &ValidationError{Code: ErrBadJSON, Message: "manifest: " + err.Error()}
	}
	// The manifest must be the whole input: only JSON whitespace may
	// follow it. (dec.More reports false before a stray '}' or ']'.)
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, &ValidationError{Code: ErrBadJSON,
			Message: fmt.Sprintf("manifest: %d bytes of trailing data after JSON object", len(rest))}
	}
	if verr := exactManifestKeys(data); verr != nil {
		return nil, verr
	}
	if m.Schema != 0 && m.Schema != ManifestSchema {
		return nil, &ValidationError{
			Code:    ErrInvalidManifest,
			Field:   "schema",
			Message: fmt.Sprintf("manifest: unsupported schema version %d (this build supports %d)", m.Schema, ManifestSchema),
		}
	}
	return &m, nil
}

// manifestTags is the Manifest struct's json tags: the exact member
// names a manifest may use.
var manifestTags = func() []string {
	t := reflect.TypeOf(Manifest{})
	tags := make([]string, t.NumField())
	for i := range tags {
		tags[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return tags
}()

// exactManifestKeys refuses a member that names a Manifest field in
// another case: encoding/json folds case (as strings.EqualFold does),
// so DisallowUnknownFields lets {"BENCHMARKS": ...} through. data has
// already decoded as a Manifest, so it is valid JSON with no nested
// object, and every string followed by a colon is a top-level member
// name. The scan allocates only to unescape a name with escapes.
func exactManifestKeys(data []byte) *ValidationError {
	for i := 0; i < len(data); i++ {
		if data[i] != '"' {
			continue
		}
		end := i + 1
		for ; data[end] != '"'; end++ {
			if data[end] == '\\' {
				end++
			}
		}
		name := data[i+1 : end]
		quoted := data[i : end+1]
		i = end
		if rest := bytes.TrimLeft(data[end+1:], " \t\r\n"); len(rest) == 0 || rest[0] != ':' {
			continue
		}
		if bytes.IndexByte(name, '\\') >= 0 {
			var s string
			_ = json.Unmarshal(quoted, &s) // a valid JSON string
			name = []byte(s)
		}
		for _, tag := range manifestTags {
			if string(name) != tag && strings.EqualFold(string(name), tag) {
				return &ValidationError{Code: ErrBadJSON, Field: tag,
					Message: fmt.Sprintf("manifest: field %q is spelt in another case; member names are case-sensitive", tag)}
			}
		}
	}
	return nil
}

// ValidateManifest checks a parsed manifest and returns its enumerated
// job grid. Failures are attributed to the manifest field that caused
// them, and every check runs through the same validation path direct
// job construction hits (Job.Validate, arch.TopologyByName), so an
// unknown topology, policy or scheme reports the identical
// registered-name listing on every surface.
func ValidateManifest(m *Manifest) ([]Job, *ValidationError) {
	if _, err := arch.TopologyByName(m.Topology); err != nil {
		return nil, &ValidationError{Code: ErrInvalidManifest, Field: "topology", Message: err.Error()}
	}
	if m.RecordingCache < 0 {
		return nil, &ValidationError{
			Code:    ErrInvalidManifest,
			Field:   "recording_cache",
			Message: fmt.Sprintf("manifest: recording_cache %d out of range", m.RecordingCache),
		}
	}
	if m.TrainWorkers < 0 {
		return nil, &ValidationError{
			Code:    ErrInvalidManifest,
			Field:   "train_workers",
			Message: fmt.Sprintf("manifest: train_workers %d out of range", m.TrainWorkers),
		}
	}
	// Probe each grid dimension with a minimal job so the error text is
	// Job.Validate's own.
	probeBench := workload.Names()[0]
	for _, b := range m.Benchmarks {
		if err := (Job{Bench: b, Policy: PolicyBaseline}).Validate(); err != nil {
			return nil, &ValidationError{Code: ErrInvalidManifest, Field: "benchmarks", Message: err.Error()}
		}
	}
	probeScheme := calltree.Schemes()[0].Name
	for _, p := range m.Policies {
		// The scheme policy's own validation needs a scheme; probe it
		// with a registered one so only the policy name is under test.
		j := Job{Bench: probeBench, Policy: p}
		if p == PolicyScheme {
			j.Scheme = probeScheme
		}
		if err := j.Validate(); err != nil {
			return nil, &ValidationError{Code: ErrInvalidManifest, Field: "policies", Message: err.Error()}
		}
	}
	for _, sc := range m.Schemes {
		if err := (Job{Bench: probeBench, Policy: PolicyScheme, Scheme: sc}).Validate(); err != nil {
			return nil, &ValidationError{Code: ErrInvalidManifest, Field: "schemes", Message: err.Error()}
		}
	}
	// Full enumeration catches everything else (parameter ranges and any
	// cross-field combination); the enumerated grid is returned so
	// submission paths never re-derive it.
	jobs, err := m.Jobs()
	if err != nil {
		return nil, &ValidationError{Code: ErrInvalidManifest, Message: err.Error()}
	}
	return jobs, nil
}
