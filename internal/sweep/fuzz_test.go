package sweep

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseManifest feeds arbitrary bytes to the manifest parser every
// submission surface shares, then validates what parses. The contract:
// a structured *ValidationError, or a manifest whose encoding is a
// fixed point (parsing and re-encoding it reproduces the same bytes);
// never a panic.
func FuzzParseManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, verr := ParseManifest(data)
		if verr != nil {
			if verr.Code != ErrBadJSON && verr.Code != ErrInvalidManifest {
				t.Fatalf("unknown error code %q", verr.Code)
			}
			return
		}
		ValidateManifest(m)
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("parsed manifest does not encode: %v", err)
		}
		m2, verr := ParseManifest(enc)
		if verr != nil {
			t.Fatalf("re-encoded manifest does not parse: %v\n%s", verr, enc)
		}
		enc2, err := json.Marshal(m2)
		if err != nil {
			t.Fatalf("round-tripped manifest does not encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip is not stable:\n%s\n%s", enc, enc2)
		}
	})
}
