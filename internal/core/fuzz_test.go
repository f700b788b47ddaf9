package core

import (
	"bytes"
	"testing"
)

// FuzzDecodeProfile feeds arbitrary bytes to the artifact-store profile
// decoder. The contract: a structured error, or a profile whose encoding
// is a fixed point (decoding and re-encoding it reproduces the same
// bytes); never a panic.
func FuzzDecodeProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProfile(data)
		if err != nil {
			return
		}
		enc, err := EncodeProfile(p)
		if err != nil {
			t.Fatalf("decoded profile does not encode: %v", err)
		}
		p2, err := DecodeProfile(enc)
		if err != nil {
			t.Fatalf("re-encoded profile does not decode: %v\n%s", err, enc)
		}
		enc2, err := EncodeProfile(p2)
		if err != nil {
			t.Fatalf("round-tripped profile does not encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip is not stable:\n%s\n%s", enc, enc2)
		}
	})
}
