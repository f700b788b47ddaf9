package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/artifact"
	"repro/internal/colseg"
	"repro/internal/isa"
	"repro/internal/store"
)

// FuzzParseManifest feeds arbitrary bytes to the manifest parser every
// submission surface shares, then validates what parses. The contract:
// a structured *ValidationError, or an input that is one whole JSON
// value and a manifest whose encoding is a fixed point (parsing and
// re-encoding it reproduces the same bytes); never a panic.
func FuzzParseManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, verr := ParseManifest(data)
		if verr != nil {
			if verr.Code != ErrBadJSON && verr.Code != ErrInvalidManifest {
				t.Fatalf("unknown error code %q", verr.Code)
			}
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted input that is not one JSON value: %q", data)
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

// fuzzKey is the fixed valid key FuzzStoreEntry files its bytes under.
const fuzzKey = "5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed"

// FuzzStoreEntry writes arbitrary bytes as the entry under one valid
// key in each of the three keyed stores and loads them back: results,
// artifacts and packed streams. The contract: a status, never a panic,
// and an entry that loads is a fixed point: storing the decoded value
// and loading it again gives an equal value.
func FuzzStoreEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		c := &Cache{Dir: dir}
		arts := ArtifactStore(dir)
		streams := StreamStoreFor(dir)
		for _, path := range []string{mustPath(c.EntryPath(fuzzKey)),
			mustPath(arts.EntryPath(fuzzKey)), mustPath(streams.EntryPath(fuzzKey))} {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		if out, st := c.Load(fuzzKey); st == store.Hit {
			job, _, _ := c.Entry(fuzzKey)
			if err := c.Put(fuzzKey, job, out); err != nil {
				t.Fatalf("re-storing a loaded result: %v", err)
			}
			job2, out2, ok := c.Entry(fuzzKey)
			if !ok || job2 != job || !reflect.DeepEqual(out2, out) {
				t.Fatalf("result round trip: %v %+v %+v, want %+v %+v", ok, job2, out2, job, out)
			}
		} else if st != store.Corrupt {
			t.Fatalf("result entry: status %v, want Hit or Corrupt", st)
		}

		if payload, st := arts.Load(fuzzKey, artifact.KindProfile); st == store.Hit {
			if err := arts.Put(fuzzKey, artifact.KindProfile, payload); err != nil {
				t.Fatalf("re-storing a loaded artifact: %v", err)
			}
			// Put compacts the payload, so compare it as a JSON value.
			payload2, st := arts.Load(fuzzKey, artifact.KindProfile)
			if st != store.Hit || !sameJSON(t, payload, payload2) {
				t.Fatalf("artifact round trip: %v %s, want %s", st, payload2, payload)
			}
		} else if st != store.Corrupt {
			t.Fatalf("artifact entry: status %v, want Hit or Corrupt", st)
		}

		if s, st := streams.Load(fuzzKey); st == store.Hit {
			if err := streams.Put(fuzzKey, s); err != nil {
				t.Fatalf("re-storing a loaded stream: %v", err)
			}
			s2, st := streams.Load(fuzzKey)
			if st != store.Hit || !bytes.Equal(isa.EncodePacked(s2), isa.EncodePacked(s)) {
				t.Fatalf("stream round trip: %v", st)
			}
		} else if st != store.Corrupt {
			t.Fatalf("stream entry: status %v, want Hit or Corrupt", st)
		}
	})
}

// sameJSON reports whether a and b encode the same JSON value.
func sameJSON(t *testing.T, a, b []byte) bool {
	decode := func(p []byte) any {
		d := json.NewDecoder(bytes.NewReader(p))
		d.UseNumber()
		var v any
		if err := d.Decode(&v); err != nil {
			t.Fatalf("stored payload is not JSON: %v", err)
		}
		return v
	}
	return reflect.DeepEqual(decode(a), decode(b))
}

// FuzzDecodeSegmentRows feeds arbitrary bytes to the segment decoder an
// uploaded segment reaches (PUT /v1/segments), twice: as a whole file,
// which exercises colseg.Decode's framing and checksums, and framed by
// colseg's own writer, so the column decoders behind the checksums see
// the bytes too (an uploader can compute checksums as easily). The
// contract: an ErrCorrupt error, or rows that re-encode and decode to
// the same row set; never a panic.
func FuzzDecodeSegmentRows(f *testing.F) {
	names := segmentColumns(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSegmentRows(t, data)
		checkSegmentRows(t, frameColumns(names, data))
	})
}

// segmentColumns lists the column names EncodeSegment writes.
func segmentColumns(f *testing.F) []string {
	b, err := EncodeSegment(nil)
	if err != nil {
		f.Fatal(err)
	}
	s, err := colseg.Decode(b)
	if err != nil {
		f.Fatal(err)
	}
	return s.Names()
}

// frameColumns wraps data in a well-formed segment: its first byte
// picks a row count of 0-3, and each column in turn takes a one-byte
// length and that many of the following bytes, until data runs out.
func frameColumns(names []string, data []byte) []byte {
	rows := 0
	if len(data) > 0 {
		rows, data = int(data[0]%4), data[1:]
	}
	w := colseg.NewWriter(segmentSchema, rows)
	for _, name := range names {
		if len(data) == 0 {
			break
		}
		n := min(int(data[0]), len(data)-1)
		w.Column(name, data[1:1+n])
		data = data[1+n:]
	}
	return w.Bytes()
}

func checkSegmentRows(t *testing.T, data []byte) {
	rows, err := DecodeSegmentRows(data)
	if err != nil {
		if !errors.Is(err, colseg.ErrCorrupt) {
			t.Fatalf("unstructured error: %v", err)
		}
		return
	}
	enc, err := EncodeSegment(rows)
	if err != nil {
		t.Fatalf("decoded rows do not re-encode: %v", err)
	}
	rows2, err := DecodeSegmentRows(enc)
	if err != nil {
		t.Fatalf("re-encoded rows do not decode: %v", err)
	}
	if a, b := rowSet(rows), rowSet(rows2); !reflect.DeepEqual(a, b) {
		t.Fatalf("row set changed in the round trip:\n%q\n%q", a, b)
	}
}

// rowSet renders rows as a sorted list of exact descriptions: %#v keeps
// nil and empty float lists apart and prints every float so that it
// parses back to the same value.
func rowSet(rows []Merged) []string {
	out := make([]string, len(rows))
	for i, m := range rows {
		out[i] = fmt.Sprintf("%s %#v %#v", m.Key, m.Job, *m.Outcome)
	}
	sort.Strings(out)
	return out
}
