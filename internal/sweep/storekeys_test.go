package sweep

import (
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/isa"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestStoresRefuseMalformedKeys drives every store entry point with
// the keys a peer or a damaged lease could send. A malformed key must
// give Corrupt or an error, never a panic and never a file outside the
// store; a valid key round-trips, and an entry declaring another key
// is refused.
func TestStoresRefuseMalformedKeys(t *testing.T) {
	dir := t.TempDir()
	c := &Cache{Dir: dir}
	arts := ArtifactStore(dir)
	streams := StreamStoreFor(dir)
	b := workload.ByName("adpcm_decode")
	stream := isa.RecordPackedSized(b.Prog, b.Train, 64)
	valid := strings.Repeat("0f", 32)
	out := &Outcome{GlobalMHz: 1}

	for _, tc := range []struct {
		name, key string
		ok        bool
	}{
		{"empty", "", false},
		{"one char", "a", false},
		{"traversal", "../../x", false},
		{"63 hex", strings.Repeat("a", 63), false},
		{"upper hex", strings.Repeat("AB", 32), false},
		{"valid", valid, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			miss := store.Corrupt
			if tc.ok {
				miss = store.Miss
			}
			rawEntry := `{"key":"` + tc.key + `","job":{},"outcome":{}}`
			rawArtifact := `{"schema":1,"key":"` + tc.key + `","kind":"profile","payload":{}}`

			if _, st := c.Load(tc.key); st != miss {
				t.Errorf("Cache.Load = %v, want %v", st, miss)
			}
			if _, ok := c.Get(tc.key); ok {
				t.Error("Cache.Get hit")
			}
			if _, _, ok := c.Entry(tc.key); ok {
				t.Error("Cache.Entry hit")
			}
			if _, st := arts.Load(tc.key, artifact.KindProfile); st != miss {
				t.Errorf("artifact Load = %v, want %v", st, miss)
			}
			if arts.Has(tc.key, artifact.KindProfile) {
				t.Error("artifact Has")
			}
			if _, st := streams.Load(tc.key); st != miss {
				t.Errorf("StreamStore.Load = %v, want %v", st, miss)
			}

			writes := map[string]error{
				"Cache.Put":          c.Put(tc.key, Job{}, out),
				"Cache.PutRaw":       c.PutRaw(tc.key, []byte(rawEntry)),
				"artifact Put":       arts.Put(tc.key, artifact.KindProfile, []byte(`{}`)),
				"artifact PutRaw":    arts.PutRaw(tc.key, []byte(rawArtifact)),
				"StreamStore.Put":    streams.Put(tc.key, stream),
				"Cache.EntryPath":    second(c.EntryPath(tc.key)),
				"artifact EntryPath": second(arts.EntryPath(tc.key)),
				"stream EntryPath":   second(streams.EntryPath(tc.key)),
			}
			for op, err := range writes {
				if (err == nil) != tc.ok {
					t.Errorf("%s: err = %v, want ok=%v", op, err, tc.ok)
				}
			}
			if !tc.ok {
				return
			}
			if _, st := c.Load(tc.key); st != store.Hit {
				t.Errorf("Cache.Load after Put = %v", st)
			}
			if _, st := arts.Load(tc.key, artifact.KindProfile); st != store.Hit {
				t.Errorf("artifact Load after Put = %v", st)
			}
			if _, st := streams.Load(tc.key); st != store.Hit {
				t.Errorf("StreamStore.Load after Put = %v", st)
			}
			// An entry that declares a different key than the one asked
			// for is refused, so a peer cannot file it under the wrong
			// name.
			other := strings.Repeat("1e", 32)
			if err := c.PutRaw(other, []byte(rawEntry)); err == nil {
				t.Error("Cache.PutRaw accepted an entry declaring another key")
			}
			if err := arts.PutRaw(other, []byte(rawArtifact)); err == nil {
				t.Error("artifact PutRaw accepted an entry declaring another key")
			}
		})
	}
	// Nothing landed outside the stores' fan-out directories.
	unreachable, err := Unreachable(dir, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		valid[:2] + "/" + valid + ".json",
		"artifacts/" + valid[:2] + "/" + valid + ".json",
		"streams/" + valid[:2] + "/" + valid + ".bin",
	}
	if strings.Join(unreachable, ",") != strings.Join(want, ",") {
		t.Errorf("store contents %v, want %v", unreachable, want)
	}
}

func second(_ string, err error) error { return err }
