package sweep

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// TestPhaseBreakdownAccounting pins what Engine.Phases counts. A cold
// trained sweep (baseline, the off-line oracle and L+F on adpcm_decode)
// trains two profiles, the oracle on the reference input and L+F on the
// training input, and records both streams by walking. A warm rerun on
// a fresh engine over the same stores, at a delta no cached result
// covers, replans both profiles from the artifact store and loads the
// reference stream from the stream store: it trains nothing and walks
// nothing.
func TestPhaseBreakdownAccounting(t *testing.T) {
	dir := t.TempDir()
	run := func(m *Manifest) (Summary, PhaseBreakdown) {
		t.Helper()
		jobs, err := m.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		cfg := m.Config()
		cfg.TrainWorkers = 1
		eng := New(cfg)
		eng.Workers = 1
		eng.Cache = &Cache{Dir: dir}
		eng.Artifacts = ArtifactStore(dir)
		eng.Streams = StreamStoreFor(dir)
		eng.Segments = SegmentStoreFor(dir)
		_, sum, err := eng.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		return sum, eng.Phases()
	}
	type counts struct{ trained, artifactHits, streamHits, streamRecords int64 }
	check := func(name string, sum Summary, p PhaseBreakdown, want counts, trains bool) {
		t.Helper()
		got := counts{p.Trained, p.ArtifactHits, p.StreamHits, p.StreamRecords}
		if got != want {
			t.Errorf("%s: (trained, artifact hits, stream hits, stream records) = %+v, want %+v", name, got, want)
		}
		if int64(sum.StreamHits) != p.StreamHits {
			t.Errorf("%s: Summary.StreamHits = %d, Phases().StreamHits = %d", name, sum.StreamHits, p.StreamHits)
		}
		for field, ns := range map[string]int64{
			"TrainNS": p.TrainNS, "TreewalkNS": p.TreewalkNS,
			"CollectNS": p.CollectNS, "ShakeNS": p.ShakeNS,
		} {
			if (ns > 0) != trains {
				t.Errorf("%s: %s = %d, want nonzero %v", name, field, ns, trains)
			}
		}
		for field, ns := range map[string]int64{
			"SimNS": p.SimNS, "StreamNS": p.StreamNS,
			"PersistNS": p.PersistNS, "SealNS": p.SealNS,
		} {
			if ns <= 0 {
				t.Errorf("%s: %s = %d, want nonzero", name, field, ns)
			}
		}
	}

	cold := traceManifest()
	sum, p := run(cold)
	if sum.Executed != 3 {
		t.Fatalf("cold: executed %d jobs, want 3", sum.Executed)
	}
	check("cold", sum, p, counts{trained: 2, streamRecords: 2}, true)

	warm := &Manifest{
		Benchmarks: cold.Benchmarks,
		Policies:   []string{PolicyOffline, PolicyScheme},
		Schemes:    cold.Schemes,
		Deltas:     []float64{2.5},
	}
	sum, p = run(warm)
	if sum.Executed != 2 {
		t.Fatalf("warm: executed %d jobs, want 2", sum.Executed)
	}
	check("warm", sum, p, counts{artifactHits: 2, streamHits: 1}, false)

	// The breakdown's JSON keys are the wire "phases" field.
	b, err := json.Marshal(PhaseBreakdown{})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"train_ns", "treewalk_ns", "collect_ns", "shake_ns", "sim_ns", "stream_ns",
		"persist_ns", "seal_ns", "trained", "artifact_hits", "stream_hits", "stream_records"}
	wantSet := map[string]json.RawMessage{}
	for _, k := range want {
		wantSet[k] = json.RawMessage("0")
	}
	if !reflect.DeepEqual(keys, wantSet) {
		t.Errorf("PhaseBreakdown JSON = %s, want exactly the keys %v", b, want)
	}
}
