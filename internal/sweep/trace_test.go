package sweep

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/obs"
)

// traceManifest is the trained mixed-policy manifest the trace tests
// run: baseline (pure simulation), off-line oracle and the L+F scheme
// cover every span phase — job, stream, profile, train, treewalk,
// collect, shake, simulate, persist and seal.
func traceManifest() *Manifest {
	return &Manifest{
		Benchmarks: []string{"adpcm_decode"},
		Policies:   []string{PolicyBaseline, PolicyOffline, PolicyScheme},
		Schemes:    []string{"L+F"},
		Deltas:     []float64{1.75},
	}
}

// tracedRun executes m into a fresh cache directory with every store
// layer attached, optionally tracing, and returns the cache tree, the
// merged report bytes, and the recorded spans (nil when untraced).
func tracedRun(t *testing.T, m *Manifest, traced bool) (map[string][]byte, []byte, []obs.Span) {
	t.Helper()
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := m.Config()
	cfg.TrainWorkers = 1
	eng := New(cfg)
	eng.Workers = 1
	eng.Cache = &Cache{Dir: dir}
	eng.Artifacts = ArtifactStore(dir)
	eng.Streams = StreamStoreFor(dir)
	eng.Segments = SegmentStoreFor(dir)
	if traced {
		eng.Trace = obs.NewTracer(0)
	}
	if _, _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	if err := NewKeySpace(cfg).Plan(jobs).WriteJSON(&merged, SourceFor(dir)); err != nil {
		t.Fatal(err)
	}
	var spans []obs.Span
	if traced {
		spans, _, _ = eng.Trace.Snapshot(0)
		if len(spans) == 0 {
			t.Fatal("tracer attached but no spans recorded")
		}
	}
	return readTree(t, dir), merged.Bytes(), spans
}

// TestTraceDeterministicSpanSequence runs the same manifest twice at
// Workers=1 and asserts the two span sequences are identical once the
// wall-clock fields (StartNS, DurNS) are zeroed: same phases, same
// keys, same outcomes, same order, same derived IDs. Span identity is
// (key, ring sequence) by construction — nothing time- or host-derived
// — so any divergence here means execution order itself diverged.
func TestTraceDeterministicSpanSequence(t *testing.T) {
	m := traceManifest()
	_, _, a := tracedRun(t, m, true)
	_, _, b := tracedRun(t, m, true)
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		x.StartNS, x.DurNS = 0, 0
		y.StartNS, y.DurNS = 0, 0
		if x != y {
			t.Fatalf("span %d differs between identical runs:\n run 1: %+v\n run 2: %+v", i, x, y)
		}
	}
	// The phase vocabulary the report layer documents must actually
	// show up for a trained mixed-policy run.
	seen := map[string]bool{}
	for _, s := range a {
		seen[s.Phase] = true
	}
	for _, phase := range []string{"job", "stream", "profile", "train", "treewalk", "collect", "shake", "simulate", "persist", "seal"} {
		if !seen[phase] {
			t.Errorf("no %q span recorded", phase)
		}
	}
}

// TestTracedRunIsInvisible is the observer-effect gate: a traced run
// must leave a byte-identical cache tree (result entries, artifacts,
// packed streams, segments — file names included) and merge to
// byte-identical report bytes as an untraced run of the same manifest.
// Span data can never enter a content address, because the traced and
// untraced runs would then name their entries differently. Checked on
// the trained default-topology manifest plus an untrained grid under
// every other built-in topology.
func TestTracedRunIsInvisible(t *testing.T) {
	cases := []struct {
		name string
		m    *Manifest
	}{
		{"paper4-trained", traceManifest()},
	}
	if !testing.Short() {
		for _, topo := range []string{"sync1", "fe-be2", "fine6"} {
			cases = append(cases, struct {
				name string
				m    *Manifest
			}{topo, &Manifest{
				Benchmarks: []string{"g721_decode"},
				Policies:   []string{PolicyBaseline, PolicyOnline, PolicySingleClock},
				Topology:   topo,
			}})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plainTree, plainMerged, _ := tracedRun(t, tc.m, false)
			tracedTree, tracedMerged, _ := tracedRun(t, tc.m, true)
			if len(plainTree) != len(tracedTree) {
				t.Errorf("cache trees differ in size: %d files untraced, %d traced", len(plainTree), len(tracedTree))
			}
			for rel, pb := range plainTree {
				tb, ok := tracedTree[rel]
				if !ok {
					t.Errorf("traced cache missing %s", rel)
					continue
				}
				if !bytes.Equal(pb, tb) {
					t.Errorf("cache entry %s differs between traced and untraced runs", rel)
				}
			}
			for rel := range tracedTree {
				if _, ok := plainTree[rel]; !ok {
					t.Errorf("traced cache has extra entry %s", rel)
				}
			}
			if !bytes.Equal(plainMerged, tracedMerged) {
				t.Error("merged report bytes differ between traced and untraced runs")
			}
		})
	}
}
