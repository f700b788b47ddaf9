package sweep

import (
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/workload"
)

// countEntries returns the number of content-addressed entry files in a
// store/cache directory (fan-out layout).
func countEntries(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := store.Walk(dir, ".json", func(_, key string, _ fs.DirEntry) error {
		if key != "" {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAnchorColocation checks that shard placement follows dependency
// anchors: everything that resolves (or feeds) one training lands on
// the shard that owns that training's artifact key.
func TestAnchorColocation(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, shards := range []int{2, 3, 5, 7} {
		at := func(j Job) int { return shardOf(NewKeySpace(cfg).AnchorKey(j), shards) }

		// The off-line chain: offline (all deltas), global, and the base
		// single-clock run it is matched against share one shard.
		off := at(Job{Bench: "mcf", Policy: PolicyOffline})
		for name, j := range map[string]Job{
			"offline delta=2": {Bench: "mcf", Policy: PolicyOffline, Delta: 2},
			"global":          {Bench: "mcf", Policy: PolicyGlobal},
			"single_clock":    {Bench: "mcf", Policy: PolicySingleClock},
			"single_clock@base": {Bench: "mcf", Policy: PolicySingleClock,
				MHz: cfg.Sim.BaseMHz},
		} {
			if got := at(j); got != off {
				t.Errorf("shards=%d: %s in shard %d, offline chain in %d", shards, name, got, off)
			}
		}

		// All deltas of one (bench, scheme) grid share the shard that
		// owns their profile artifact.
		s0 := at(Job{Bench: "swim", Policy: PolicyScheme, Scheme: "L+F"})
		for _, d := range []float64{0.5, 2, 8} {
			if got := at(Job{Bench: "swim", Policy: PolicyScheme, Scheme: "L+F", Delta: d}); got != s0 {
				t.Errorf("shards=%d: L+F delta=%g in shard %d, grid anchor in %d", shards, d, got, s0)
			}
		}
	}
}

// TestFleetTrainsOnce runs a cold 3-way sharded sweep over
// profile-driven policies with real training, all shards sharing one
// cache directory and artifact store, and asserts that each (bench,
// scheme, input) training executed exactly once across the whole fleet
// — observed through artifact-store write counts — and that the merged
// results are byte-identical to an unsharded run's.
func TestFleetTrainsOnce(t *testing.T) {
	cfg := core.DefaultConfig()
	jobs := []Job{
		{Bench: "g721_decode", Policy: PolicyBaseline},
		{Bench: "g721_decode", Policy: PolicySingleClock},
		{Bench: "g721_decode", Policy: PolicyOffline},
		{Bench: "g721_decode", Policy: PolicyOffline, Delta: 4},
		{Bench: "g721_decode", Policy: PolicyGlobal},
		{Bench: "g721_decode", Policy: PolicyScheme, Scheme: "L+F"},
		{Bench: "g721_decode", Policy: PolicyScheme, Scheme: "L+F", Delta: 4},
		{Bench: "g721_decode", Policy: PolicySingleClock, MHz: 500},
	}
	// Two distinct trainings back this grid: the off-line oracle
	// (L+F+C+P on the reference input) and the L+F scheme (training
	// input); every delta point replans from one of them.
	const wantTrainings = 2

	dirA, dirB := t.TempDir(), t.TempDir()

	// Unsharded reference run.
	engA := New(cfg)
	engA.Cache = &Cache{Dir: dirA}
	engA.Artifacts = ArtifactStore(dirA)
	if _, _, err := engA.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if n := engA.Artifacts.Writes(); n != wantTrainings {
		t.Fatalf("unsharded run wrote %d artifacts, want %d", n, wantTrainings)
	}

	// Cold 3-way sharded fleet, one engine (process stand-in) per
	// shard, running concurrently against the shared directory.
	const shards = 3
	stores := make([]*artifact.Store, shards)
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for idx := 0; idx < shards; idx++ {
		stores[idx] = ArtifactStore(dirB)
		eng := New(cfg)
		eng.Cache = &Cache{Dir: dirB}
		eng.Artifacts = stores[idx]
		mine := Shard(cfg, jobs, shards, idx)
		wg.Add(1)
		go func(idx int, eng *Engine, mine []Job) {
			defer wg.Done()
			_, _, errs[idx] = eng.Run(context.Background(), mine)
		}(idx, eng, mine)
	}
	wg.Wait()
	for idx, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", idx, err)
		}
	}
	var fleetWrites int64
	for _, s := range stores {
		fleetWrites += s.Writes()
	}
	if fleetWrites != wantTrainings {
		t.Errorf("cold fleet wrote %d artifacts across %d shards, want exactly %d (train-once)",
			fleetWrites, shards, wantTrainings)
	}
	if n := countEntries(t, filepath.Join(dirB, artifactSubdir)); n != wantTrainings {
		t.Errorf("fleet artifact store holds %d entries, want %d", n, wantTrainings)
	}

	// Sharded and unsharded merges must be byte-identical.
	mergedA, err := Merge(cfg, jobs, &Cache{Dir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	mergedB, err := Merge(cfg, jobs, &Cache{Dir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	bytesA, _ := json.Marshal(mergedA)
	bytesB, _ := json.Marshal(mergedB)
	if string(bytesA) != string(bytesB) {
		t.Fatalf("sharded merge differs from unsharded:\n%s\nvs\n%s", bytesA, bytesB)
	}

	// A second fleet pass over the same directory does zero work.
	for idx := 0; idx < shards; idx++ {
		eng := New(cfg)
		eng.Cache = &Cache{Dir: dirB}
		eng.Artifacts = ArtifactStore(dirB)
		_, sum, err := eng.Run(context.Background(), Shard(cfg, jobs, shards, idx))
		if err != nil {
			t.Fatal(err)
		}
		if sum.Executed != 0 {
			t.Errorf("warm shard %d executed %d jobs, want 0 (%s)", idx, sum.Executed, sum)
		}
	}
}

// TestProfileArtifactReuse drives Engine.Profile directly: a second
// engine sharing the store must load the stored profile instead of
// retraining, the loaded profile must re-encode byte-identically, and
// a corrupted entry must surface, retrain and be repaired.
func TestProfileArtifactReuse(t *testing.T) {
	cfg := core.DefaultConfig()
	dir := t.TempDir()
	spec := ProfileSpec{Bench: "g721_decode", Scheme: "L+F"}

	eng1 := New(cfg)
	eng1.Artifacts = ArtifactStore(dir)
	prof1, err := eng1.Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng1.Artifacts.Writes(); n != 1 {
		t.Fatalf("first training wrote %d artifacts, want 1", n)
	}

	eng2 := New(cfg)
	eng2.Artifacts = ArtifactStore(dir)
	prof2, err := eng2.Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng2.Artifacts.Writes(); n != 0 {
		t.Fatalf("second engine wrote %d artifacts, want 0 (should load the stored profile)", n)
	}
	enc1, err := core.EncodeProfile(prof1)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := core.EncodeProfile(prof2)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc1) != string(enc2) {
		t.Fatal("loaded profile re-encodes differently from the trained one")
	}
	if prof2.Plan == nil {
		t.Fatal("loaded profile has no plan")
	}

	// Corrupt the stored entry: the next engine counts it, retrains,
	// and repairs the store.
	key := spec.ArtifactKey(cfg)
	if err := os.WriteFile(mustPath(eng2.Artifacts.EntryPath(key)), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng3 := New(cfg)
	eng3.Artifacts = ArtifactStore(dir)
	if _, err := eng3.Profile(spec); err != nil {
		t.Fatal(err)
	}
	if n := eng3.Artifacts.Writes(); n != 1 {
		t.Errorf("corrupt entry not repaired: %d writes, want 1", n)
	}
	if n := eng3.tally.n[evCorrupt].Load(); n != 1 {
		t.Errorf("corrupt artifact not counted: %d, want 1", n)
	}
	if _, st := eng3.Artifacts.Load(key, artifact.KindProfile); st != artifact.Hit {
		t.Errorf("store not repaired after corruption: %v", st)
	}
}

// TestCorruptEntriesSurfaced truncates a result-cache file and checks
// the damage is counted in the batch summary instead of being silently
// treated as a plain miss.
func TestCorruptEntriesSurfaced(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig()
	jobs := testJobs()

	var execs atomic.Int64
	fresh := func() *Engine {
		e := New(cfg)
		e.Cache = &Cache{Dir: dir}
		e.ExecFn = fakeExec(&execs)
		return e
	}
	if _, sum, err := fresh().Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	} else if sum.CorruptEntries != 0 {
		t.Fatalf("cold run reported corruption: %s", sum)
	}

	// Deliberately truncate one entry mid-JSON.
	key := Key(cfg, jobs[0])
	path := filepath.Join(dir, key[:2], key+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	_, sum, err := fresh().Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.CorruptEntries != 1 {
		t.Errorf("truncated entry: corrupt_entries=%d, want 1 (%s)", sum.CorruptEntries, sum)
	}
	if sum.Executed != 1 || sum.DiskHits != len(jobs)-1 {
		t.Errorf("truncated entry not re-executed exactly once: %s", sum)
	}

	// A key-mismatched entry counts too; once repaired the counter
	// returns to zero.
	if err := os.WriteFile(path, []byte(`{"key":"beef","job":{},"outcome":{"result":{}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, sum, err = fresh().Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	} else if sum.CorruptEntries != 1 {
		t.Errorf("key-mismatched entry: corrupt_entries=%d, want 1", sum.CorruptEntries)
	}
	if _, sum, err = fresh().Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	} else if sum.CorruptEntries != 0 || sum.DiskHits != len(jobs) {
		t.Errorf("post-repair run: %s", sum)
	}
}

func TestReachable(t *testing.T) {
	cfg := core.DefaultConfig()
	jobs := []Job{
		{Bench: "mcf", Policy: PolicyGlobal},
		{Bench: "mcf", Policy: PolicyScheme, Scheme: "L+F", Delta: 2},
	}
	results, artifacts, streams, err := Reachable(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// The global job pulls its single-clock and off-line dependencies
	// into the reachable set.
	for _, j := range []Job{
		{Bench: "mcf", Policy: PolicyGlobal},
		{Bench: "mcf", Policy: PolicySingleClock},
		{Bench: "mcf", Policy: PolicyOffline},
		{Bench: "mcf", Policy: PolicyScheme, Scheme: "L+F", Delta: 2},
	} {
		if !results[Key(cfg, j)] {
			t.Errorf("dependency closure missing %s", j)
		}
	}
	if len(results) != 4 {
		t.Errorf("reachable results = %d keys, want 4", len(results))
	}
	// Two profile artifacts back the closure: the oracle training and
	// the L+F training.
	wantArts := map[string]bool{
		ProfileSpec{Bench: "mcf", Scheme: calltree.LFCP.Name, OnRef: true}.ArtifactKey(cfg): true,
		ProfileSpec{Bench: "mcf", Scheme: "L+F"}.ArtifactKey(cfg):                           true,
	}
	if len(artifacts) != len(wantArts) {
		t.Errorf("reachable artifacts = %d keys, want %d", len(artifacts), len(wantArts))
	}
	for k := range wantArts {
		if !artifacts[k] {
			t.Errorf("artifact closure missing %s", k[:12])
		}
	}
	// Two streams back the closure: mcf's reference stream (every
	// production run) and its training stream (the L+F profile).
	b := workload.ByName("mcf")
	wantStreams := map[string]bool{
		StreamKey(b, true):  true,
		StreamKey(b, false): true,
	}
	if len(streams) != len(wantStreams) {
		t.Errorf("reachable streams = %d keys, want %d", len(streams), len(wantStreams))
	}
	for k := range wantStreams {
		if !streams[k] {
			t.Errorf("stream closure missing %s", k[:12])
		}
	}

	if _, _, _, err := Reachable(cfg, []Job{{Bench: "mcf", Policy: "nope"}}); err == nil {
		t.Error("invalid job not rejected")
	}
}

// TestKeySpaceReachableMatchesOneShot checks that a key space's
// Reachable, called twice on one key space, gives the one-shot
// Reachable's sets on the CI manifest's grid.
func TestKeySpaceReachableMatchesOneShot(t *testing.T) {
	m, err := LoadManifest(filepath.Join("..", "..", "perf", "ci-manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	results, artifacts, streams, err := Reachable(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < len(jobs) || len(artifacts) == 0 || len(streams) == 0 {
		t.Fatalf("one-shot closure too small: %d results for %d jobs, %d artifacts, %d streams",
			len(results), len(jobs), len(artifacts), len(streams))
	}
	ks := NewKeySpace(cfg)
	for pass := 1; pass <= 2; pass++ {
		r, a, s, err := ks.Reachable(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, results) || !reflect.DeepEqual(a, artifacts) || !reflect.DeepEqual(s, streams) {
			t.Errorf("pass %d: key-space closure (%d, %d, %d keys) differs from one-shot (%d, %d, %d)",
				pass, len(r), len(a), len(s), len(results), len(artifacts), len(streams))
		}
	}
}

func TestPruneUnreachable(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig()
	all := testJobs()
	keep := all[:3]

	// Populate the result cache with the full grid and the artifact
	// store with one reachable and one unreachable profile.
	var execs atomic.Int64
	eng := New(cfg)
	eng.Cache = &Cache{Dir: dir}
	eng.ExecFn = fakeExec(&execs)
	if _, _, err := eng.Run(context.Background(), all); err != nil {
		t.Fatal(err)
	}
	store := ArtifactStore(dir)
	keptSpec := ProfileSpec{Bench: keep[1].Bench, Scheme: keep[1].Scheme}
	straySpec := ProfileSpec{Bench: "applu", Scheme: "F"}
	for _, spec := range []ProfileSpec{keptSpec, straySpec} {
		if err := store.Put(spec.ArtifactKey(cfg), artifact.KindProfile, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	// A leftover temp file from an interrupted writer is garbage.
	strayTmp := filepath.Join(dir, "00")
	if err := os.MkdirAll(strayTmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(strayTmp, "deadbeef.tmp123"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	results, artifacts, streams, err := Reachable(cfg, keep)
	if err != nil {
		t.Fatal(err)
	}
	unreachable, err := Unreachable(dir, results, artifacts, streams)
	if err != nil {
		t.Fatal(err)
	}
	// Expect: the result entries of all[3:], the stray artifact, and
	// the temp leftover.
	want := len(all) - len(keep) + 2
	if len(unreachable) != want {
		t.Fatalf("unreachable = %d entries, want %d:\n%v", len(unreachable), want, unreachable)
	}

	removed, _, err := Prune(dir, unreachable)
	if err != nil {
		t.Fatal(err)
	}
	if removed != want {
		t.Errorf("pruned %d entries, want %d", removed, want)
	}
	// The kept manifest still merges; the kept artifact still loads.
	if _, err := Merge(cfg, keep, &Cache{Dir: dir}); err != nil {
		t.Errorf("prune removed reachable results: %v", err)
	}
	if _, st := store.Load(keptSpec.ArtifactKey(cfg), artifact.KindProfile); st != artifact.Hit {
		t.Errorf("prune removed reachable artifact (status %v)", st)
	}
	// Idempotent: nothing unreachable remains.
	left, err := Unreachable(dir, results, artifacts, streams)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("entries still unreachable after prune: %v", left)
	}
	// The pruned grid's extra jobs are gone from the cache.
	if _, err := Merge(cfg, all, &Cache{Dir: dir}); err == nil {
		t.Error("pruned entries still merge")
	}
}
