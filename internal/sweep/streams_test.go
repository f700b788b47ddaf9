package sweep

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/store"
	"repro/internal/workload"
)

// mustPath unwraps EntryPath for a key the test knows is valid.
func mustPath(path string, err error) string {
	if err != nil {
		panic(err)
	}
	return path
}

func TestStreamStoreRoundtrip(t *testing.T) {
	st := StreamStoreFor(t.TempDir())
	b := workload.ByName("adpcm_decode")
	key := StreamKey(b, false)

	if _, status := st.Load(key); status != store.Miss {
		t.Fatalf("empty store: status %v, want miss", status)
	}
	s := isa.RecordPacked(b.Prog, b.Train)
	if err := st.Put(key, s); err != nil {
		t.Fatal(err)
	}
	got, status := st.Load(key)
	if status != StreamHit {
		t.Fatalf("Load after Put: status %v, want hit", status)
	}
	if !bytes.Equal(isa.EncodePacked(got), isa.EncodePacked(s)) {
		t.Fatal("loaded stream differs from stored stream")
	}

	// An entry copied to the wrong name is self-describing and detected.
	other := StreamKey(b, true)
	if other == key {
		t.Fatal("train and ref streams share a key")
	}
	if err := os.MkdirAll(filepath.Dir(mustPath(st.EntryPath(other))), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mustPath(st.EntryPath(key)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mustPath(st.EntryPath(other)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, status := st.Load(other); status != StreamCorrupt {
		t.Fatalf("wrong-name copy: status %v, want corrupt", status)
	}

	// Truncation is detected by the codec checksum.
	if err := os.WriteFile(mustPath(st.EntryPath(key)), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, status := st.Load(key); status != StreamCorrupt {
		t.Fatalf("truncated entry: status %v, want corrupt", status)
	}
}

func TestStreamKeyCoversSpecAndInput(t *testing.T) {
	a, b := workload.ByName("adpcm_decode"), workload.ByName("gzip")
	keys := map[string]bool{
		StreamKey(a, false): true,
		StreamKey(a, true):  true,
		StreamKey(b, false): true,
		StreamKey(b, true):  true,
	}
	if len(keys) != 4 {
		t.Fatalf("stream keys collide across (bench, input) pairs: %d unique of 4", len(keys))
	}
	if StreamKey(a, false) != StreamKey(a, false) {
		t.Fatal("stream key not stable")
	}
}

// streamEngine builds an engine over real execution with both stores
// rooted in dir.
func streamEngine(dir string) *Engine {
	e := New(core.DefaultConfig())
	e.Cache = &Cache{Dir: filepath.Join(dir, "results")}
	e.Streams = StreamStoreFor(dir)
	return e
}

// streamTestJobs is a cheap untrained grid over one benchmark: two
// policies sharing the reference stream, so a warm run loads exactly
// one stored stream per executing process.
func streamTestJobs() []Job {
	return []Job{
		{Bench: "adpcm_decode", Policy: PolicyBaseline},
		{Bench: "adpcm_decode", Policy: PolicySingleClock},
	}
}

func TestStreamCacheWarmStart(t *testing.T) {
	dir := t.TempDir()
	jobs := streamTestJobs()

	cold, coldSum, err := streamEngine(dir).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if coldSum.StreamHits != 0 {
		t.Fatalf("cold run reported %d stream hits", coldSum.StreamHits)
	}
	if n, _, err := StreamStats(dir); err != nil || n != 1 {
		t.Fatalf("cold run stored %d streams (err %v), want 1", n, err)
	}

	// A fresh engine over a cold result cache but the warm stream store
	// must load the stream instead of re-walking, with identical results.
	warmDir := t.TempDir()
	eng := streamEngine(dir)
	eng.Cache = &Cache{Dir: warmDir}
	warm, warmSum, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if warmSum.StreamHits == 0 {
		t.Fatalf("warm run loaded no streams: %s", warmSum)
	}
	if len(cold) != len(warm) {
		t.Fatalf("outcome counts differ: %d vs %d", len(cold), len(warm))
	}
	for i := range cold {
		if !reflect.DeepEqual(cold[i].Res, warm[i].Res) {
			t.Errorf("job %d: warm result %+v differs from cold %+v", i, warm[i].Res, cold[i].Res)
		}
	}
}

func TestStreamCacheCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	jobs := streamTestJobs()
	if _, _, err := streamEngine(dir).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	b := workload.ByName("adpcm_decode")
	key := StreamKey(b, true)
	path := mustPath(StreamStoreFor(dir).EntryPath(key))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	// The corrupt entry is counted, treated as a miss, and rewritten.
	eng := streamEngine(dir)
	eng.Cache = &Cache{Dir: t.TempDir()}
	_, sum, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.CorruptEntries != 1 {
		t.Errorf("corrupt stream: corrupt_entries=%d, want 1 (%s)", sum.CorruptEntries, sum)
	}
	if sum.StreamHits != 0 {
		t.Errorf("corrupt stream counted as a hit: %s", sum)
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, data) {
		t.Error("rewritten entry differs from the original bytes")
	}

	// Post-repair, a fresh process hits cleanly.
	eng = streamEngine(dir)
	eng.Cache = &Cache{Dir: t.TempDir()}
	if _, sum, err = eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	} else if sum.CorruptEntries != 0 || sum.StreamHits == 0 {
		t.Errorf("post-repair run: %s", sum)
	}
}

// readTree returns every file under root as relative path -> contents.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		out[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunParallelBitIdenticalCaches is the end-to-end determinism gate:
// the same manifest run at 1 and at 8 training workers must leave
// byte-identical cache directories — result entries, profile artifacts,
// stored streams, file names included — and merge to identical report
// bytes. TrainWorkers is excluded from every content address, so any
// byte of divergence would poison shared caches.
func TestRunParallelBitIdenticalCaches(t *testing.T) {
	m := &Manifest{
		Benchmarks: []string{"adpcm_decode"},
		Policies:   []string{PolicyBaseline, PolicyOffline, PolicyScheme},
		Schemes:    []string{"L+F"},
		Deltas:     []float64{1.75},
	}
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}

	runAt := func(workers int) (string, []byte) {
		dir := t.TempDir()
		cfg := m.Config()
		cfg.TrainWorkers = workers
		eng := New(cfg)
		eng.Cache = &Cache{Dir: dir}
		eng.Artifacts = ArtifactStore(dir)
		eng.Streams = StreamStoreFor(dir)
		if _, _, err := eng.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		var merged bytes.Buffer
		if err := MergeTo(&merged, cfg, jobs, SourceFor(dir)); err != nil {
			t.Fatal(err)
		}
		return dir, merged.Bytes()
	}

	dir1, merged1 := runAt(1)
	dir8, merged8 := runAt(8)

	tree1, tree8 := readTree(t, dir1), readTree(t, dir8)
	if len(tree1) != len(tree8) {
		t.Errorf("cache trees differ in size: %d files at P=1, %d at P=8", len(tree1), len(tree8))
	}
	for rel, b1 := range tree1 {
		b8, ok := tree8[rel]
		if !ok {
			t.Errorf("P=8 cache missing %s", rel)
			continue
		}
		if !bytes.Equal(b1, b8) {
			t.Errorf("cache entry %s differs between P=1 and P=8", rel)
		}
	}
	if !bytes.Equal(merged1, merged8) {
		t.Error("merged report bytes differ between P=1 and P=8")
	}
}
