package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
)

// warmSegmentedCache runs jobs through a fake-exec engine with both
// cache layers enabled and returns the cache directory.
func warmSegmentedCache(t *testing.T, cfg core.Config, jobs []Job) string {
	t.Helper()
	dir := t.TempDir()
	var execs atomic.Int64
	e := New(cfg)
	e.Cache = &Cache{Dir: dir}
	e.Segments = SegmentStoreFor(dir)
	e.ExecFn = fakeExec(&execs)
	if _, _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestMergeToMatchesOracle(t *testing.T) {
	cfg := core.DefaultConfig()
	jobs := testJobs()
	dir := warmSegmentedCache(t, cfg, jobs)

	oracle, err := MergeBytes(cfg, jobs, &Cache{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// Segment-backed stream.
	var buf bytes.Buffer
	src := SourceFor(dir)
	if err := NewKeySpace(cfg).Plan(jobs).WriteJSON(&buf, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), oracle) {
		t.Fatalf("segment-backed stream differs from oracle:\n%s\nvs\n%s", buf.Bytes(), oracle)
	}

	// JSON-only stream (no segment layer at all).
	buf.Reset()
	if err := NewKeySpace(cfg).Plan(jobs).WriteJSON(&buf, MergeSource{Cache: &Cache{Dir: dir}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), oracle) {
		t.Fatal("JSON-only stream differs from oracle")
	}

	// Segments-only: delete every JSON entry; the stream must still be
	// byte-identical (the rows were derived from those entries).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && e.Name() != SegmentSubdir {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	buf.Reset()
	if err := NewKeySpace(cfg).Plan(jobs).WriteJSON(&buf, SourceFor(dir)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), oracle) {
		t.Fatal("segments-only stream differs from oracle")
	}

	// Empty job set: canonical null document.
	buf.Reset()
	if err := NewKeySpace(cfg).Plan(nil).WriteJSON(&buf, src); err != nil {
		t.Fatal(err)
	}
	want, _ := MergeBytes(cfg, nil, &Cache{Dir: dir})
	if !bytes.Equal(buf.Bytes(), want) || buf.String() != "null\n" {
		t.Fatalf("empty merge = %q, want %q", buf.String(), want)
	}
}

// TestPlanDuplicateJobs checks a plan over repeated jobs: Key(i) is
// job i's key, Keys keeps one key per job, sorted, and the merge keeps
// the first job listed for each key, as MergeBytes does, here for a job
// spelt two ways.
func TestPlanDuplicateJobs(t *testing.T) {
	cfg := core.DefaultConfig()
	base := testJobs()
	jobs := append([]Job{{Bench: "mcf", Policy: PolicySingleClock, MHz: cfg.Sim.BaseMHz}}, base...)
	jobs = append(jobs, base[0], base[0])
	dir := warmSegmentedCache(t, cfg, jobs)

	ks := NewKeySpace(cfg)
	plan := ks.Plan(jobs)
	for i, j := range jobs {
		if got, want := plan.Key(i), plan.Space().Key(j); got != want {
			t.Errorf("Key(%d) = %s, want %s", i, got[:12], want[:12])
		}
	}
	keys := plan.Keys()
	if len(keys) != len(jobs) || !sort.StringsAreSorted(keys) {
		t.Fatalf("Keys: %d keys (sorted %v), want %d sorted", len(keys), sort.StringsAreSorted(keys), len(jobs))
	}
	count := map[string]int{}
	for _, k := range keys {
		count[k]++
	}
	if n := count[ks.Key(base[0])]; n != 3 {
		t.Errorf("repeated job's key appears %d times, want 3", n)
	}
	if n := count[ks.Key(jobs[0])]; n != 2 {
		t.Errorf("job spelt two ways: key appears %d times, want 2", n)
	}

	oracle, err := MergeBytes(cfg, jobs, &Cache{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf, SourceFor(dir)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), oracle) {
		t.Fatalf("plan over repeated jobs differs from MergeBytes:\n%s\nvs\n%s", buf.Bytes(), oracle)
	}
	if !bytes.Contains(oracle, []byte(`"mhz"`)) {
		t.Fatal("the first spelling (with mhz) was not the one kept")
	}
}

func TestMergeTruncatedSegmentFallsBackToJSON(t *testing.T) {
	cfg := core.DefaultConfig()
	jobs := testJobs()
	dir := warmSegmentedCache(t, cfg, jobs)
	oracle, err := MergeBytes(cfg, jobs, &Cache{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	segDir := filepath.Join(dir, SegmentSubdir)
	names, err := os.ReadDir(segDir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no segment files: %v", err)
	}
	victim := filepath.Join(segDir, names[0].Name())
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	src := SourceFor(dir)
	var buf bytes.Buffer
	if err := NewKeySpace(cfg).Plan(jobs).WriteJSON(&buf, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), oracle) {
		t.Fatal("fallback stream differs from oracle")
	}
	if src.Segments.CorruptRows() == 0 {
		t.Fatal("truncated segment not counted")
	}
}

func TestMergeCheckAndStreamErrors(t *testing.T) {
	cfg := core.DefaultConfig()
	jobs := testJobs()
	dir := warmSegmentedCache(t, cfg, jobs[:len(jobs)-2])

	// The pre-check and the oracle must report the missing work with
	// identical errors.
	_, oracleErr := MergeBytes(cfg, jobs, &Cache{Dir: dir})
	checkErr := NewKeySpace(cfg).Plan(jobs).Check(SourceFor(dir))
	if oracleErr == nil || checkErr == nil {
		t.Fatalf("missing jobs not reported: %v / %v", oracleErr, checkErr)
	}
	if oracleErr.Error() != checkErr.Error() {
		t.Fatalf("error text drifted:\n%v\nvs\n%v", checkErr, oracleErr)
	}
	// A complete sweep passes the check.
	if err := NewKeySpace(cfg).Plan(jobs[:len(jobs)-2]).Check(SourceFor(dir)); err != nil {
		t.Fatal(err)
	}
	// The stream itself also fails on a missing key.
	if err := NewKeySpace(cfg).Plan(jobs).WriteJSON(&bytes.Buffer{}, SourceFor(dir)); err == nil {
		t.Fatal("WriteJSON ignored a missing key")
	}
}

func TestMergeNDJSON(t *testing.T) {
	cfg := core.DefaultConfig()
	jobs := testJobs()
	dir := warmSegmentedCache(t, cfg, jobs)

	var buf bytes.Buffer
	if err := NewKeySpace(cfg).Plan(jobs).WriteNDJSON(&buf, SourceFor(dir)); err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(cfg, jobs, &Cache{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	i := 0
	for sc.Scan() {
		if i >= len(merged) {
			t.Fatalf("more NDJSON lines than merged rows")
		}
		want, _ := json.Marshal(merged[i])
		if sc.Text() != string(want) {
			t.Fatalf("line %d:\n%s\nwant\n%s", i, sc.Text(), want)
		}
		i++
	}
	if i != len(merged) {
		t.Fatalf("%d NDJSON lines, want %d", i, len(merged))
	}
}

// TestMergeTopologiesByteIdentity is the cross-topology acceptance
// gate: for every built-in domain topology, the streaming columnar
// merge must reproduce the JSON oracle byte for byte (per-domain slice
// lengths differ across topologies, so this exercises the float-list
// codec at every width).
func TestMergeTopologiesByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations per topology")
	}
	for _, name := range arch.TopologyNames() {
		m := &Manifest{
			Benchmarks: []string{"g721_decode"},
			Policies:   []string{PolicyBaseline, PolicyOnline, PolicySingleClock},
			Topology:   name,
		}
		jobs, err := m.Jobs()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := m.Config()
		dir := t.TempDir()
		eng := New(cfg)
		eng.Cache = &Cache{Dir: dir}
		eng.Segments = SegmentStoreFor(dir)
		if _, _, err := eng.Run(context.Background(), jobs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		oracle, err := MergeBytes(cfg, jobs, &Cache{Dir: dir})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := NewKeySpace(cfg).Plan(jobs).WriteJSON(&buf, SourceFor(dir)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), oracle) {
			t.Errorf("%s: columnar merge differs from JSON oracle", name)
		}
		// And with the JSON layer gone, segments alone reproduce it.
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if e.IsDir() && e.Name() != SegmentSubdir {
				os.RemoveAll(filepath.Join(dir, e.Name()))
			}
		}
		buf.Reset()
		if err := NewKeySpace(cfg).Plan(jobs).WriteJSON(&buf, SourceFor(dir)); err != nil {
			t.Fatalf("%s segments-only: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), oracle) {
			t.Errorf("%s: segments-only merge differs from JSON oracle", name)
		}
	}
}

// countingWriter discards output while sampling live heap every chunk
// of written bytes.
type countingWriter struct {
	n        int64
	nextSamp int64
	peak     uint64
	base     uint64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	if w.n >= w.nextSamp {
		w.nextSamp = w.n + 1<<20
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > w.base && ms.HeapAlloc-w.base > w.peak {
			w.peak = ms.HeapAlloc - w.base
		}
	}
	return len(p), nil
}

// TestMergeToBoundedMemory streams a 10k-row synthetic sweep and
// asserts the merge path's live heap stays a small fraction of the
// output size — the property the daemon's /results endpoint relies on.
func TestMergeToBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 10k-row synthetic sweep")
	}
	cfg := core.DefaultConfig()
	const n = 10_000
	jobs := make([]Job, n)
	rows := make([]Merged, n)
	for i := range jobs {
		j := Job{Bench: "synthetic", Policy: PolicyOffline, Delta: float64(i) / 16}
		out := &Outcome{GlobalMHz: i}
		out.Res.Instructions = int64(i) * 977
		out.Res.TimePs = int64(i) * 13_331
		out.Res.EnergyPJ = float64(i) * 0.75
		out.Res.DomainPJ = make([]float64, 16)
		out.Res.AvgMHz = make([]float64, 16)
		for d := 0; d < 16; d++ {
			out.Res.DomainPJ[d] = float64(i*17+d) * 0.125
			out.Res.AvgMHz[d] = float64(300 + (i+d)%700)
		}
		jobs[i] = j
		rows[i] = Merged{Key: Key(cfg, j), Job: j, Outcome: out}
	}
	dir := t.TempDir()
	st := SegmentStoreFor(dir)
	if err := st.Append(rows); err != nil {
		t.Fatal(err)
	}
	src := MergeSource{Segments: SegmentStoreFor(dir)}
	// Prime the store's decoded form so the baseline below includes it.
	if _, ok := src.Get(rows[0].Key); !ok {
		t.Fatal("segment store empty")
	}
	rows = nil // the stream must not need the materialized rows

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := &countingWriter{base: ms.HeapAlloc}
	if err := NewKeySpace(cfg).Plan(jobs).WriteJSON(w, src); err != nil {
		t.Fatal(err)
	}
	if w.n < 4<<20 {
		t.Fatalf("synthetic output only %d bytes; grow the fixture", w.n)
	}
	if limit := uint64(w.n) / 3; w.peak > limit {
		t.Fatalf("merge held %d bytes live for %d bytes of output (limit %d)", w.peak, w.n, limit)
	}
}
