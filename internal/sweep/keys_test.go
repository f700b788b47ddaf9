package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/calltree"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/workload"
)

// keyGoldenPath is the committed table of content addresses. Every
// stored result, artifact and stream is filed under one of these keys,
// so a row that moves orphans a whole store: bump the key schema
// instead of regenerating this file.
const keyGoldenPath = "testdata/keys.golden"

type keyRow struct{ name, key string }

// keyTable derives every key the golden pins: result keys for every
// policy with default and non-default parameters on the default and one
// non-default topology, artifact keys for every scheme on both inputs,
// config keys, and stream keys.
func keyTable() []keyRow {
	var rows []keyRow
	add := func(key, format string, args ...any) {
		rows = append(rows, keyRow{fmt.Sprintf(format, args...), key})
	}
	base := core.DefaultConfig()
	for _, topo := range []string{"", "fine6"} {
		cfg := base
		cfg.Sim.Topology = topo
		label := topo
		if label == "" {
			label = "default"
		}
		ks := NewKeySpace(cfg)
		add(ks.ConfigKey(), "config %s", label)
		variants := []struct {
			name string
			job  Job
		}{
			{"plain", Job{}},
			{"delta=default", Job{Delta: cfg.DeltaPct}},
			{"delta=2.5", Job{Delta: 2.5}},
			{"mhz=default", Job{MHz: cfg.Sim.BaseMHz}},
			{"mhz=600", Job{MHz: 600}},
			{"aggressiveness=default", Job{Aggressiveness: cfg.Online.Aggressiveness}},
			{"aggressiveness=1.3", Job{Aggressiveness: 1.3}},
			{"scheme=F", Job{Scheme: "F"}},
		}
		for _, p := range Policies() {
			for _, v := range variants {
				j := v.job
				j.Bench, j.Policy = "gzip", p
				if p == PolicyScheme && j.Scheme == "" {
					j.Scheme = "L+F"
				}
				add(Key(cfg, j), "result %s %s %s", label, p, v.name)
			}
		}
		for _, s := range calltree.Schemes() {
			for _, onRef := range []bool{false, true} {
				spec := ProfileSpec{Bench: "gzip", Scheme: s.Name, OnRef: onRef}
				add(spec.ArtifactKey(cfg), "profile %s %s onref=%v", label, s.Name, onRef)
			}
		}
	}
	// Delta and the on-line controller move result and config keys but
	// are zeroed out of the training configuration.
	cfg := base
	cfg.DeltaPct = 3
	cfg.Online.Aggressiveness = 1.5
	add(NewKeySpace(cfg).ConfigKey(), "config delta=3 aggressiveness=1.5")
	add(Key(cfg, Job{Bench: "gzip", Policy: PolicyScheme, Scheme: "L+F"}), "result delta=3 aggressiveness=1.5 scheme L+F")
	add(artifact.ProfileKey(cfg, "gzip", "L+F", "train", 1000), "profile delta=3 aggressiveness=1.5 gzip L+F train 1000")
	add(artifact.ProfileKey(base, "gzip", "L+F", "train", 1000), "profile default gzip L+F train 1000")
	for _, name := range []string{"adpcm_decode", "gzip", "mcf"} {
		b := workload.ByName(name)
		add(StreamKey(b, false), "stream %s train", name)
		add(StreamKey(b, true), "stream %s ref", name)
	}
	return rows
}

// TestKeyGolden pins the bytes of every key derivation against the
// committed table.
func TestKeyGolden(t *testing.T) {
	var b strings.Builder
	for _, r := range keyTable() {
		fmt.Fprintf(&b, "%s\t%s\n", r.name, r.key)
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(keyGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(keyGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("key table has %d rows, golden %d", len(gotLines), len(wantLines))
	}
	bad := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 5 {
				t.Errorf("key moved:\n got: %s\nwant: %s", gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... %d rows moved in all", bad)
	}
}

// refKey is the result-key derivation without key spaces — one
// json.Marshal of the whole (schema, config, job) payload per key. Key
// must reproduce it byte for byte.
func refKey(cfg core.Config, job Job) string {
	cfg.Sim.Topology = arch.CanonicalTopologyName(cfg.Sim.Topology)
	payload := struct {
		Schema int         `json:"schema"`
		Config core.Config `json:"config"`
		Job    Job         `json:"job"`
	}{keySchema, cfg, job.canonical(cfg)}
	b, err := json.Marshal(payload)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// refProfileKey is artifact.ProfileKey's derivation without key spaces.
func refProfileKey(cfg core.Config, bench, scheme, input string, window int64) string {
	cfg.DeltaPct = 0
	cfg.Online = control.AttackDecayConfig{}
	cfg.Sim.Topology = arch.CanonicalTopologyName(cfg.Sim.Topology)
	payload := struct {
		Schema int         `json:"schema"`
		Kind   string      `json:"kind"`
		Config core.Config `json:"config"`
		Bench  string      `json:"bench"`
		Scheme string      `json:"scheme"`
		Input  string      `json:"input"`
		Window int64       `json:"window"`
	}{artifact.SchemaVersion, artifact.KindProfile, cfg, bench, scheme, input, window}
	b, err := json.Marshal(payload)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestKeySpaceMatchesMarshal checks the key spaces against the
// marshal-everything reference over random jobs: awkward floats (the
// 'f'/'e' switches, 0.1+0.2, negative zero), HTML-escapable and
// invalid-UTF-8 strings, unknown policies and non-default configs.
func TestKeySpaceMatchesMarshal(t *testing.T) {
	point1, point2 := 0.1, 0.2
	floats := []float64{0, math.Copysign(0, -1), point1 + point2, 1e21, -1e21, 1e-7, 1e-6, 9.99e20,
		2.5, -3, 1.0 / 3.0, math.MaxFloat64, math.SmallestNonzeroFloat64}
	strs := []string{"gzip", "", "<b>&amp;</b>", `quote"back\slash`, "tab\tnl\n", "é☃",
		"line\u2028sep", "bad\xffutf8", "ctrl\x01"}
	policies := append(Policies(), "unknown")
	schemes := []string{"", "L+F", "F", "<x>"}

	var cfgs []core.Config
	for _, topo := range []string{"", arch.DefaultName, "fine6", "sync1"} {
		c := core.DefaultConfig()
		c.Sim.Topology = topo
		cfgs = append(cfgs, c)
	}
	odd := core.DefaultConfig()
	odd.DeltaPct = point1 + point2
	odd.Online.Aggressiveness = 1e-7
	odd.Sim.BaseMHz = 750
	cfgs = append(cfgs, odd)

	rng := rand.New(rand.NewSource(7))
	pick := func(n int) int { return rng.Intn(n) }
	randFloat := func() float64 {
		if pick(4) == 0 {
			return rng.NormFloat64() * math.Pow(10, float64(pick(40)-20))
		}
		return floats[pick(len(floats))]
	}
	for _, cfg := range cfgs {
		ks := NewKeySpace(cfg)
		aks := artifact.NewKeySpace(cfg)
		for i := 0; i < 500; i++ {
			j := Job{
				Bench:          strs[pick(len(strs))],
				Policy:         policies[pick(len(policies))],
				Scheme:         schemes[pick(len(schemes))],
				Delta:          randFloat(),
				Aggressiveness: randFloat(),
				MHz:            pick(3) * (pick(2000) - 500),
			}
			want := refKey(cfg, j)
			if got := ks.Key(j); got != want {
				t.Fatalf("topology %q: KeySpace.Key(%+v) = %s, marshal reference %s", cfg.Sim.Topology, j, got, want)
			}
			if got := Key(cfg, j); got != want {
				t.Fatalf("topology %q: Key(%+v) = %s, marshal reference %s", cfg.Sim.Topology, j, got, want)
			}
			bench, scheme, input := strs[pick(len(strs))], strs[pick(len(strs))], strs[pick(len(strs))]
			window := rng.Int63() >> pick(63)
			if pick(2) == 0 {
				window = -window
			}
			want = refProfileKey(cfg, bench, scheme, input, window)
			if got := aks.ProfileKey(bench, scheme, input, window); got != want {
				t.Fatalf("ProfileKey(%q, %q, %q, %d) = %s, marshal reference %s", bench, scheme, input, window, got, want)
			}
		}
	}
}

// BenchmarkKey measures one result key: through a prebuilt key space
// (what every per-job loop pays) and one-shot (which also encodes the
// configuration).
func BenchmarkKey(b *testing.B) {
	cfg := core.DefaultConfig()
	jobs := testJobs()
	b.Run("space", func(b *testing.B) {
		ks := NewKeySpace(cfg)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ks.Key(jobs[i%len(jobs)])
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Key(cfg, jobs[i%len(jobs)])
		}
	})
}
