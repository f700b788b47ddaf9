package artifact

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// mustPath unwraps EntryPath for a key the test knows is valid.
func mustPath(path string, err error) string {
	if err != nil {
		panic(err)
	}
	return path
}

func TestProfileKeyDeltaIndependent(t *testing.T) {
	cfg := core.DefaultConfig()
	base := ProfileKey(cfg, "gzip", "L+F", "train", 1000)

	// Training is delta-independent and never touches the on-line
	// controller, so those knobs must not move the key: that is what
	// lets a threshold sweep (or a recalibrated manifest) replan from
	// one stored profile.
	cfg2 := cfg
	cfg2.DeltaPct = 8
	if ProfileKey(cfg2, "gzip", "L+F", "train", 1000) != base {
		t.Error("DeltaPct changed the artifact key")
	}
	cfg3 := cfg
	cfg3.Online.Aggressiveness = 2.5
	if ProfileKey(cfg3, "gzip", "L+F", "train", 1000) != base {
		t.Error("Online config changed the artifact key")
	}

	// Everything that can change the training state must move the key.
	variants := map[string]string{
		"bench":  ProfileKey(cfg, "mcf", "L+F", "train", 1000),
		"scheme": ProfileKey(cfg, "gzip", "F", "train", 1000),
		"input":  ProfileKey(cfg, "gzip", "L+F", "ref", 1000),
		"window": ProfileKey(cfg, "gzip", "L+F", "train", 2000),
	}
	cfg4 := cfg
	cfg4.MaxInstances++
	variants["max_instances"] = ProfileKey(cfg4, "gzip", "L+F", "train", 1000)
	cfg5 := cfg
	cfg5.Shaker.MaxPasses++
	variants["shaker"] = ProfileKey(cfg5, "gzip", "L+F", "train", 1000)
	cfg6 := cfg
	cfg6.Sim.Seed++
	variants["sim"] = ProfileKey(cfg6, "gzip", "L+F", "train", 1000)
	seen := map[string]string{base: "base"}
	for name, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := &Store{Dir: t.TempDir()}
	cfg := core.DefaultConfig()
	key := ProfileKey(cfg, "gzip", "L+F", "train", 1000)
	payload := []byte(`{"hello":"world"}`)

	if _, st := s.Load(key, KindProfile); st != store.Miss {
		t.Fatalf("empty store lookup = %v, want Miss", st)
	}
	if err := s.Put(key, KindProfile, payload); err != nil {
		t.Fatal(err)
	}
	if n := s.Writes(); n != 1 {
		t.Fatalf("Writes() = %d, want 1", n)
	}
	got, st := s.Load(key, KindProfile)
	if st != Hit || string(got) != string(payload) {
		t.Fatalf("round trip: status=%v payload=%s", st, got)
	}

	// A lookup under the wrong kind is damage, not a hit.
	if _, st := s.Load(key, "something-else"); st != store.Corrupt {
		t.Errorf("kind mismatch lookup = %v, want Corrupt", st)
	}
}

func TestStoreCorruption(t *testing.T) {
	s := &Store{Dir: t.TempDir()}
	cfg := core.DefaultConfig()
	key := ProfileKey(cfg, "gzip", "L+F", "train", 1000)
	if err := s.Put(key, KindProfile, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}

	// Truncation.
	if err := os.WriteFile(mustPath(s.EntryPath(key)), []byte(`{"schema":1,"key":"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, st := s.Load(key, KindProfile); st != store.Corrupt {
		t.Errorf("truncated entry = %v, want Corrupt", st)
	}

	// Key mismatch (file copied to the wrong name).
	other := ProfileKey(cfg, "mcf", "L+F", "train", 1000)
	if err := s.Put(other, KindProfile, []byte(`{"x":2}`)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(mustPath(s.EntryPath(other)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mustPath(s.EntryPath(key)), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, st := s.Load(key, KindProfile); st != store.Corrupt {
		t.Errorf("key-mismatched entry = %v, want Corrupt", st)
	}

	// Stale schema.
	if err := os.WriteFile(mustPath(s.EntryPath(key)),
		[]byte(`{"schema":0,"key":"`+key+`","kind":"profile","payload":{"x":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, st := s.Load(key, KindProfile); st != store.Corrupt {
		t.Errorf("stale-schema entry = %v, want Corrupt", st)
	}

	// A rewrite repairs it.
	if err := s.Put(key, KindProfile, []byte(`{"x":3}`)); err != nil {
		t.Fatal(err)
	}
	if _, st := s.Load(key, KindProfile); st != Hit {
		t.Errorf("rewritten entry = %v, want Hit", st)
	}
}

func TestStoreFanout(t *testing.T) {
	s := &Store{Dir: t.TempDir()}
	cfg := core.DefaultConfig()
	key := ProfileKey(cfg, "gzip", "L+F", "train", 1000)
	if err := s.Put(key, KindProfile, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(s.Dir, key[:2], key+".json")
	if got := mustPath(s.EntryPath(key)); got != want {
		t.Errorf("EntryPath = %s, want %s", got, want)
	}
	if _, err := os.Stat(want); err != nil {
		t.Errorf("entry not at fan-out path: %v", err)
	}
}
