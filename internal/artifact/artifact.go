// Package artifact implements a content-addressed, schema-versioned
// on-disk store for intermediate pipeline products — trained profiles
// (call trees plus shaken per-domain frequency histograms) today, with
// room for other stage outputs. It sits on the same blob layer as the
// sweep result cache (internal/store): one JSON file per key under a
// two-character fan-out directory, written atomically so concurrent
// shards and machines can share one store, and corrupt or mismatched
// entries are reported as such and rewritten by the next producer.
//
// Artifacts differ from sweep results in what their keys hash: a result
// key covers the full core.Config because every knob can change the
// outcome, while an artifact key covers only the configuration that can
// change the training state. The threshold delta and the on-line
// controller parameters are canonicalized away, so a threshold sweep —
// or a manifest with a different calibrated delta — replans from one
// stored profile instead of retraining.
package artifact

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/store"
)

// SchemaVersion versions both the key derivation and the payload
// encodings; bump it when either changes meaning so stale artifacts can
// never be mistaken for current ones. It is independent of the sweep
// result cache's key schema: bumping one does not move the other's keys.
const SchemaVersion = 1

// KindProfile is the artifact kind of a trained profile payload
// (core.EncodeProfile bytes).
const KindProfile = "profile"

// KeySpace is the trained-profile key space of one configuration. A
// profile key is a hex SHA-256 of the canonical JSON of (schema version,
// kind, training configuration, benchmark, scheme, input, window). The
// training configuration is cfg with the replan-time and
// comparator-only knobs (DeltaPct, Online) zeroed — training is
// delta-independent, which is exactly what makes the stored profile
// shareable across deltas — and is encoded once, when the key space is
// built (see store.KeySpace). A KeySpace is safe for concurrent use.
type KeySpace struct {
	keys *store.KeySpace
}

// NewKeySpace returns the profile key space of cfg's training
// configuration.
func NewKeySpace(cfg core.Config) *KeySpace {
	cfg.DeltaPct = 0
	cfg.Online = control.AttackDecayConfig{}
	// The default topology hashes as absent (like the result-cache key
	// space), so pre-topology artifacts keep their keys.
	cfg.Sim.Topology = arch.CanonicalTopologyName(cfg.Sim.Topology)
	b, err := json.Marshal(cfg)
	if err != nil {
		// core.Config is plain data; this cannot fail.
		panic("artifact: key encoding: " + err.Error())
	}
	// The prefix is the key object up to the benchmark member.
	prefix := `{"schema":` + strconv.Itoa(SchemaVersion) + `,"kind":"` + KindProfile + `","config":`
	return &KeySpace{store.NewKeySpace([]byte(prefix), b, []byte(","))}
}

// ProfileKey returns the key of the profile trained for (bench, scheme)
// on the given input and window.
func (k *KeySpace) ProfileKey(bench, scheme, input string, window int64) string {
	tail, err := json.Marshal(struct {
		Bench  string `json:"bench"`
		Scheme string `json:"scheme"`
		Input  string `json:"input"`
		Window int64  `json:"window"`
	}{bench, scheme, input, window})
	if err != nil {
		panic("artifact: key encoding: " + err.Error())
	}
	// The tail continues the prefix's object, so it drops its own '{'.
	return k.keys.Key(tail[1:])
}

// ProfileKey returns the content-addressed key of a trained profile:
// NewKeySpace(cfg).ProfileKey(bench, scheme, input, window).
func ProfileKey(cfg core.Config, bench, scheme, input string, window int64) string {
	return NewKeySpace(cfg).ProfileKey(bench, scheme, input, window)
}

// Status is the store layer's lookup status; the alias and Hit keep
// the names the repository benchmark compiles against.
type Status = store.Status

// Hit is store.Hit.
const Hit = store.Hit

// Store is the on-disk artifact store rooted at Dir.
type Store struct {
	Dir string

	writes atomic.Int64
	loads  atomic.Int64
	hits   atomic.Int64
}

// entry is the on-disk representation: schema, key and kind are stored
// alongside the payload so entries are self-describing and damage
// (truncation, copies to the wrong name, stale schemas) is detectable.
type entry struct {
	Schema  int             `json:"schema"`
	Key     string          `json:"key"`
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// EntryPath returns the path an artifact is stored at, or an error for
// a malformed key.
func (s *Store) EntryPath(key string) (string, error) { return store.Path(s.Dir, key, ".json") }

// Load returns the payload stored under key for the given kind, with a
// status distinguishing absent entries from damaged ones (unreadable,
// syntactically invalid, schema-stale, or stored under a mismatched
// key).
func (s *Store) Load(key, kind string) (json.RawMessage, Status) {
	payload, status := s.load(key, kind)
	s.loads.Add(1)
	if status == store.Hit {
		s.hits.Add(1)
	}
	return payload, status
}

func (s *Store) load(key, kind string) (json.RawMessage, Status) {
	path, err := s.EntryPath(key)
	if err != nil {
		return nil, store.Corrupt
	}
	b, status := store.Read(path)
	if status != store.Hit {
		return nil, status
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, store.Corrupt
	}
	if e.Schema != SchemaVersion || e.Key != key || e.Kind != kind || len(e.Payload) == 0 {
		return nil, store.Corrupt
	}
	return e.Payload, store.Hit
}

// Put atomically persists a payload under key.
func (s *Store) Put(key, kind string, payload []byte) error {
	path, err := s.EntryPath(key)
	if err != nil {
		return fmt.Errorf("artifact store: %w", err)
	}
	// Compact encoding: json.Marshal preserves the payload's bytes
	// exactly (payloads are already compact canonical JSON), so what
	// Load returns is byte-identical to what the producer encoded.
	b, err := json.Marshal(entry{Schema: SchemaVersion, Key: key, Kind: kind, Payload: payload})
	if err != nil {
		return fmt.Errorf("artifact store: encode %s: %w", key, err)
	}
	if err := store.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("artifact store: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// Has reports whether a valid entry of the given kind exists under key.
// Unlike Load it does not count toward the load/hit observables: it is
// the existence probe fleet synchronization uses to dedup uploads, and
// sync probes should not skew the training hit ratio.
func (s *Store) Has(key, kind string) bool {
	_, status := s.load(key, kind)
	return status == store.Hit
}

// PutRaw validates one serialized store entry (the bytes of an entry
// file produced by another node's Put) against key and persists it
// through Put. Put re-encodes the decoded entry with the same compact
// serialization that produced it, so the stored file is byte-identical
// to the uploader's; damaged, schema-stale or mismatched uploads are
// rejected instead of stored.
func (s *Store) PutRaw(key string, raw []byte) error {
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return fmt.Errorf("artifact store: entry for %.12s: %w", key, err)
	}
	if e.Key != key {
		return fmt.Errorf("artifact store: entry declares key %.12s, expected %.12s", e.Key, key)
	}
	if e.Schema != SchemaVersion {
		return fmt.Errorf("artifact store: entry %.12s declares schema %d, this store speaks %d", key, e.Schema, SchemaVersion)
	}
	if e.Kind == "" || len(e.Payload) == 0 {
		return fmt.Errorf("artifact store: entry %.12s is missing kind or payload", key)
	}
	return s.Put(key, e.Kind, e.Payload)
}

// Writes reports how many artifacts this store instance has persisted —
// the observable that fleet-wide train-once tests assert on.
func (s *Store) Writes() int64 { return s.writes.Load() }

// Loads reports how many lookups this store instance has answered.
func (s *Store) Loads() int64 { return s.loads.Load() }

// Hits reports how many of those lookups found a valid entry — with
// Loads and Writes, the store-level hit-ratio observable a long-lived
// service exposes on its metrics surface.
func (s *Store) Hits() int64 { return s.hits.Load() }
