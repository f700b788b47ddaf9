package sweep

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/store"
)

// Cache is a content-addressed on-disk result store. Every entry is one
// JSON file named by its job key under a two-character fan-out
// directory, written through the store layer's atomic write so
// concurrent shards can share one cache directory and interrupted
// sweeps never leave half-written entries behind. Corrupt or mismatched
// entries are treated as misses and overwritten by the next run; the
// engine counts and surfaces them (Summary.CorruptEntries).
type Cache struct {
	Dir string
}

// entry is the on-disk representation: the key is stored alongside the
// job and outcome so entries are self-describing and key mismatches
// (e.g. a file copied to the wrong name) are detectable.
type entry struct {
	Key     string   `json:"key"`
	Job     Job      `json:"job"`
	Outcome *Outcome `json:"outcome"`
}

// EntryPath returns the path an outcome is stored at, or an error for a
// malformed key.
func (c *Cache) EntryPath(key string) (string, error) { return store.Path(c.Dir, key, ".json") }

// read loads and validates the entry stored under key.
func (c *Cache) read(key string) (entry, store.Status) {
	path, err := c.EntryPath(key)
	if err != nil {
		return entry{}, store.Corrupt
	}
	b, status := store.Read(path)
	if status != store.Hit {
		return entry{}, status
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil || e.Key != key || e.Outcome == nil {
		return entry{}, store.Corrupt
	}
	return e, store.Hit
}

// Load returns the outcome stored under key, with a status
// distinguishing absent entries from damaged ones (unreadable,
// truncated, syntactically invalid, or stored under a mismatched key).
func (c *Cache) Load(key string) (*Outcome, store.Status) {
	e, status := c.read(key)
	return e.Outcome, status
}

// Get loads the outcome stored under key, collapsing missing and
// damaged entries to ok=false (Merge's view: either way the work is
// not in the cache).
func (c *Cache) Get(key string) (*Outcome, bool) {
	e, status := c.read(key)
	return e.Outcome, status == store.Hit
}

// Entry loads the full entry stored under key — job and outcome — for
// callers that re-encode entries elsewhere (segment building needs the
// job, not just the outcome, so re-materialized JSON stays
// byte-identical). Damaged entries report ok=false like Get.
func (c *Cache) Entry(key string) (Job, *Outcome, bool) {
	e, status := c.read(key)
	return e.Job, e.Outcome, status == store.Hit
}

// PutRaw validates one serialized cache entry (the bytes of an entry
// file produced by another node's Put) against key and persists it
// through Put. Because Put re-encodes the decoded entry with the same
// deterministic serialization that produced it, the stored file is
// byte-identical to the uploader's — the property fleet-synced caches
// rely on — while a truncated or mismatched upload is rejected instead
// of stored.
func (c *Cache) PutRaw(key string, raw []byte) error {
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return fmt.Errorf("sweep cache: entry for %.12s: %w", key, err)
	}
	if e.Key != key {
		return fmt.Errorf("sweep cache: entry declares key %.12s, expected %.12s", e.Key, key)
	}
	if e.Outcome == nil {
		return fmt.Errorf("sweep cache: entry %.12s has no outcome", key)
	}
	return c.Put(e.Key, e.Job, e.Outcome)
}

// Put atomically persists an outcome under key.
func (c *Cache) Put(key string, job Job, out *Outcome) error {
	path, err := c.EntryPath(key)
	if err != nil {
		return fmt.Errorf("sweep cache: %w", err)
	}
	b, err := json.MarshalIndent(entry{Key: key, Job: job, Outcome: out}, "", " ")
	if err != nil {
		return fmt.Errorf("sweep cache: encode %s: %w", key, err)
	}
	if err := store.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("sweep cache: %w", err)
	}
	return nil
}
