package sweep

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
)

// Streaming merge. MergeBytes (engine.go) is the canonical
// serialization — and the byte-identity oracle — but it materializes
// every Merged row before encoding. The functions here produce the
// same bytes one row at a time: the merge plan (deduplicated keys plus
// their jobs, sorted by key) is the only thing held in memory, and each
// outcome is fetched, encoded, written, and dropped. With a segment
// store as the source, a 10k-job merge touches a handful of segment
// files instead of 10k JSON documents.

// OutcomeSource answers point lookups for merged output. Cache,
// SegmentStore, and MergeSource all implement it.
type OutcomeSource interface {
	Get(key string) (*Outcome, bool)
}

// MergeSource is the standard read view for merge and report paths: the
// columnar segment layer answers first, the canonical JSON cache
// answers whatever segments do not cover (absent or quarantined files),
// so output is complete whenever the JSON cache is — segments only
// change the speed.
type MergeSource struct {
	Cache    *Cache
	Segments *SegmentStore
}

// SourceFor builds the standard merge source over one cache directory.
func SourceFor(cacheDir string) MergeSource {
	return MergeSource{Cache: &Cache{Dir: cacheDir}, Segments: SegmentStoreFor(cacheDir)}
}

// Get returns the outcome under key from the fastest layer that has it.
func (s MergeSource) Get(key string) (*Outcome, bool) {
	if s.Segments != nil {
		if out, ok := s.Segments.Get(key); ok {
			return out, true
		}
	}
	if s.Cache != nil {
		return s.Cache.Get(key)
	}
	return nil, false
}

// Has reports whether key is answerable, without materializing the
// outcome on the segment path.
func (s MergeSource) Has(key string) bool {
	if s.Segments != nil && s.Segments.Has(key) {
		return true
	}
	if s.Cache != nil {
		_, ok := s.Cache.Get(key)
		return ok
	}
	return false
}

// mergePlan is Merge's bookkeeping without its outcomes: the
// deduplicated job set paired with keys, sorted by key. This is the
// bounded part of a streaming merge — a few hundred bytes per job
// regardless of outcome size.
func mergePlan(cfg core.Config, jobs []Job) []Merged {
	plan := make([]Merged, 0, len(jobs))
	seen := make(map[string]bool, len(jobs))
	ks := NewKeySpace(cfg)
	for _, j := range jobs {
		key := ks.Key(j)
		if seen[key] {
			continue
		}
		seen[key] = true
		plan = append(plan, Merged{Key: key, Job: j})
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].Key < plan[j].Key })
	return plan
}

// MergeCheck verifies that src can answer every job before any output
// is produced, reporting the missing ones with Merge's exact error.
// Streaming callers run this first so an incomplete sweep fails with a
// clean error instead of truncated output.
func MergeCheck(cfg core.Config, jobs []Job, src MergeSource) error {
	var missing []error
	for _, m := range mergePlan(cfg, jobs) {
		if !src.Has(m.Key) {
			missing = append(missing, fmt.Errorf("sweep: merge: %s (%s) not in cache", m.Job, m.Key[:12]))
		}
	}
	return errors.Join(missing...)
}

// MergeTo streams the merged result set to w, byte-identical to
// MergeBytes over the same jobs, holding one outcome at a time. A key
// src cannot answer fails the merge (possibly mid-stream; run
// MergeCheck first when partial output must not escape).
func MergeTo(w io.Writer, cfg core.Config, jobs []Job, src OutcomeSource) error {
	plan := mergePlan(cfg, jobs)
	bw := bufio.NewWriter(w)
	if len(plan) == 0 {
		// MarshalIndent of a nil slice: the empty sweep's canonical form.
		if _, err := bw.WriteString("null\n"); err != nil {
			return err
		}
		return bw.Flush()
	}
	// json.MarshalIndent of a slice is exactly "[\n " + the elements
	// each indented one stop and joined by ",\n " + "\n]" — so emitting
	// rows one at a time reproduces the oracle's bytes. Rows go through
	// the direct encoder (encode.go), which matches MarshalIndent
	// byte-for-byte without its reflection cost.
	if _, err := bw.WriteString("[\n "); err != nil {
		return err
	}
	var row []byte
	for i, m := range plan {
		out, ok := src.Get(m.Key)
		if !ok {
			return fmt.Errorf("sweep: merge: %s (%s) not in cache", m.Job, m.Key[:12])
		}
		m.Outcome = out
		b, err := appendMerged(row[:0], m, " ", true)
		if err != nil {
			return err
		}
		row = b
		if i > 0 {
			if _, err := bw.WriteString(",\n "); err != nil {
				return err
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// MergeNDJSON streams the merged result set as newline-delimited JSON —
// one compact Merged object per line, in the same key order as MergeTo
// — for consumers that want incremental parsing over one big document.
func MergeNDJSON(w io.Writer, cfg core.Config, jobs []Job, src OutcomeSource) error {
	bw := bufio.NewWriter(w)
	var row []byte
	for _, m := range mergePlan(cfg, jobs) {
		out, ok := src.Get(m.Key)
		if !ok {
			return fmt.Errorf("sweep: merge: %s (%s) not in cache", m.Job, m.Key[:12])
		}
		m.Outcome = out
		b, err := appendMerged(row[:0], m, "", false)
		if err != nil {
			return err
		}
		row = append(b, '\n')
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}
