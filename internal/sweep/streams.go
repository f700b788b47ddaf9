package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"

	"repro/internal/isa"
	"repro/internal/store"
	"repro/internal/workload"
)

// streamSubdir is where a cache directory's co-located packed-stream
// cache lives. Like artifacts/, the name can never collide with a
// result fan-out directory.
const streamSubdir = "streams"

// streamSchema versions the stream cache. A stream's key hashes the
// benchmark's full calibration spec and the input, so recalibrations
// re-key naturally; bump the schema when the walk generator or the
// packed codec changes meaning without a spec change.
const streamSchema = 1

// StreamStore is a content-addressed on-disk cache of packed dynamic
// streams (isa.PackedStream). A benchmark input's stream is a pure
// function of the benchmark spec and the input — the walk does not
// depend on the simulated configuration — so one stored stream serves
// every config, topology, and policy. At ~13 bytes per instruction,
// loading one is far cheaper than re-running the generating walk, which
// is what makes cold daemons and fleet workers start fast.
//
// Entries are written through the store layer's atomic write under
// two-hex fan-out directories, named <key>.bin, and are self-describing:
// the key is embedded ahead of the payload, so a file copied to the
// wrong name is detected. Corrupt, truncated, or mismatched entries load
// as store.Corrupt; the engine counts them (Summary.CorruptEntries) and
// rewrites them from a fresh walk.
type StreamStore struct {
	Dir string
}

// StreamStoreFor returns the stream store conventionally co-located
// with a result cache directory (its streams/ subdirectory).
func StreamStoreFor(cacheDir string) *StreamStore {
	return &StreamStore{Dir: filepath.Join(cacheDir, streamSubdir)}
}

// StreamKey returns the content address of one benchmark input's
// recorded stream: a hash of the stream schema, the benchmark's
// calibration spec, and the input. Everything that can change a single
// stream byte is in the hash; nothing else is.
func StreamKey(b *workload.Benchmark, ref bool) string {
	in := b.Train
	if ref {
		in = b.Ref
	}
	payload := struct {
		Schema int           `json:"schema"`
		Spec   workload.Spec `json:"spec"`
		Input  isa.Input     `json:"input"`
	}{streamSchema, b.Spec, in}
	j, err := json.Marshal(payload)
	if err != nil {
		// Spec and Input are plain data; this cannot fail.
		panic("sweep: stream key encoding: " + err.Error())
	}
	return store.SumKey(j)
}

// EntryPath returns the path a stream is stored at, or an error for a
// malformed key.
func (st *StreamStore) EntryPath(key string) (string, error) {
	return store.Path(st.Dir, key, ".bin")
}

// StreamStatus, StreamHit and StreamCorrupt are the store layer's
// lookup status under the names the repository benchmark compiles
// against.
type StreamStatus = store.Status

const (
	StreamHit     = store.Hit
	StreamCorrupt = store.Corrupt
)

// Load decodes the stream stored under key.
func (st *StreamStore) Load(key string) (*isa.PackedStream, store.Status) {
	path, err := st.EntryPath(key)
	if err != nil {
		return nil, store.Corrupt
	}
	b, status := store.Read(path)
	if status != store.Hit {
		return nil, status
	}
	if len(b) < 65 || string(b[:64]) != key || b[64] != '\n' {
		return nil, store.Corrupt
	}
	s, err := isa.DecodePacked(b[65:])
	if err != nil {
		return nil, store.Corrupt
	}
	return s, store.Hit
}

// Put atomically persists a stream under key.
func (st *StreamStore) Put(key string, s *isa.PackedStream) error {
	path, err := st.EntryPath(key)
	if err != nil {
		return fmt.Errorf("stream store: %w", err)
	}
	if err := store.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(append(append([]byte(key), '\n'), isa.EncodePacked(s)...))
		return err
	}); err != nil {
		return fmt.Errorf("stream store: %w", err)
	}
	return nil
}

// StreamStats reports the stream cache co-located with a cache
// directory: entry count and total bytes (temp litter included, since
// prune reclaims it too).
func StreamStats(cacheDir string) (entries int, bytes int64, err error) {
	err = store.Walk(filepath.Join(cacheDir, streamSubdir), ".bin", func(_, _ string, d fs.DirEntry) error {
		if info, err := d.Info(); err == nil {
			entries++
			bytes += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("sweep: stream stats: %w", err)
	}
	return entries, bytes, nil
}
