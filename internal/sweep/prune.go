package sweep

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/artifact"
	"repro/internal/store"
)

// artifactSubdir is where a cache directory's co-located artifact store
// lives. Result entries fan out under two-hex-character directories, so
// the name can never collide with one.
const artifactSubdir = "artifacts"

// ArtifactStore returns the artifact store conventionally co-located
// with a result cache directory (its "artifacts" subdirectory), so one
// shared directory tree — on one machine or a network mount — carries
// both the results and the training artifacts they were built from.
func ArtifactStore(cacheDir string) *artifact.Store {
	return &artifact.Store{Dir: filepath.Join(cacheDir, artifactSubdir)}
}

// Unreachable scans a shared cache directory — result entries at the
// top level, the artifact store under artifacts/, the packed-stream
// cache under streams/ — and returns the entry files whose keys are not
// in the given reachable sets, as sorted cache-relative paths. Leftover
// temp files from interrupted writers are included (they are garbage by
// construction); files outside the recognized layouts are left alone.
func Unreachable(dir string, results, artifacts, streams map[string]bool) ([]string, error) {
	var out []string
	scan := func(root, ext string, keep map[string]bool) error {
		return store.Walk(root, ext, func(path, key string, _ fs.DirEntry) error {
			if keep[key] {
				return nil
			}
			rel, err := filepath.Rel(dir, path)
			if err != nil {
				return err
			}
			out = append(out, rel)
			return nil
		})
	}
	if err := scan(dir, ".json", results); err != nil {
		return nil, fmt.Errorf("sweep: prune scan: %w", err)
	}
	if err := scan(filepath.Join(dir, artifactSubdir), ".json", artifacts); err != nil {
		return nil, fmt.Errorf("sweep: prune scan: %w", err)
	}
	if err := scan(filepath.Join(dir, streamSubdir), ".bin", streams); err != nil {
		return nil, fmt.Errorf("sweep: prune scan: %w", err)
	}
	sort.Strings(out)
	return out, nil
}

// Prune deletes the given cache-relative entry files under dir and
// removes any fan-out directories left empty. It returns the number of
// files removed and the bytes reclaimed.
func Prune(dir string, rel []string) (removed int, bytes int64, err error) {
	dirs := make(map[string]bool)
	for _, r := range rel {
		path := filepath.Join(dir, r)
		if info, serr := os.Stat(path); serr == nil {
			bytes += info.Size()
		}
		if rerr := os.Remove(path); rerr != nil {
			if os.IsNotExist(rerr) {
				continue
			}
			return removed, bytes, fmt.Errorf("sweep: prune: %w", rerr)
		}
		removed++
		dirs[filepath.Dir(path)] = true
	}
	// Best-effort cleanup of emptied fan-out directories.
	var emptied []string
	for d := range dirs {
		emptied = append(emptied, d)
	}
	sort.Strings(emptied)
	for _, d := range emptied {
		os.Remove(d) // fails (and is ignored) when not empty
	}
	return removed, bytes, nil
}

// EntrySize returns the on-disk size of a cache-relative entry, for
// dry-run reporting.
func EntrySize(dir, rel string) int64 {
	info, err := os.Stat(filepath.Join(dir, rel))
	if err != nil {
		return 0
	}
	return info.Size()
}
