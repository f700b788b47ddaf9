package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// update rewrites committed golden files from the current run instead
// of comparing against them: `go test ./internal/sweep -run
// TestBatchedMatchesSequential -update`. Regenerate only on purpose,
// with the reason in CHANGES.md — a golden that moves is a result that
// moved.
var update = flag.Bool("update", false, "rewrite golden files under testdata/ from this run")

// runGolden is one grid run's committed reference: every job's outcome
// JSON in grid order, the engine-wide executed/error counts, and the
// relative path and SHA-256 of every file the run left in its cache
// directory (result entries and artifacts alike).
type runGolden struct {
	Outcomes []goldenOutcome `json:"outcomes"`
	Executed int             `json:"executed"`
	Errors   int             `json:"errors"`
	Tree     []goldenFile    `json:"tree"`
}

type goldenOutcome struct {
	Job     Job             `json:"job"`
	Outcome json.RawMessage `json:"outcome"`
}

type goldenFile struct {
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
}

// captureGolden records one finished run in golden form.
func captureGolden(t *testing.T, jobs []Job, outs []*Outcome, sum Summary, dir string) runGolden {
	t.Helper()
	g := runGolden{Executed: sum.Executed, Errors: sum.Errors, Tree: treeDigest(t, dir)}
	for i, j := range jobs {
		b, err := json.Marshal(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		g.Outcomes = append(g.Outcomes, goldenOutcome{Job: j, Outcome: b})
	}
	return g
}

// treeDigest lists every file under root by slash-separated relative
// path and content hash, sorted by path.
func treeDigest(t *testing.T, root string) []goldenFile {
	t.Helper()
	var files []goldenFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		sum := sha256.Sum256(b)
		files = append(files, goldenFile{Path: filepath.ToSlash(rel), SHA256: hex.EncodeToString(sum[:])})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	return files
}

func writeGolden(t *testing.T, path string, g runGolden) {
	t.Helper()
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, path string) runGolden {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var g runGolden
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return g
}

// compareGolden asserts a run reproduces a golden exactly: the same
// jobs in the same order with byte-identical outcome JSON, the same
// executed/error counts, and the same cache tree, file for file.
func compareGolden(t *testing.T, want, got runGolden) {
	t.Helper()
	if len(want.Outcomes) != len(got.Outcomes) {
		t.Fatalf("golden has %d jobs, run has %d", len(want.Outcomes), len(got.Outcomes))
	}
	for i, w := range want.Outcomes {
		g := got.Outcomes[i]
		if w.Job != g.Job {
			t.Errorf("job %d: golden %s, run %s", i, w.Job, g.Job)
			continue
		}
		// The golden file is indented; outcome bytes compare compacted.
		var wb bytes.Buffer
		if err := json.Compact(&wb, w.Outcome); err != nil {
			t.Fatalf("%s: golden outcome: %v", w.Job, err)
		}
		if !bytes.Equal(wb.Bytes(), g.Outcome) {
			t.Errorf("%s: outcome diverged\ngolden %s\nrun    %s", w.Job, wb.Bytes(), g.Outcome)
		}
	}
	if want.Executed != got.Executed || want.Errors != got.Errors {
		t.Errorf("executed/errors: golden %d/%d, run %d/%d", want.Executed, want.Errors, got.Executed, got.Errors)
	}
	wantTree := make(map[string]string, len(want.Tree))
	for _, f := range want.Tree {
		wantTree[f.Path] = f.SHA256
	}
	gotTree := make(map[string]bool, len(got.Tree))
	for _, f := range got.Tree {
		gotTree[f.Path] = true
		switch h, ok := wantTree[f.Path]; {
		case !ok:
			t.Errorf("cache has extra entry %s", f.Path)
		case h != f.SHA256:
			t.Errorf("cache entry %s differs from the golden", f.Path)
		}
	}
	for _, f := range want.Tree {
		if !gotTree[f.Path] {
			t.Errorf("cache missing %s", f.Path)
		}
	}
}
