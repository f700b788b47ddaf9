package perf

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestTrajectoryFile: perf/trajectory.json parses, is keyed by PR
// number, and each PR's record names every scenario at most once per
// list (its report's scenarios, or its speedups and pre/post reports).
func TestTrajectoryFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "perf", "trajectory.json"))
	if err != nil {
		t.Fatal(err)
	}
	var traj struct {
		Schema int                        `json:"schema"`
		PRs    map[string]json.RawMessage `json:"prs"`
	}
	if err := json.Unmarshal(raw, &traj); err != nil {
		t.Fatalf("trajectory.json: %v", err)
	}
	if traj.Schema != SchemaVersion || len(traj.PRs) == 0 {
		t.Fatalf("trajectory.json: schema %d with %d PRs", traj.Schema, len(traj.PRs))
	}
	for key, entry := range traj.PRs {
		pr, err := strconv.Atoi(key)
		if err != nil || pr < 1 {
			t.Errorf("PR key %q is not a PR number", key)
		}
		var rec struct {
			PR        int      `json:"pr"`
			Scenarios []Result `json:"scenarios"`
			Speedups  []Result `json:"speedups"`
			Pre       *Report  `json:"pre"`
			Post      *Report  `json:"post"`
		}
		if err := json.Unmarshal(entry, &rec); err != nil {
			t.Errorf("PR %s: %v", key, err)
			continue
		}
		if rec.PR != 0 && rec.PR != pr {
			t.Errorf("PR %s: record says pr %d", key, rec.PR)
		}
		lists := map[string][]Result{"scenarios": rec.Scenarios, "speedups": rec.Speedups}
		if rec.Pre != nil {
			lists["pre"] = rec.Pre.Scenarios
		}
		if rec.Post != nil {
			lists["post"] = rec.Post.Scenarios
		}
		named := 0
		for list, results := range lists {
			seen := map[string]bool{}
			for _, r := range results {
				if r.Name == "" || seen[r.Name] {
					t.Errorf("PR %s %s: scenario name %q empty or repeated", key, list, r.Name)
				}
				seen[r.Name] = true
			}
			named += len(results)
		}
		if named == 0 {
			t.Errorf("PR %s: no scenarios", key)
		}
	}
}
