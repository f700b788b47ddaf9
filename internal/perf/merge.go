package perf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"

	"repro/internal/serve"
	"repro/internal/sweep"
)

// Merge/report-path scenarios: the streaming columnar merge against the
// per-entry JSON oracle it must stay byte-identical to, and the daemon's
// bounded-memory /results streaming over the same warm cache.
const (
	// MergeThroughput streams a 10k-row merge from the columnar segment
	// layer (`mcdsweep merge`'s default path): one footer-index scan
	// answers the whole grid, rows encode straight to the output writer.
	MergeThroughput = "merge-throughput"
	// MergeThroughputJSON is the same merge through the per-entry JSON
	// path (`mcdsweep merge -oracle`): one file read and decode per job,
	// with the full Merged slice materialized before encoding. The
	// MergeThroughput/MergeThroughputJSON wall-clock ratio is the
	// columnar layer's speedup on the identical byte output.
	MergeThroughputJSON = "merge-throughput-json"
	// ResultsStreaming drives a fresh daemon over the same warm cache
	// and streams the sweep's merged results (JSON and NDJSON) straight
	// off the segment layer — the bounded-memory serving path.
	ResultsStreaming = "results-streaming"
)

// mergeRounds amortizes per-round setup noise; both merge scenarios use
// the same count so their ratio is a pure per-merge comparison.
const mergeRounds = 3

// mergeGridManifest is the synthetic ~10k-job grid (19 benchmarks ×
// offline × 527 thresholds = 10013 jobs) all three scenarios share.
func mergeGridManifest() sweep.Manifest {
	deltas := make([]float64, 527)
	for i := range deltas {
		deltas[i] = 0.5 + float64(i)*0.01
	}
	return sweep.Manifest{
		Name:     "merge-grid",
		Policies: []string{sweep.PolicyOffline},
		Deltas:   deltas,
	}
}

// syntheticOutcome derives a deterministic outcome from the job alone,
// shaped like a real simulation result (per-domain float lists included)
// so merged rows carry realistic per-row volume.
func syntheticOutcome(j sweep.Job) (*sweep.Outcome, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%g", j.Bench, j.Policy, j.Delta)
	seed := h.Sum64()
	out := &sweep.Outcome{}
	out.Res.Instructions = int64(1_000_000 + seed%1_000_000)
	out.Res.TimePs = out.Res.Instructions * int64(400+seed%200)
	out.Res.EnergyPJ = float64(seed%1_000_000) / 3.0
	out.Res.SyncCrossings = int64(seed % 10_000)
	out.Res.SyncPenalties = int64(seed % 5_000)
	out.Res.Mispredicts = int64(seed % 50_000)
	out.Res.MispredictRate = float64(seed%1000) / 10_000
	out.Res.IL1MissRate = float64(seed%100) / 1_000
	out.Res.DL1MissRate = float64(seed%200) / 1_000
	out.Res.L2MissRate = float64(seed%50) / 1_000
	for d := 0; d < 4; d++ {
		out.Res.DomainPJ = append(out.Res.DomainPJ, out.Res.EnergyPJ/4+float64(d))
		out.Res.AvgMHz = append(out.Res.AvgMHz, 250+float64((seed>>uint(8*d))%750))
	}
	return out, nil
}

// warmMergeGrid executes the grid untimed into a fresh cache directory
// (JSON entries plus one sealed segment) and returns the directory, the
// summed instruction count of the grid, and a cleanup function.
func warmMergeGrid() (dir string, instrs int64, cleanup func(), err error) {
	dir, err = os.MkdirTemp("", "mcdperf-merge-*")
	if err != nil {
		return "", 0, nil, err
	}
	fail := func(e error) (string, int64, func(), error) {
		os.RemoveAll(dir)
		return "", 0, nil, e
	}
	m := mergeGridManifest()
	jobs, err := m.Jobs()
	if err != nil {
		return fail(err)
	}
	eng := sweep.New(m.Config())
	eng.Cache = &sweep.Cache{Dir: dir}
	eng.Segments = sweep.SegmentStoreFor(dir)
	eng.ExecFn = syntheticOutcome
	outs, _, err := eng.Run(context.Background(), jobs)
	if err != nil {
		return fail(err)
	}
	for _, o := range outs {
		instrs += o.Res.Instructions
	}
	return dir, instrs, func() { os.RemoveAll(dir) }, nil
}

// countingDiscard counts bytes written so scenarios can assert the
// stream actually produced output without holding it.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func init() {
	m := mergeGridManifest()

	var segDir string
	var segInstrs int64
	Register(Scenario{
		Name: MergeThroughput,
		Desc: "stream-merge a 10k-job grid from the columnar segment layer (mcdsweep merge default path)",
		Setup: func() (func(), error) {
			dir, instrs, cleanup, err := warmMergeGrid()
			if err != nil {
				return nil, err
			}
			segDir, segInstrs = dir, instrs
			return cleanup, nil
		},
		Run: func() (int64, error) {
			jobs, err := m.Jobs()
			if err != nil {
				return 0, err
			}
			var total int64
			for r := 0; r < mergeRounds; r++ {
				// A fresh source per round keeps the measurement cold:
				// every round pays the segment scan, decode and stream.
				src := sweep.SourceFor(segDir)
				var w countingDiscard
				if err := sweep.NewKeySpace(m.Config()).Plan(jobs).WriteJSON(&w, src); err != nil {
					return 0, err
				}
				if w.n == 0 {
					return 0, errors.New("perf: merge produced no output")
				}
				total += segInstrs
			}
			return total, nil
		},
	})

	var jsonDir string
	var jsonInstrs int64
	Register(Scenario{
		Name: MergeThroughputJSON,
		Desc: "merge the same 10k-job grid through the per-entry JSON oracle (mcdsweep merge -oracle path)",
		Setup: func() (func(), error) {
			dir, instrs, cleanup, err := warmMergeGrid()
			if err != nil {
				return nil, err
			}
			jsonDir, jsonInstrs = dir, instrs
			return cleanup, nil
		},
		Run: func() (int64, error) {
			jobs, err := m.Jobs()
			if err != nil {
				return 0, err
			}
			var total int64
			for r := 0; r < mergeRounds; r++ {
				b, err := sweep.MergeBytes(m.Config(), jobs, &sweep.Cache{Dir: jsonDir})
				if err != nil {
					return 0, err
				}
				if len(b) == 0 {
					return 0, errors.New("perf: merge produced no output")
				}
				total += jsonInstrs
			}
			return total, nil
		},
	})

	var resInstrs int64
	var resBase, resSweep string
	var resStop func()
	Register(Scenario{
		Name: ResultsStreaming,
		Desc: "stream a 10k-job sweep's merged results (JSON + NDJSON) from a warm daemon's segment layer",
		Setup: func() (func(), error) {
			dir, instrs, cleanup, err := warmMergeGrid()
			if err != nil {
				return nil, err
			}
			resInstrs = instrs
			// The default queue depth admits ~1k jobs; this sweep is 10k.
			srv := serve.NewServer(dir, 0, 16384)
			srv.ExecFn = syntheticOutcome
			ts := httptest.NewServer(srv.Handler())
			resBase = ts.URL
			resStop = func() {
				ts.Close()
				srv.Drain(context.Background())
				// Drop idle keep-alive connections so their teardown
				// goroutines cannot bleed allocations into whatever
				// scenario measures next.
				http.DefaultClient.CloseIdleConnections()
				cleanup()
			}
			// Submit the warm sweep untimed; Run measures only the
			// /results streaming path.
			mb, err := json.Marshal(m)
			if err != nil {
				resStop()
				return nil, err
			}
			c := &serve.Client{BaseURL: ts.URL}
			st, err := c.RunManifest(mb, nil)
			if err != nil {
				resStop()
				return nil, err
			}
			if st.Error != "" {
				resStop()
				return nil, errors.New(st.Error)
			}
			resSweep = st.ID
			return func() { resStop() }, nil
		},
		Run: func() (int64, error) {
			var total int64
			for _, format := range []string{"", "?format=ndjson"} {
				resp, err := http.Get(resBase + "/v1/sweeps/" + resSweep + "/results" + format)
				if err != nil {
					return 0, err
				}
				n, cerr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return 0, fmt.Errorf("perf: results%s: HTTP %d", format, resp.StatusCode)
				}
				if cerr != nil {
					return 0, cerr
				}
				if n == 0 {
					return 0, errors.New("perf: results stream produced no output")
				}
				total += resInstrs
			}
			return total, nil
		},
	})
}
