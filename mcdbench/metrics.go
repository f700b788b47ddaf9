package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported figure. The tables below are the benchmark's
// contract: BENCHMARK.json lists the same names and units, and a
// self-test keeps the two in step.
type metric struct {
	name, unit string
}

// endToEnd is what a user of the system waits for or pays; every
// workload reports every one, measured with tracing off, in host time.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"first_result_ms", "ms"},
	{"result_latency_p50_ms", "ms"},
	{"result_latency_tail_ms", "ms"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer comes from the traced run. A layer a workload bypasses reads 0
// there, which is itself the prediction: a change to that layer must
// leave the workload's end-to-end figures unchanged.
var perLayer = []metric{
	// Training, on cold-paper-grid.
	{"profiler.treewalk_ms", "ms"},
	{"profiler.ns_per_instr", "ns"},
	{"trace.collect_ms", "ms"},
	{"trace.segments", "count"},
	{"trace.events", "count"},
	{"shaker.shake_ms", "ms"},
	{"shaker.segments", "count"},
	{"shaker.us_per_segment", "us"},
	{"core.encode_profile_ms", "ms"},
	{"artifact.put_ms", "ms"},
	{"isa.record_ms", "ms"},
	{"sweep.stream_put_ms", "ms"},
	{"sweep.cache_put_ms", "ms"},
	{"sweep.segment_seal_ms", "ms"},
	// Replay, on warm-replay-grid.
	{"sim.baseline_ms", "ms"},
	{"sim.single_clock_ms", "ms"},
	{"sim.online_ms", "ms"},
	{"sim.edited_ms", "ms"},
	{"sim.ns_per_instr.baseline", "ns"},
	{"sim.ns_per_instr.single_clock", "ns"},
	{"sim.ns_per_instr.online", "ns"},
	{"sim.ns_per_instr.edited", "ns"},
	{"control.ns_per_instr", "ns"},
	{"edit.editor_ns_per_instr", "ns"},
	{"isa.lockstep_ns_per_lane_instr", "ns"},
	{"bpred.lookup_ns", "ns"},
	{"cache.access_ns", "ns"},
	{"threshold.choose_ms", "ms"},
	{"edit.plan_ms", "ms"},
	{"core.replan_ms", "ms"},
	{"artifact.load_ms", "ms"},
	{"core.decode_profile_ms", "ms"},
	{"isa.decode_ms", "ms"},
	{"sweep.stream_load_ms", "ms"},
	// Service and result-store reads, on serve-restart.
	{"serve.sweep_latency_p50_ms", "ms"},
	{"serve.sweep_latency_tail_ms", "ms"},
	{"serve.sweeps_per_s", "1/s"},
	{"serve.submit_p50_ms", "ms"},
	{"serve.submit_tail_ms", "ms"},
	{"serve.first_event_p50_ms", "ms"},
	{"serve.first_event_tail_ms", "ms"},
	{"serve.follow_p50_ms", "ms"},
	{"serve.follow_tail_ms", "ms"},
	{"serve.results_p50_ms", "ms"},
	{"serve.results_tail_ms", "ms"},
	{"serve.refused", "count"},
	{"sweep.cache_get_ms", "ms"},
	{"sweep.merge_ms", "ms"},
	{"sweep.disk_hit_ratio", "ratio"},
	{"sweep.segment_hit_ratio", "ratio"},
	// Every workload.
	{"sim.energy_savings_pct", "%"},
	{"sim.slowdown_pct", "%"},
	{"trace.wall_ms", "ms"},
	{"sweep.unattributed_ms", "ms"},
	{"trace_gap_pct", "%"},
	{"error_ratio", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"sim.instrs", "count"},
	{"sim.sync_crossings", "count"},
	{"sim.sync_penalties", "count"},
	{"sim.mispredicts", "count"},
	{"sim.dl1_miss_rate", "ratio"},
	{"sim.l2_miss_rate", "ratio"},
	{"sweep.executed", "count"},
	{"sweep.mem_hits", "count"},
	{"sweep.disk_hits", "count"},
	{"sweep.corrupt_entries", "count"},
}

// result is the benchmark's final line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one human-readable line per metric, then the result as
// the last line of w. values must hold every metric of table.
func report(w io.Writer, table []metric, values map[string]float64, res *result) error {
	res.Metrics = make(map[string]metricValue, len(table))
	for _, m := range table {
		v, ok := values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "metric %-32s %16.6f %s\n", m.name, v, m.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for a tail, highest first. p99.9 is
// left out: on a small shared host it measures the few 10-20 ms
// preemptions a run suffers, whose count varies from run to run by more
// than any usable bound.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tail returns the highest candidate percentile of xs that has at least
// ten samples beyond it, with that percentile; with fewer than twenty
// samples it falls back to the maximum (percentile 100).
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	for _, p := range tailPercentiles {
		if n*(1-p/100) >= 10 {
			return nearestRank(s, p), p
		}
	}
	return s[len(s)-1], 100
}

// nearestRank is the nearest-rank percentile of sorted s.
func nearestRank(s []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
