// Command mcdsweep enumerates, shards, runs, merges and prunes
// experiment sweeps over the paper's evaluation grid, backed by the
// content-addressed persistent result cache and artifact store in
// internal/sweep.
//
// Usage:
//
//	mcdsweep enum   -manifest m.json [-shards N -shard I]
//	mcdsweep run    -manifest m.json -cache DIR [-shards N -shard I] [-parallel K] [-trace spans.ndjson] [-v]
//	mcdsweep run    -manifest m.json -server URL [-v]
//	mcdsweep merge  -manifest m.json -cache DIR [-o out.json] [-oracle]
//	mcdsweep merge  -manifest m.json -server URL [-o out.json]
//	mcdsweep prune  -manifest m.json -cache DIR [-rm]
//	mcdsweep timing -trace spans.ndjson
//
// run -trace records every execution span (per-job and per-phase
// timing, cache/artifact/stream outcomes) into a bounded ring and dumps
// it as NDJSON on exit; tracing is off without the flag and costs the
// hot path nothing. run -v prints the per-phase wall-clock breakdown
// (train/shake/sim/merge plus hit counters) and includes it in the
// summary JSON. timing renders a captured trace as a per-phase,
// per-policy table: count, total, p50/p95/max, hit ratio — the same
// report mcdreport -only timing emits.
//
// With -server, run submits the manifest to a running mcdserved daemon
// (cmd/mcdserved) and waits for the streamed completion instead of
// executing locally, and merge fetches the daemon's merged results —
// byte-identical to a local merge over the daemon's cache directory.
//
// A manifest is a JSON grid (see internal/sweep.Manifest):
//
//	{
//	  "name": "headline",
//	  "benchmarks": ["adpcm_decode", "mcf"],
//	  "policies": ["baseline", "offline", "scheme"],
//	  "schemes": ["L+F"],
//	  "deltas": [0.5, 1, 2]
//	}
//
// run prints a JSON summary whose "executed" counter is zero when every
// job was already cached, so re-running a completed manifest does no
// simulation work. Alongside the result cache, run persists trained
// profiles into DIR/artifacts, so profile-driven jobs with new
// parameters (e.g. fresh threshold deltas) replan from stored training
// state instead of retraining. Shards partition jobs by stable anchor
// key — each job placed with the training its dependency chain hangs
// off — so a cold fleet of N processes sharing the cache directory
// executes each training, and each shared dependency run, exactly once;
// then merge: the merged output is byte-identical to an unsharded run's.
//
// merge streams results from the cache directory's columnar segment
// layer (DIR/segments), falling back to the per-job JSON entries for
// any key segments do not cover; -oracle forces the JSON-only
// materialized path, whose output merge is byte-identical to. run
// seals completed jobs into segments as it goes, so a warm cache
// merges from a handful of segment reads instead of one file per job.
//
// prune garbage-collects cache and artifact entries not reachable from
// the manifest's jobs (including their dependency closure), and
// compacts the segment layer: segments whose rows are all reachable are
// kept, the rest have their live rows rewritten into a fresh segment.
// It is a dry run by default, listing what it would delete and the
// reclaimable bytes per segment; -rm deletes. Long-lived shared cache
// directories otherwise grow without bound as configurations and grids
// evolve.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "enum", "run", "merge", "prune", "timing":
	default:
		usage()
	}

	fs := flag.NewFlagSet("mcdsweep "+cmd, flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "sweep manifest JSON file (required)")
	cacheDir := fs.String("cache", "", "persistent result cache directory (artifact store lives in its artifacts/ subdirectory)")
	shards := fs.Int("shards", 1, "total number of shards")
	shard := fs.Int("shard", 0, "this process's shard index, 0-based")
	parallel := fs.Int("parallel", 0, "worker parallelism (default GOMAXPROCS)")
	recCache := fs.Int("recording-cache", 0, "decoded packed streams held in memory (overrides the manifest's recording_cache; default auto-sized)")
	trainWorkers := fs.Int("train-workers", 0, "intra-job training parallelism — segment-shake workers and concurrent batched collection (overrides the manifest's train_workers; default GOMAXPROCS; results are bit-identical at every setting)")
	out := fs.String("o", "", "merge output file (default stdout)")
	oracle := fs.Bool("oracle", false, "merge: read the per-job JSON cache only, bypassing columnar segments (the byte-identity oracle path)")
	rm := fs.Bool("rm", false, "prune: actually delete unreachable entries and compact segments (default: dry run)")
	server := fs.String("server", "", "mcdserved base URL (e.g. http://127.0.0.1:8337); run submits and waits instead of executing locally, merge fetches the served results")
	tracePath := fs.String("trace", "", "run: write the sweep's execution spans to this NDJSON file; timing: read spans from it (\"-\" for stdin)")
	verbose := fs.Bool("v", false, "run: print the per-phase wall-clock breakdown and include it in the summary JSON")
	fs.Parse(args)

	if cmd == "timing" {
		// timing aggregates an already-captured trace; no manifest, cache
		// or engine is involved.
		rejectFlags(cmd, *manifestPath != "", "-manifest", *cacheDir != "", "-cache", *out != "", "-o",
			*parallel != 0, "-parallel", *rm, "-rm", *server != "", "-server", *oracle, "-oracle",
			*shards != 1, "-shards", *shard != 0, "-shard", *recCache != 0, "-recording-cache",
			*trainWorkers != 0, "-train-workers", *verbose, "-v")
		if *tracePath == "" {
			fatal("timing requires -trace FILE (\"-\" for stdin)")
		}
		if err := timingReport(os.Stdout, *tracePath); err != nil {
			fatal(err.Error())
		}
		return
	}
	if *manifestPath == "" {
		fatal("missing -manifest")
	}
	if *shards < 1 || *shard < 0 || *shard >= *shards {
		fatal(fmt.Sprintf("invalid shard selection %d/%d", *shard, *shards))
	}
	if *recCache < 0 {
		fatal(fmt.Sprintf("invalid -recording-cache %d", *recCache))
	}
	if *trainWorkers < 0 {
		fatal(fmt.Sprintf("invalid -train-workers %d", *trainWorkers))
	}
	// Reject flags the subcommand ignores rather than silently dropping
	// them: a shard-scoped merge, for example, is not a thing — merge
	// always reassembles the full manifest from the cache.
	switch cmd {
	case "enum":
		rejectFlags(cmd, *cacheDir != "", "-cache", *out != "", "-o", *parallel != 0, "-parallel", *rm, "-rm", *server != "", "-server", *recCache != 0, "-recording-cache", *trainWorkers != 0, "-train-workers", *oracle, "-oracle", *tracePath != "", "-trace", *verbose, "-v")
	case "run":
		rejectFlags(cmd, *out != "", "-o", *rm, "-rm", *oracle, "-oracle")
		if *server != "" {
			// The daemon owns its cache directory, worker pool and shard
			// placement; client mode only submits and waits. Its trace —
			// if it runs one — is served on /v1/sweeps/{id}/trace.
			rejectFlags(cmd+" -server", *cacheDir != "", "-cache", *shards != 1, "-shards",
				*shard != 0, "-shard", *parallel != 0, "-parallel", *recCache != 0, "-recording-cache",
				*trainWorkers != 0, "-train-workers", *tracePath != "", "-trace")
		}
	case "merge":
		rejectFlags(cmd, *shards != 1, "-shards", *shard != 0, "-shard", *parallel != 0, "-parallel", *rm, "-rm", *recCache != 0, "-recording-cache", *trainWorkers != 0, "-train-workers", *tracePath != "", "-trace", *verbose, "-v")
		if *server != "" {
			rejectFlags(cmd+" -server", *cacheDir != "", "-cache", *oracle, "-oracle")
		}
	case "prune":
		rejectFlags(cmd, *shards != 1, "-shards", *shard != 0, "-shard", *parallel != 0, "-parallel", *out != "", "-o", *server != "", "-server", *recCache != 0, "-recording-cache", *trainWorkers != 0, "-train-workers", *oracle, "-oracle", *tracePath != "", "-trace", *verbose, "-v")
	}
	m, err := sweep.LoadManifest(*manifestPath)
	if err != nil {
		// Surface the same structured triple the daemon returns for the
		// identical manifest mistake.
		var verr *sweep.ValidationError
		if errors.As(err, &verr) {
			fatalValidation(verr)
		}
		fatal(err.Error())
	}
	cfg := m.Config()
	jobs, err := m.Jobs()
	if err != nil {
		fatal(err.Error())
	}

	switch cmd {
	case "enum":
		mine := sweep.Shard(cfg, jobs, *shards, *shard)
		keys := sweep.NewKeySpace(cfg)
		for _, j := range mine {
			fmt.Printf("%s  %s\n", keys.Key(j)[:12], j)
		}
		fmt.Fprintf(os.Stderr, "%d jobs (shard %d/%d of %d total)\n",
			len(mine), *shard, *shards, len(jobs))

	case "run":
		if *server != "" {
			runRemote(*server, *manifestPath, m, *verbose)
			return
		}
		if *cacheDir == "" {
			fatal("run requires -cache")
		}
		if *trainWorkers > 0 {
			// Like recording_cache, an execution knob: flag wins over the
			// manifest, and it never enters cache keys.
			cfg.TrainWorkers = *trainWorkers
		}
		eng := sweep.New(cfg)
		eng.Workers = *parallel
		eng.RecordingCache = recordingCache(m, *recCache)
		eng.Cache = &sweep.Cache{Dir: *cacheDir}
		eng.Artifacts = sweep.ArtifactStore(*cacheDir)
		eng.Segments = sweep.SegmentStoreFor(*cacheDir)
		eng.Streams = sweep.StreamStoreFor(*cacheDir)
		if *tracePath != "" {
			eng.Trace = obs.NewTracer(0)
		}
		mine := sweep.Shard(cfg, jobs, *shards, *shard)
		_, sum, err := eng.Run(context.Background(), mine)
		phases := eng.Phases()
		summary := struct {
			Manifest string `json:"manifest"`
			Shard    int    `json:"shard"`
			Shards   int    `json:"shards"`
			sweep.Summary
			Phases *sweep.PhaseBreakdown `json:"phases,omitempty"`
		}{Manifest: m.Name, Shard: *shard, Shards: *shards, Summary: sum}
		if *verbose {
			summary.Phases = &phases
			fmt.Fprintf(os.Stderr, "mcdsweep: phases: %s\n", phases)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.Encode(summary)
		if *tracePath != "" {
			if werr := writeTrace(*tracePath, eng.Trace); werr != nil {
				fatal(werr.Error())
			}
		}
		if err != nil {
			fatal(err.Error())
		}

	case "merge":
		if *server != "" {
			writeMergeOutput(*out, mergeRemote(*server, *manifestPath))
			return
		}
		if *cacheDir == "" {
			fatal("merge requires -cache")
		}
		if *oracle {
			// The oracle path: per-job JSON only, materialized in memory
			// — the serialization every other merge surface must match
			// byte for byte.
			b, err := sweep.MergeBytes(cfg, jobs, &sweep.Cache{Dir: *cacheDir})
			if err != nil {
				fatal(err.Error())
			}
			writeMergeOutput(*out, b)
			return
		}
		// Default path: verify completeness up front, then stream rows
		// from the columnar segments (JSON fallback per key) without
		// materializing the result set.
		src := sweep.SourceFor(*cacheDir)
		plan := sweep.NewKeySpace(cfg).Plan(jobs)
		if err := plan.Check(src); err != nil {
			fatal(err.Error())
		}
		if err := streamMerge(*out, plan, src); err != nil {
			fatal(err.Error())
		}

	case "prune":
		if *cacheDir == "" {
			fatal("prune requires -cache")
		}
		results, artifacts, streams, err := sweep.Reachable(cfg, jobs)
		if err != nil {
			fatal(err.Error())
		}
		unreachable, err := sweep.Unreachable(*cacheDir, results, artifacts, streams)
		if err != nil {
			fatal(err.Error())
		}
		var bytes int64
		var streamDoomed int
		var streamDoomedBytes int64
		for _, rel := range unreachable {
			sz := sweep.EntrySize(*cacheDir, rel)
			bytes += sz
			if filepath.Dir(filepath.Dir(rel)) == "streams" {
				streamDoomed++
				streamDoomedBytes += sz
			}
			fmt.Println(rel)
		}
		streamCount, streamBytes, err := sweep.StreamStats(*cacheDir)
		if err != nil {
			fatal(err.Error())
		}
		segs, err := sweep.SegmentStats(*cacheDir, results)
		if err != nil {
			fatal(err.Error())
		}
		var segReclaim int64
		var segDoomed int
		for _, st := range segs {
			segReclaim += st.Reclaimable
			if st.Corrupt || st.Live < st.Rows {
				segDoomed++
			}
			note := ""
			if st.Corrupt {
				note = " corrupt"
			}
			fmt.Fprintf(os.Stderr, "segment %s: rows=%d live=%d bytes=%d reclaimable=%d%s\n",
				st.Rel, st.Rows, st.Live, st.Bytes, st.Reclaimable, note)
		}
		if !*rm {
			fmt.Fprintf(os.Stderr,
				"prune (dry run): %d unreachable entries, %d bytes; %d of %d segments compactable, ~%d bytes reclaimable; streams: %d entries, %d bytes, %d unreachable (%d bytes); %d result keys, %d artifact keys and %d stream keys reachable; rerun with -rm to delete\n",
				len(unreachable), bytes, segDoomed, len(segs), segReclaim, streamCount, streamBytes, streamDoomed, streamDoomedBytes, len(results), len(artifacts), len(streams))
			return
		}
		removed, freed, err := sweep.Prune(*cacheDir, unreachable)
		if err != nil {
			fatal(err.Error())
		}
		segRemoved, segFreed, err := sweep.CompactSegments(*cacheDir, results)
		if err != nil {
			fatal(err.Error())
		}
		fmt.Fprintf(os.Stderr, "prune: removed %d entries, freed %d bytes; compacted %d segments, freed %d bytes\n",
			removed, freed, segRemoved, segFreed)
	}
}

// runRemote is run's client mode: submit the manifest to a daemon, wait
// for the streamed completion, and print a run-style summary line with
// the sweep ID and the server's batch summary (same semantics as a
// local run: executed is zero iff everything was served from cache).
func runRemote(server, manifestPath string, m *sweep.Manifest, verbose bool) {
	body, err := os.ReadFile(manifestPath)
	if err != nil {
		fatal(err.Error())
	}
	c := &serve.Client{BaseURL: server}
	st, err := c.RunManifest(body, nil)
	if err != nil {
		fatal(err.Error())
	}
	var sum sweep.Summary
	if st.Summary != nil {
		sum = *st.Summary
	}
	summary := struct {
		Manifest string `json:"manifest"`
		Server   string `json:"server"`
		SweepID  string `json:"sweep_id"`
		sweep.Summary
		Phases *sweep.PhaseBreakdown `json:"phases,omitempty"`
	}{Manifest: m.Name, Server: server, SweepID: st.ID, Summary: sum}
	if verbose && st.Phases != nil {
		summary.Phases = st.Phases
		fmt.Fprintf(os.Stderr, "mcdsweep: phases: %s\n", *st.Phases)
	}
	json.NewEncoder(os.Stdout).Encode(summary)
	if st.Error != "" {
		fatal(st.Error)
	}
}

// writeTrace dumps a run's spans as NDJSON, terminated by a
// {"done":true,...} accounting line (readers skip it: spans are the
// lines with a phase). Written atomically so an interrupted dump never
// leaves a truncated trace behind.
func writeTrace(path string, tr *obs.Tracer) error {
	var dropped uint64
	err := store.WriteFile(path, func(w io.Writer) error {
		next, d, err := tr.WriteNDJSON(w, 0)
		if err == nil {
			_, err = fmt.Fprintf(w, "{\"done\":true,\"spans\":%d,\"dropped\":%d}\n", next-d, d)
		}
		dropped = d
		return err
	})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "mcdsweep: trace: ring overflowed; oldest %d span(s) dropped (raise the ring with a bigger tracer)\n", dropped)
	}
	return nil
}

// timingReport renders the per-phase timing table from a span NDJSON
// file ("-" for stdin) — the same aggregation mcdreport -only timing
// prints.
func timingReport(w io.Writer, path string) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	spans, err := obs.ReadSpans(r)
	if err != nil {
		return err
	}
	return obs.Aggregate(spans).WriteTable(w)
}

// mergeRemote is merge's client mode: submit the manifest (a completed
// or cached sweep resolves without recomputation), wait, and fetch the
// merged results the daemon serves — byte-identical to a local merge
// over the same cache.
func mergeRemote(server, manifestPath string) []byte {
	body, err := os.ReadFile(manifestPath)
	if err != nil {
		fatal(err.Error())
	}
	c := &serve.Client{BaseURL: server}
	st, err := c.Submit(body)
	if err != nil {
		fatal(err.Error())
	}
	if st.State == serve.StateRunning {
		// Unlike a local merge (which fails fast on missing cache
		// entries), the daemon computes whatever is missing; make the
		// wait — and the reason for it — visible. A sweep that is
		// already done skips the stream entirely: replaying N outcome
		// events just to reach the terminal line would double the
		// transfer for warm merges.
		fmt.Fprintf(os.Stderr, "mcdsweep: merge -server: sweep %s is running (%d/%d jobs done); waiting while the daemon completes it\n",
			st.ID, st.Done, st.Jobs)
		st, err = c.Follow(st.ID, st.Jobs, nil)
		if err != nil {
			fatal(err.Error())
		}
	}
	if st.Error != "" {
		fatal(st.Error)
	}
	b, err := c.Results(st.ID)
	if err != nil {
		fatal(err.Error())
	}
	return b
}

// writeMergeOutput delivers already-materialized merge bytes (remote or
// oracle mode) to stdout or -o.
func writeMergeOutput(out string, b []byte) {
	if out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		fatal(err.Error())
	}
}

// streamMerge writes the streaming merge to stdout or, for -o,
// atomically so a mid-stream failure never leaves a partial output file
// behind.
func streamMerge(out string, plan *sweep.Plan, src sweep.MergeSource) error {
	if out == "" {
		return plan.WriteJSON(os.Stdout, src)
	}
	return store.WriteFile(out, func(w io.Writer) error { return plan.WriteJSON(w, src) })
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mcdsweep enum   -manifest m.json [-shards N -shard I]
  mcdsweep run    -manifest m.json -cache DIR [-shards N -shard I] [-parallel K] [-trace spans.ndjson] [-v]
  mcdsweep run    -manifest m.json -server URL [-v]
  mcdsweep merge  -manifest m.json -cache DIR [-o out.json]
  mcdsweep merge  -manifest m.json -server URL [-o out.json]
  mcdsweep prune  -manifest m.json -cache DIR [-rm]
  mcdsweep timing -trace spans.ndjson`)
	os.Exit(2)
}

// rejectFlags takes (set, name) pairs and fails when a flag the
// subcommand does not use was given.
func rejectFlags(cmd string, pairs ...interface{}) {
	for i := 0; i < len(pairs); i += 2 {
		if pairs[i].(bool) {
			fatal(fmt.Sprintf("%s does not take %s", cmd, pairs[i+1].(string)))
		}
	}
}

// recordingCache resolves the engine's recorded-stream cache bound: the
// -recording-cache flag wins over the manifest's recording_cache field;
// zero keeps the engine's automatic sizing.
func recordingCache(m *sweep.Manifest, flagVal int) int {
	if flagVal > 0 {
		return flagVal
	}
	return m.RecordingCache
}

// fatalValidation renders a manifest validation error as the same
// (code, message, field) triple the daemon returns over HTTP.
func fatalValidation(v *sweep.ValidationError) {
	if v.Field != "" {
		fatal(fmt.Sprintf("%s (code %s, field %q)", v.Message, v.Code, v.Field))
	}
	fatal(fmt.Sprintf("%s (code %s)", v.Message, v.Code))
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "mcdsweep:", msg)
	os.Exit(1)
}
