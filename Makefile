# Local targets mirror .github/workflows/ci.yml: `make ci` runs the
# same core steps in the same order as the workflow's checks job
# (staticcheck runs only when the binary is installed; CI installs it).

GO ?= go

.PHONY: all build fmt-check vet staticcheck test race fuzz bench-smoke bench-selftest perf perf-gate ci clean

all: build

build:
	$(GO) build ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

staticcheck:
	@if command -v staticcheck >/dev/null; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

# The experiments package simulates real report subsets; under -race on
# a small machine that can exceed go test's default 10-minute
# per-package timeout, so raise it (CI's multi-core runners finish well
# inside it either way).
race:
	$(GO) test -race -timeout 1800s ./...

# Run each native fuzz target for 10s beyond its checked-in seed corpus
# (testdata/fuzz/<target>). go test -fuzz takes one target per
# invocation, so the targets run one after another.
FUZZ_TARGETS = ./internal/isa:FuzzProgramCount ./internal/isa:FuzzDecodePacked \
	./internal/core:FuzzDecodeProfile ./internal/sweep:FuzzParseManifest \
	./internal/sweep:FuzzStoreEntry ./internal/sweep:FuzzDecodeSegmentRows \
	./internal/serve/wire:FuzzDecodeStrict ./internal/serve:FuzzFollowLine

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t#*:}; \
		echo "fuzz $$name ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s $$pkg || exit 1; \
	done

# Short benchmark smoke run: one iteration of a headline figure on the
# small 5-benchmark subset plus the simulator throughput microbenchmark.
# Set MCD_SWEEP_CACHE to a directory to serve warm jobs from the sweep
# result cache (CI does).
bench-smoke:
	$(GO) test -run '^$$' -bench '^(BenchmarkFigure4|BenchmarkSimulatorThroughput)$$' -benchtime 1x .

# The repository benchmark (mcdbench/) is a module of its own, so the
# root ./... patterns never build or test it: vet it and run its
# self-tests, which exercise the engine through the traced
# decomposition the benchmark reports.
bench-selftest:
	cd mcdbench && $(GO) vet ./... && $(GO) test ./...

# Run every perf scenario and write a machine-readable report (see
# DESIGN.md section 7). cmd/mcdperf builds with the committed PGO
# profile automatically.
perf:
	$(GO) run ./cmd/mcdperf -out BENCH_local.json
	@echo "wrote BENCH_local.json"

# The scenarios the perf gate measures, in the order the baseline's
# allocation figures were recorded in (DESIGN.md section 7).
PERF_GATE_SCENARIOS = bench-smoke,batch-throughput,merge-throughput,results-streaming,train-parallel,stream-cache-cold,trace-overhead,serve-throughput
# The gate report's label and output file (none by default); CI sets
# both and uploads the report.
PERF_LABEL ?=
PERF_OUT ?=

# The perf gate, as CI runs it: measure the gated scenarios and fail on
# a >15% rise in allocations per instruction against the committed
# baseline. Allocations are hardware-independent; wall-clock ratios are
# reported but not gated.
perf-gate:
	$(GO) run ./cmd/mcdperf -scenarios $(PERF_GATE_SCENARIOS) \
		-compare perf/baseline.json -threshold 0.15 -allocs-only \
		-label "$(PERF_LABEL)" -out "$(PERF_OUT)"

ci: fmt-check vet staticcheck build bench-selftest fuzz race bench-smoke

clean:
	$(GO) clean ./...
