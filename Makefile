# Convenience targets for the tracescope repository.

GO ?= go

.PHONY: all build vet lint metrics-doc \
	metrics-doc-update doc-names experiments-doc test test-short test-race test-allocs \
	bench bench-smoke \
	daemon-smoke diff-smoke vet-gate examples experiments experiments-md report fuzz clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism-and-invariant static analysis (internal/lint). Every
# package directory is type-checked with its in-package tests (stdlib
# go/types, the standard library from export data). Six analyzers,
# each of which alone catches a planted bug the tests miss: mapiter,
# walltime, unstablesort, spanend, errdrop and obsreg (metric-name
# registry: format, _total discipline, kind conflicts). Concurrency is
# not tracelint's job: `make vet` catches copied locks and
# `make test-race` the rest. CI gates on this; findings exit non-zero.
# Silence a deliberate site with:  //lint:ignore <analyzer> <reason>
# (naming an analyzer that does not exist is itself a finding).
lint:
	$(GO) run ./cmd/tracelint ./...

# Metric-registry doc gate (CI gates on this): regenerate the registry
# the obsreg analyzer harvests from every obs.Recorder call site and
# fail if the committed METRICS.md has drifted from the code.
metrics-doc:
	$(GO) run ./cmd/tracelint -metricsdoc /tmp/METRICS.md.gen ./internal/...
	cmp METRICS.md /tmp/METRICS.md.gen || \
		{ echo "METRICS.md is stale; run 'make metrics-doc-update' and commit the diff" >&2; exit 1; }
	rm -f /tmp/METRICS.md.gen

# Refresh the committed METRICS.md after adding or renaming a metric.
metrics-doc-update:
	$(GO) run ./cmd/tracelint -metricsdoc METRICS.md ./internal/...

# Evaluation doc gate (CI gates on this): regenerate EXPERIMENTS.md the
# way experiments-md does and fail if the committed copy differs — the
# evaluation is deterministic, so any change to it is a change to the
# analysis and must be committed with it.
experiments-doc:
	$(GO) run ./cmd/experiments -md -streams 48 -episodes 14 > /tmp/EXPERIMENTS.md.gen
	cmp EXPERIMENTS.md /tmp/EXPERIMENTS.md.gen || \
		{ echo "EXPERIMENTS.md is stale; run 'make experiments-md' and commit the diff" >&2; exit 1; }
	rm -f /tmp/EXPERIMENTS.md.gen

# Doc-identifier gate (CI gates on this): every backticked `pkg.Name`
# and `Type.Name` in DESIGN.md and README.md that points into this
# module must still name a non-test declaration.
doc-names:
	./scripts/doc_names.sh

# Example gate (CI gates on this): run every examples/*/ program to the
# end. A facade name stays because an example uses it, so compiling the
# examples is not enough; each must also exit zero.
examples:
	for d in examples/*/; do \
		$(GO) run ./$$d > /dev/null || { echo "examples: $$d exited non-zero" >&2; exit 1; }; \
	done

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-enabled run: the analysis engine parallelises by default, so this
# is the gate CI enforces — at each processor count, because a lifetime
# bug that hides at GOMAXPROCS=1 can panic at 2. -count=1 because
# GOMAXPROCS is not part of the test cache key: without it every count
# after the first is served from the cache. Which worker folds which
# stream is the scheduler's choice, so the tests that compare a parallel
# fold with the sequential one — and the diff's all-instances forest,
# merged across workers and across classes, with a sequential aggregate —
# then run ten more times a count: ten draws of the assignment, not one.
# The engine's stop-on-error bound is a scheduling race too: 200 draws.
test-race:
	for p in 1 2 4 8; do \
		GOMAXPROCS=$$p $(GO) test -race -count=1 ./... || exit 1; \
		GOMAXPROCS=$$p $(GO) test -race -count=10 -run 'TestFoldAnyAssignment|TestParallel.*Equivalence|TestNineCallsMatchIncremental|TestDiffForestEqualsSequentialAggregate' ./internal/core || exit 1; \
		GOMAXPROCS=$$p $(GO) test -race -count=200 -run TestFoldErrorStopsTheRest ./internal/engine || exit 1; \
	done

# Allocation budgets (CI gates on this, at GOMAXPROCS=1 and without the
# race detector, which inflates allocations): bytes allocated by one
# fold pass, by one warm daemon ingest, by one causality sweep that
# mines and by one answered from the memo, by the daemon's 40-GET
# query rotation answered from the memo, and by one warm POST /ingest.
test-allocs:
	$(GO) test -count=1 -run 'TestFoldPassAllocBudget|TestIngestSteadyStateAllocs|TestCausalityQueryAllocBudget|TestCausalityMemoHitAllocBudget' -v ./internal/core
	$(GO) test -count=1 -run 'TestServerQueryHitAllocBudget|TestIngestUploadAllocBudget' -v ./internal/ingest

bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmark smoke (CI gates on this): run the repo benchmark's own
# command (BENCHMARK.json) for one second on each of its workloads, so
# the command cannot rot. A run's last line is one JSON object; the
# correctness oracle must hold and no operation may fail. Two traced
# runs follow: a traced run's staged replay is the only caller that
# drives waitgraph.NewBuilder/Instance, Partial.AddGraph and
# Aggregator.Add directly and compares its report hash (batch_resident)
# or the daemon's answers (ingest_grow) with the facade's, so a drift in
# the analysis kernel's signatures or behaviour fails here. Numbers for
# claims come from full runs — see bench/README.md.
bench-smoke:
	for run in "batch_cold" "batch_resident" "ingest_grow" "daemon_mixed" \
			"batch_resident -trace 1" "ingest_grow -trace 1"; do \
		bash bench/run.sh -workload $$run -seconds 1 -seed 1 | tail -n 1 | \
			grep '"correct":true' | grep -q '"failed":0,' || \
			{ echo "bench-smoke: $$run: last line lacks \"correct\":true and \"failed\":0" >&2; exit 1; }; \
	done

# End-to-end daemon smoke (CI gates on this): start tracescoped on a
# temp corpus, feed it with the tracegen feeder in two arrival orders
# plus a warm-up restart, and byte-compare every query response —
# /metrics included (the default registry is clockless).
daemon-smoke:
	./scripts/daemon_smoke.sh

# Corpus-diff smoke (CI gates on this): two same-seed fleets differing
# by one injected slow-hardware fault, diffed with traceanalyze -diff.
# The fault must be the top-ranked wait-chain regression, and the JSON
# report byte-identical across worker counts, across runs, and between
# the CLI and the tracescoped GET /diff endpoint.
diff-smoke:
	./scripts/diff_smoke.sh

# Corpus-verifier gate (CI gates on this): a tracegen fleet must vet
# clean (structural + semantic rules), and a battery of deterministic
# bit-flip / torn-tail mutants must each be caught by the expected rule
# with a worker-count-stable report. Leaves tracevet.sarif behind as
# the machine-readable record of the clean run.
vet-gate:
	./scripts/vet_gate.sh

# Regenerate the paper's evaluation on a fresh corpus.
experiments:
	$(GO) run ./cmd/experiments

# Regenerate EXPERIMENTS.md from a fresh run.
experiments-md:
	$(GO) run ./cmd/experiments -md -streams 48 -episodes 14 > EXPERIMENTS.md

# Self-contained HTML report.
report:
	$(GO) run ./cmd/experiments -html report.html

# Short fuzzing pass over the decoders, index parser, matcher, the
# lint suite's directive parser and package loader, the verifier, AWG
# aggregation and mining against their references, and the daemon's
# JSON appender against encoding/json.
fuzz:
	$(GO) test ./internal/trace/ -fuzz FuzzReadBinary -fuzztime 30s
	$(GO) test ./internal/trace/ -fuzz FuzzParseIndex -fuzztime 30s
	$(GO) test ./internal/trace/ -fuzz FuzzReloadSplit -fuzztime 30s
	$(GO) test ./internal/trace/ -fuzz FuzzReadV4Index -fuzztime 30s
	$(GO) test ./internal/trace/colfmt/ -fuzz FuzzColBlockDecode -fuzztime 30s
	$(GO) test ./internal/trace/ -fuzz FuzzWildcardMatch -fuzztime 15s
	$(GO) test ./internal/lint/ -fuzz FuzzDirectiveText -fuzztime 15s
	$(GO) test ./internal/lint/ -fuzz FuzzSplitQuoted -fuzztime 15s
	$(GO) test ./internal/lint/ -fuzz FuzzLoadDir -fuzztime 30s
	$(GO) test ./internal/tracevet/ -fuzz FuzzVetStream -fuzztime 30s
	$(GO) test ./internal/tracevet/ -fuzz FuzzVetCorpus -fuzztime 15s
	$(GO) test ./internal/awg/ -fuzz FuzzAggregatorMatchesReference -fuzztime 15s
	$(GO) test ./internal/mining/ -fuzz FuzzMiningMatchesReference -fuzztime 15s
	$(GO) test ./internal/ingest/ -fuzz FuzzJSONMatchesEncodingJSON -fuzztime 15s

clean:
	rm -f report.html test_output.txt bench_output.txt *.dot tracevet.sarif
	rm -rf .bench_build
