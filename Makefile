GO ?= go

.PHONY: build test race vet fmt-check bench bench-compare cache-check daemon-check search-check replay-check serve-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file needs gofmt.
fmt-check:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi

# bench runs the benchmark suite (3 fixed iterations, matching how
# the baselines were measured) and writes the parsed domain metrics —
# including the eval-latency histogram quantiles and batched-replay
# counters reported by BenchmarkInstrumentedExploration, and the
# heuristic-search coverage metrics of BenchmarkSearchGA/SA — plus the
# speedup over the PR 4 report to BENCH_PR10.json.
bench:
	$(GO) test -bench=. -benchmem -benchtime 3x -run '^$$' . | tee bench.out
	$(GO) run ./cmd/benchjson -baseline BENCH_PR4.json -out BENCH_PR10.json < bench.out
	@rm -f bench.out

# bench-compare diffs two benchjson reports (override OLD/NEW to pick
# others) and fails when any benchmark's ns/op or B/op regressed by
# more than 10% — the perf gate for CI. It also tabulates the
# heuristic-search metrics.
OLD ?= BENCH_PR9.json
NEW ?= BENCH_PR10.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(OLD) $(NEW)

# cache-check runs the persistent behavior-trace cache suite under the
# race detector: the btcache codec/fault-injection/concurrency tests,
# the engine disk-cache layering tests, and the end-to-end Explorer
# warm-start test.
cache-check:
	$(GO) test -race ./internal/btcache/
	$(GO) test -race -run 'TestDisk|TestBehaviorFingerprint' ./internal/engine/
	$(GO) test -race -run 'TestExplorerWarmStart' .

# daemon-check runs the service-layer suite under the race detector:
# the memorexd end-to-end tests (dedup, admission control, cancel,
# drain, per-job event routing), the event-router unit tests, and the
# ExploreRequest / Explorer.Do / Close contract tests.
daemon-check:
	$(GO) test -race ./cmd/memorexd/
	$(GO) test -race -run 'TestRouter|TestObserver' ./internal/obs/
	$(GO) test -race -run 'TestExploreRequest|TestExplorerDoRequest|TestExplorerCloseIdempotent' .

# search-check runs the heuristic-search suite: the coverage quality
# gate (GA and SA must recover ≥90% of the Full ground-truth front at
# ≤25% of its simulations), the seeded-determinism and budget tests
# under the race detector, the shared APEX sweep the search space is
# built from (worker-count invariance, first-error and cancellation
# contract, BRG reuse only on APEX's own trace, the content-keyed
# single-flight mem-only memo), the profiler APEX reads (dense tables
# against the map reference, fuzz seed corpus included), the request
# fuzz seed corpus, the heuristic request-path contract tests, and a
# repeated Explorer request running no mem-only simulation.
search-check:
	$(GO) test -run 'TestSearchCoverageQualityGate' ./internal/explore/
	$(GO) test -race -run 'TestSearchSeededDeterminism|TestSearchDifferentSeedsDiffer|TestSearchBudgetRespected|TestSearchInvalidConfig|TestParseStrategy|TestBuildSpaceBRGsMatchBuildBRG|TestSpaceOtherTraceRecomputesBRGs' ./internal/explore/
	$(GO) test -race -run 'TestExploreWorkerCountInvariant|TestConfigEngineIsExecutionHandle' ./internal/apex/
	$(GO) test -race -run 'TestRunMemOnly' ./internal/engine/
	$(GO) test -race -run 'TestAnalyzeMatchesReference|FuzzAnalyze' ./internal/profile/
	$(GO) test -race -run 'FuzzExploreRequestJSON|TestExplorerDoHeuristicStrategy|TestExplorerMemOnlyMemo' .
	$(GO) test -race -run 'TestDaemonHeuristicJob' ./cmd/memorexd/

# replay-check holds the fast timing paths to their oracles: the
# batched replayer against the reference replay and the one-phase
# simulator (the differential tests plus their seed corpus), and the
# reservation-table scheduler against its frozen reference. Each fuzz
# target then runs for 10 seconds.
replay-check:
	$(GO) test -race -run 'TestReplayBatch|TestReplayExactOnFullTrace|FuzzReplayBatchMatchesSimulator' ./internal/sim/
	$(GO) test -race -run 'TestScheduler|FuzzSchedulerMatchesReference' ./internal/rtable/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayBatchMatchesSimulator$$' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzSchedulerMatchesReference$$' -fuzztime 10s ./internal/rtable/

# serve-smoke boots a real memorexd process, submits a tiny job through
# memorexctl, asserts a completed report comes back, and checks the
# daemon drains cleanly on SIGTERM.
serve-smoke:
	sh scripts/serve-smoke.sh

# check is the gate a change must pass before review: formatting is
# clean, vet finds nothing, the trace-cache, daemon, heuristic-search
# and replay suites hold, and every test of this module passes under
# the race detector. Only replay-check fuzzes (10 s per target);
# the other fuzz targets run their seed corpus only, benchmarks do not
# run, and perfbench/ is a module of its own that this gate does not
# test.
check: fmt-check vet cache-check daemon-check search-check replay-check
	$(GO) test -race ./...
