GO ?= go

.PHONY: check vet fmt-check guard build test race fuzz fuzz-smoke bench bench-gate bench-smoke trace-smoke chaos-smoke server-smoke crash-smoke parallel-smoke seed-smoke fuse-smoke loc

# check is the full pre-commit gate: static analysis, formatting, the
# unified-stepper and one-way-in API guards, build, the whole test suite, the race detector over
# the concurrent search paths, a thread-count parity smoke of the parallel
# beam expansion, an EDP-parity smoke of the analytical seeding layer, a
# fused-vs-unfused smoke of the fusion-aware network scheduler, a telemetry
# smoke test of the trace exporter, a seeded chaos smoke of the resilient
# scheduling path, an end-to-end smoke of the sunstoned scheduler service
# (submit, poll, drain under SIGTERM), and a kill-mid-search crash-recovery
# smoke of the write-ahead journal.
check: vet fmt-check guard build test race parallel-smoke seed-smoke fuse-smoke trace-smoke chaos-smoke server-smoke crash-smoke

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) if any tracked Go file is not
# gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# guard enforces that what was merged stays merged: no code outside the
# unified level sequencer may call bottomUp/topDown, and no non-test file
# outside bench/ may declare one of the deleted solve/schedule wrappers
# (Optimize*, SolveContext, ScheduleNetworkContext/IR), a second retry
# carrier (a struct field named Resilience) next to Options.Retry, a second
# network scheduler (ScheduleNetwork), the schedule file codec
# (Encode/DecodeNetworkSchedule), a second group struct
# (GroupSchedule/NetworkGroupJSON) next to core.GroupResult, a second dense
# capacity table (fitSkeleton/capPlan) next to cost.Session.LevelFits or a
# baseline's uninterruptible Map, a fallback chain or fallback-name resolver
# next to innermost-fit, a per-tool baseline constructor or second catalog in
# the root package, or the deleted Marvel mapper, and none but
# internal/core/compile.go may call analytic.Seed. Study switches stay out of
# the product surface: no ParseDirection, AnalyticalOptions,
# TopDownVisitBudget, Backoff or DoubleBuffered, no root NewServer or
# DefaultRetryPolicy, and core.Study named only in internal/core,
# internal/experiments and cmd/experiments.
guard:
	./scripts/guard-stepper.sh
	./scripts/guard-api.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race exercises the goroutine-heavy paths — the core evaluation fan-out and
# its cancellation/panic-isolation tests, the resilient retry/fallback loop
# and the concurrent same-key compile-failure tests, the fault-injection
# registry, the soak corpus, Timeloop's search threads, network scheduling
# (including the chaos guarantee in short mode), and the shared-Engine
# concurrency test in the root package — under the race detector, then the
# fail-fast classification tests fifty times over (sibling-cancel was a
# flake while the sibling was merely slow). Scoped to
# the packages that spawn goroutines so the instrumented run stays fast, plus
# the tile and unroll enumerators, which pool workers call on shared compiled
# dimension lists and must therefore never write to their inputs.
race:
	$(GO) test -race ./internal/core/ ./internal/cost/ ./internal/faults/ ./internal/server/ ./internal/journal/ ./internal/tile/ ./internal/unroll/ ./internal/baselines/timeloop/ ./internal/baselines/innermost/
	$(GO) test -race -short .
	$(GO) test -race -count=50 -run 'TestLayerCauseClassificationEndToEnd|TestScheduleNetworkIRFailFast' .
	$(GO) test -race -count=50 -run 'TestFusedTopDownFailFast' ./internal/core/

# parallel-smoke pins the determinism contract of intra-search parallelism
# on the tiny preset: the search result must be bit-identical at 1 and 8
# threads, under the race detector, at both GOMAXPROCS=1 and 4 (-cpu), so
# goroutine interleaving differences cannot change a mapping.
parallel-smoke:
	$(GO) test -race -run 'TestParallelParity/tiny' -cpu 1,4 -count 1 ./internal/core/

# seed-smoke pins the analytical layer's safety contract on small presets:
# with seeding + bound pruning on (the default) the search must land on an
# equal-or-better EDP than the disabled search while evaluating at least 30%
# fewer candidates, and the disabled path must stay bit-identical run to run.
seed-smoke:
	$(GO) test -run 'TestAnalyticalSeedEDPParity|TestAnalyticalOnEqualOrBetter|TestAnalyticalOffDeterministic' -count 1 ./internal/core/

# fuse-smoke pins the network scheduler's acceptance contract: the fused
# schedule never scores worse EDP than the per-layer baseline solved in the
# same run, the chosen groups tile the chain, and the max-group-1 cut is
# bit-identical to one direct Engine.Solve per layer — plus the
# strict-improvement case on the transformer chain in internal/core.
fuse-smoke:
	$(GO) test -run 'TestFuseSmoke' -count 1 .
	$(GO) test -run 'TestFusedBeatsUnfused|TestFusedMaxGroupOneIsUnfused' -count 1 ./internal/core/

# bench is a first look at the repository's benchmark (bench/, declared in
# BENCHMARK.json): every workload at 1/10 scale, two runs each. A measurement
# is the full pass and a comparison of two of them — see bench/README.md.
bench:
	$(GO) run ./bench -quick

# bench-gate is the regression gate: alternating parent/change pairs of every
# workload against BASE (a git ref), judged by the rule in bench/README.md;
# fails on any `worse` verdict or failed operation. Ten pairs of four
# workloads are about half an hour; PAIRS and WORKLOADS narrow it. Advisory in
# CI, where shared runners are noisy.
PAIRS ?= 10
bench-gate:
	@test -n "$(BASE)" || { echo "usage: make bench-gate BASE=<git ref> [PAIRS=10] [WORKLOADS='service-mix ...']"; exit 2; }
	./scripts/bench-pairs.sh $(BASE) $(PAIRS) $(WORKLOADS)

# bench-smoke compiles and runs every benchmark for a single iteration — a
# fast regression guard that the harness itself still works.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x .

# trace-smoke runs a small conv search with -trace and checks the exported
# file is well-formed Chrome trace-event JSON (loadable in chrome://tracing /
# Perfetto): a traceEvents array with at least the optimize, per-level,
# evaluate and polish spans.
trace-smoke:
	$(GO) run ./cmd/sunstone -workload conv -dims N=1,K=16,C=16,P=14,Q=14,R=3,S=3 \
		-arch conventional -trace /tmp/sunstone-trace-smoke.json > /dev/null
	$(GO) run ./cmd/tracecheck /tmp/sunstone-trace-smoke.json \
		optimize level orderings enumerate evaluate polish

# fuzz runs each fuzz target briefly (parser, JSON decoders, and the
# write-ahead journal's segment replay).
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/tensor/
	$(GO) test -fuzz=FuzzDecodeWorkload -fuzztime=10s ./internal/serde/
	$(GO) test -fuzz=FuzzDecodeArch -fuzztime=10s ./internal/serde/
	$(GO) test -fuzz=FuzzDecodeMapping -fuzztime=10s ./internal/serde/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/journal/

# fuzz-smoke runs the serde and journal fuzz targets for a handful of
# seconds each — a CI-speed guard that the corpora still pass and the
# harness still builds.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeArch -fuzztime=3s ./internal/serde/
	$(GO) test -fuzz=FuzzDecodeMapping -fuzztime=3s ./internal/serde/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=3s ./internal/journal/

# chaos-smoke runs the seeded chaos guarantee (30% uniform fault injection
# over resilient network schedules; reduced run count via -short) plus the
# determinism-by-seed check — the graceful-degradation acceptance property.
chaos-smoke:
	$(GO) test -short -run 'TestChaos' -count 1 .

# server-smoke builds the real sunstoned binary, runs it on an ephemeral
# port, submits a job and polls it to completion, then SIGTERMs the daemon
# with a long-budget job mid-search and asserts the drained job's SSE
# terminal event carries a best-so-far mapping and the process exits 0.
server-smoke:
	$(GO) test -run 'TestServerSmoke' -count 1 ./cmd/sunstoned/

# crash-smoke is the durability acceptance gate against the real binary:
# run sunstoned with -data-dir, submit a long job, SIGKILL the process
# after a best-so-far checkpoint reaches the journal, restart it on the
# same directory, and assert the job is re-admitted, finishes done with an
# audit-passing mapping no worse than its checkpoint, and survives a third
# restart as a stable terminal record.
crash-smoke:
	$(GO) test -run 'TestCrashRecoverySmoke' -count 1 ./cmd/sunstoned/

# loc prints the tracked Go line counts (wc -l) per package directory —
# non-test files, _test.go files, and everything under bench/ — with a total
# row: the measure a simplicity change quotes before and after.
loc:
	@git ls-files '*.go' | xargs wc -l | awk '$$2 != "total" { \
		d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; \
		k = d ~ /^bench(\/|$$)/ ? 3 : $$2 ~ /_test\.go$$/ ? 2 : 1; \
		n[d, k] += $$1; seen[d] = 1 } \
		END { for (d in seen) printf "%-36s %7d %7d %7d\n", d, n[d, 1], n[d, 2], n[d, 3] }' | sort | \
	awk 'BEGIN { printf "%-36s %7s %7s %7s\n", "package", "code", "test", "bench" } \
		{ print; c += $$2; t += $$3; b += $$4 } \
		END { printf "%-36s %7d %7d %7d\n", "total", c, t, b }'
