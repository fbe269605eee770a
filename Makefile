GO ?= go

.PHONY: build test race vet lint lint-stats fuzz-smoke bench-smoke bench-compare bench-record chaos-smoke run-regression-seeds cover profile bench-module check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# go vet, then gofmt: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# Static analysis: the repo's invariant-enforcing rule suite
# (cmd/reprolint -list names the rules), including the interprocedural
# reachability rules and the serving-path concurrency rules. Exits
# nonzero on any finding, so a determinism or telemetry-inertness
# violation fails the build instead of waiting for a regression test to
# sample it. -stats prints per-rule wall time to stderr.
lint:
	$(GO) run ./cmd/reprolint -stats ./...

# Per-rule wall time and finding counts as JSON on stdout (the shape of
# the CI timing artifact), findings on stderr; exits nonzero on any
# finding like lint.
lint-stats:
	$(GO) run ./cmd/reprolint -stats-json ./...

# A short fuzz pass over the external input surfaces: the shared CLI
# flag parser, the run-manifest validator, the linter's suppression
# directive parser, and the /sweep grid parser (where client-controlled
# floats meet index arithmetic); plus Scratch reuse and the simulator's
# Stats conservation laws over synthetic traces and point sets, the
# optimized core against the seed's reference core (traces of a few
# thousand instructions, so the slow reference fits the budget), the
# point cache key (equal options hash identically, which the result
# cache and the durable store both depend on), and the trace stream's
# narrow columns (every accepted instruction decodes back exactly). 10s
# per target keeps it CI-sized; drop -fuzztime for a real hunt.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSimFlags -fuzztime 10s ./internal/cliflags
	$(GO) test -run '^$$' -fuzz FuzzManifestCheck -fuzztime 10s ./cmd/manifestcheck
	$(GO) test -run '^$$' -fuzz FuzzAllowDirective -fuzztime 10s ./internal/analysis
	$(GO) test -run '^$$' -fuzz FuzzSweepRequest -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzScratchReuse -fuzztime 10s ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzReference -fuzztime 10s ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzCacheKey -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzTraceColumns -fuzztime 10s ./internal/trace

# A fast pass over the benchmark harness: one iteration each, so every
# experiment driver executes end to end without the full -bench cost.
# The run emits a manifest (environment, wall time, telemetry) next to
# the numbers, so recorded perf-trajectory runs are self-describing.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . -args -manifest bench-smoke-manifest.json
	$(GO) run ./cmd/manifestcheck bench-smoke-manifest.json

# Perf-regression gate: rerun the root suite and diff it against the
# recorded baseline. Two iterations per benchmark (vs bench-smoke's one)
# smooth the worst single-iteration jitter on shared runners while
# keeping the gate CI-sized; the threshold stays generous for the same
# reason. The two sub-millisecond benchmarks, Figure1ClockHistory and
# Table3AccessLatencies (table and figure drivers that run no
# simulation), are timed for 3s instead, since two iterations of a
# microsecond benchmark time the timer and a cold cache, not the code;
# a new benchmark that runs in microseconds belongs in that list. CI
# fails on a regression beyond BENCH_THRESHOLD — tighten it for a real
# measurement run, and re-record the baseline after any intentional
# perf change (see EXPERIMENTS.md for the capture workflow).
BENCH_THRESHOLD ?= 50
BENCH_TIME ?= 2x

bench-compare:
	$(GO) test -run '^$$' -bench . -skip '^Benchmark(Figure1ClockHistory|Table3AccessLatencies)$$' -benchtime $(BENCH_TIME) . > /tmp/bench_current.txt
	$(GO) test -run '^$$' -bench '^Benchmark(Figure1ClockHistory|Table3AccessLatencies)$$' -benchtime 3s . >> /tmp/bench_current.txt
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_THRESHOLD) BENCH_baseline.json /tmp/bench_current.txt

# Re-record the perf baseline from a fresh run at the same timings the
# gate uses. Run this after an intentional perf change, on a quiet
# machine, and commit the resulting BENCH_baseline.json.
bench-record:
	$(GO) test -run '^$$' -bench . -skip '^Benchmark(Figure1ClockHistory|Table3AccessLatencies)$$' -benchtime $(BENCH_TIME) . > /tmp/bench_record.txt
	$(GO) test -run '^$$' -bench '^Benchmark(Figure1ClockHistory|Table3AccessLatencies)$$' -benchtime 3s . >> /tmp/bench_record.txt
	$(GO) run ./cmd/benchdiff -record BENCH_baseline.json /tmp/bench_record.txt

# Chaos smoke: two bounded runs of the seeded fault-injection harness
# (internal/chaos) against the real sweepd binary — one pinned seed so
# every CI run replays a known mix, one rotating seed (default: today's
# date) so the fleet keeps exploring new action sequences. A failure
# prints the seed and the exact replay command; daemon logs and action
# traces land in CHAOS_LOGDIR for CI to upload. Override CHAOS_SEED to
# replay a specific failure.
CHAOS_ACTIONS ?= 40
CHAOS_SEED ?= $(shell date +%Y%m%d)
CHAOS_LOGDIR ?= /tmp/chaos-logs

chaos-smoke:
	$(GO) test ./internal/chaos -run 'TestChaos$$' -chaos.actions=$(CHAOS_ACTIONS) -chaos.seed=42 -chaos.logdir=$(CHAOS_LOGDIR)
	$(GO) test ./internal/chaos -run 'TestChaos$$' -chaos.actions=$(CHAOS_ACTIONS) -chaos.seed=$(CHAOS_SEED) -chaos.logdir=$(CHAOS_LOGDIR)

# Replay every seed that ever exposed a serving-path bug
# (internal/chaos/regression_seeds.json). Deterministic per seed: a pass
# means the exact action sequences that once found bugs still pass.
run-regression-seeds:
	$(GO) test ./internal/chaos -run TestRegressionSeeds -chaos.logdir=$(CHAOS_LOGDIR) -v

# Coverage with a ratchet floor: the gate trips when total statement
# coverage falls below COVER_MIN (set just under the current baseline;
# raise it as coverage grows, never lower it). CI runs this as a soft
# signal; treat a trip as "add tests with your change".
COVER_MIN ?= 80.0

cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); \
		if ($$3 + 0 < $(COVER_MIN)) { printf "coverage %.1f%% is below the %.1f%% floor\n", $$3, $(COVER_MIN); exit 1 } \
		else { printf "coverage %.1f%% (floor %.1f%%)\n", $$3, $(COVER_MIN) } }'

# CPU + heap profiles (and a manifest) for the depth sweep; inspect with
#   $(GO) tool pprof -top cpu.pprof
profile:
	$(GO) run ./cmd/pipesweep -fig 5 -n 20000 \
		-cpuprofile cpu.pprof -memprofile mem.pprof -manifest profile-manifest.json > /dev/null
	@echo "wrote cpu.pprof, mem.pprof, profile-manifest.json"
	@echo "inspect with: $(GO) tool pprof -top cpu.pprof"

# The benchmark program is its own module (benchmark/go.mod), so the
# root build, tests and lint skip it. It imports internal APIs (obs,
# serve, promtext), so vet, test and lint it on its own: a change to
# those packages that breaks the benchmark fails here, not at the next
# benchmark run.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./... && $(GO) run repro/cmd/reprolint ./...

# The documented pre-push command.
check: build vet test race lint bench-module
