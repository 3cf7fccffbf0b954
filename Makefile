GO ?= go
PARENT ?= HEAD~1
RUNS ?= 0

.PHONY: all check build bench-build test test-levels vet race faults conservation cache-stress replay-diff fleet-diff obs-lint alerts-smoke calib-gate bench bench-smoke bench-diffusion bench-diffusion-smoke bench-kernels bench-pair deps-lint calib whatif experiments fuzz clean

all: check

# The default gate: build, vet, full test suite, the race detector over
# the concurrent packages, the fault-injection suite, the virtual-time
# conservation property over random fault schedules, the tiered-store
# stress drill, the sim-vs-real differential replay (decisions, timings,
# AND byte-identical telemetry), the fleet differential replay, the
# observability lint/golden gate, the alerting/flight-recorder drill, the
# calibration accuracy gate, and one-iteration benchmark smoke passes so the
# benchmarks themselves can't rot. bench-build and test-levels cover what
# the plain build and test do not: the nested benchmark module and the
# kernel levels below the host's own. deps-lint keeps every internal
# package reachable from a binary.
check: build bench-build vet deps-lint test test-levels race faults conservation cache-stress replay-diff fleet-diff obs-lint alerts-smoke calib-gate bench-smoke bench-diffusion-smoke

build:
	$(GO) build ./...

# benchmark/ is a module of its own, outside `go build ./...` and `go test
# ./...`: without this a signature change that breaks benchmark/layers.go,
# or a serving change that breaks the harness's served-PNG byte-compare or
# a metric name it scrapes, stays invisible until the benchmark driver
# runs. Its tests drive all four workloads through serve.Server (~16 s).
# -o /dev/null keeps the binary out of the tree.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) build -o /dev/null ./... && $(GO) test ./...

# gofmt -l lists every file whose formatting gofmt would change; any output
# fails the target (the nested benchmark module included).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files --cached --others --exclude-standard '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# Every internal package has a caller that is not a test or an example: it
# is in the import graph of some cmd/ binary (ROADMAP item 7).
deps-lint:
	@deps=$$($(GO) list -deps ./cmd/...) || exit 1; \
	pkgs=$$($(GO) list ./internal/...) || exit 1; \
	orphans=$$(echo "$$pkgs" | grep -vxF "$$deps"); \
	if [ -n "$$orphans" ]; then echo "deps-lint: no binary imports:"; echo "$$orphans"; exit 1; fi

# Includes the step path's two guards: TestOneRunLoopLint (no package
# outside internal/diffusion steps a batch session by session) and
# TestPropertyStackedEqualsSequential (a stacked batch step has the bits
# of its members stepped alone), which test-levels runs again at every
# kernel level.
test:
	$(GO) test ./...

# The numeric packages at every kernel level this host has (DESIGN §7):
# portable and avx2 under the FLASHPS_KERNELS cap, then the host's own when
# it is above those — the property tests (stacked ≡ sequential, derived ≡
# computed), the zero-alloc pins and the whole-edit bits included. Each pass
# names the level it ran at and the last line lists them, so a runner that
# never executed ZMM code shows in the log. -count=1: the level is resolved
# at package initialisation, which the test cache does not see, so a cached
# run at one level would answer for another.
test-levels:
	@covered=""; for cap in portable avx2 ""; do \
		l=$$(FLASHPS_KERNELS=$$cap $(GO) test -count=1 -v -run TestKernelLevelNamesTheLevel ./internal/tensor/ | sed -n 's/.*kernel level \([a-z0-9]*\) .*/\1/p'); \
		[ -n "$$l" ] || { echo "test-levels: no kernel level reported under FLASHPS_KERNELS=$$cap"; exit 1; }; \
		case " $$covered " in *" $$l "*) continue ;; esac; \
		echo "== numeric suites at kernel level $$l (FLASHPS_KERNELS=$${cap:-unset})"; \
		FLASHPS_KERNELS=$$cap $(GO) test -count=1 ./internal/tensor/... ./internal/model/... ./internal/diffusion/... || exit 1; \
		covered="$$covered $$l"; \
	done; echo "kernel levels covered on this host:$$covered"

# internal/replay's TestCalibrationGate runs here too, without its
# wall-clock budget (calib-gate asserts that, without the detector).
race:
	$(GO) test -race ./internal/serve/... ./internal/obs/... ./internal/cluster/... ./internal/cache/... ./internal/batching/... ./internal/replay/...

# Fault drills under the race detector: worker crash + retry, cache-load
# degradation, deadline eviction, cancellation storms, load shedding.
faults:
	$(GO) test -race -count=1 ./internal/faults/... ./internal/serve/ -run 'TestWorkerCrash|TestHealthDegraded|TestCacheLoad|TestDeadlineExceeded|TestCancelConcurrent|TestShedLargest|TestFaultCounters|Test.*Injector|TestFail|TestAfter|TestProb|TestDelay|TestParse'

# The conservation property in virtual time: random traces × random fault
# schedules (worker crash, step delay, cancel, deadline) × every discipline
# and router on the simulator's executor; every submitted request reaches
# exactly one terminal state and the decision log replays to it. A failure
# prints its seed.
conservation:
	$(GO) test -count=1 ./internal/cluster/ -run TestConservationUnderFaults

# Tiered template-store drills under the race detector: concurrent put/
# get/observe/pin/delete/evict/spill traffic asserting the RAM budget
# invariant throughout; the derived-K/V budget property (random sequences,
# with and without a spill tier: templates + derived bytes within budget,
# derived K/V beside a Y stripped before any demotion, conversions to the
# derived form exactly when the rule says, overlapping first edits derive
# once); the derived form's second spill object through re-put, delete
# (racing its write-back), pins, storage recycled under running edits, the
# share of promotions that recycle it (at most 1% of slab gets allocate), a
# form that does not read (counted, removed, written again), and a restart
# that recovers both forms, or the Y beside a version-3 form.
cache-stress:
	$(GO) test -race -count=1 ./internal/cache/ -run 'TestCacheStress|TestDerived|TestTieredStoreRestartRecovery'

# The unification proof under the race detector: the discrete-event
# simulator and the real-engine driver must emit identical decision
# sequences AND byte-identical telemetry (Prometheus exposition, SLO
# attainment, causal traces, flight snapshots) from the shared batching
# core for the same trace.
# The prefix also matches TestDifferentialReplayColdCache.
replay-diff:
	$(GO) test -race -count=1 ./internal/replay/ -run TestDifferentialReplay

# The fleet half of the unification proof: admission decisions, routing
# choices, scale events, and telemetry must be byte-identical between the
# virtual-time fleet driver and the real-engine fleet driver.
fleet-diff:
	$(GO) test -race -count=1 ./internal/replay/ -run TestDifferentialReplayFleet

# Observability hygiene under the race detector: every registered metric
# matches the naming rule and is documented, the Prometheus exposition
# matches its golden file, the Chrome trace export passes its schema
# checks, and the plane's hot-path methods stay within their allocation
# limits.
obs-lint:
	$(GO) test -race -count=1 ./internal/obs/ -run 'TestMetricNamingLint|TestPlaneExpositionGolden|TestChromeTraceSchema|TestPlaneHotPathAllocs'

# End-to-end alerting drill under the race detector: an injected fault
# pushes a burst of interactive requests past their deadline, the
# burn-rate evaluator must page, and the paging transition must write a
# flightrecorder.json whose span trees render with flashps-trace -explain.
alerts-smoke:
	$(GO) test -race -count=1 ./internal/serve/ -run TestAlertsSmoke

# Sim-vs-real accuracy gate: capture a live serving run, fit perfmodel
# coefficients from its telemetry, replay the same trace through the
# calibrated simulator, and assert the end-to-end latency prediction error
# stays inside the documented budget (docs/CALIBRATION.md).
calib-gate:
	$(GO) test -count=1 ./internal/replay/ -run 'TestCalibrationGate|TestCoefficientsRoundTrip'

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark under the race detector: catches
# benchmarks that panic or race without paying for real measurement.
bench-smoke:
	$(GO) test -race -run '^$$' -bench . -benchtime 1x ./...

# Adaptive step-caching policy sweep (DESIGN.md §11): the Fig 1 edit under
# off / block / layer / timestep / combined, with per-policy speedup over
# the uncached mask-aware path, SSIM vs the uncached output, and the
# reused-block ratio, written as machine-readable JSON.
bench-diffusion:
	$(GO) run ./cmd/flashps-diffbench -par 1 -o BENCH_diffusion.json

# Fast variant for make check: reduced model, one iteration, output
# discarded — proves the sweep itself can't rot.
bench-diffusion-smoke:
	$(GO) run ./cmd/flashps-diffbench -smoke -o /dev/null

# Kernel before/after evidence: naive vs blocked/fused kernels, with
# GFLOP/s and allocs/op, plus the per-op budget of one block, written as
# machine-readable JSON. Serial kernels (-par 1), as the serving plane runs
# them and so that the budget's ops add up to the block. The report being
# overwritten is read first: its one-member batch_scaling rows are the
# parent column of lane_fixed_work, so regenerate from a clean tree whose
# BENCH_kernels.json is the parent's, taken on the same host. On a host
# above the avx2 kernel level the command runs itself a second time capped
# at avx2, keeps those times beside its own (level_check, block_ns_avx2,
# avx2_us_per_lane_step) and exits 1 if its own level loses.
bench-kernels:
	$(GO) run ./cmd/flashps-kernels -par 1 -o BENCH_kernels.json

# Paired end-to-end runs, parent commit against the working tree, through
# benchmark/run.sh: prints where each binary's host meter was linked,
# alternates idle meter probes and refuses the pair (exit 1) when the two
# binaries' beats differ by more than 10% — their normalised metrics would
# differ by that much whatever the change does. `make bench-pair RUNS=10`
# then alternates ten pairs per workload and prints the comparison table;
# PARENT, PROBES, SEED0, WORKLOADS as in scripts/bench-pair.sh.
bench-pair:
	PARENT=$(PARENT) RUNS=$(RUNS) bash scripts/bench-pair.sh

# The coefficient set make whatif reads: serve 500 requests at 1400 rps on
# 4 in-process replicas (real engines on a small model), fit perfmodel
# coefficients from the run's telemetry and write them.
calib:
	$(GO) run ./cmd/flashps-whatif -capture BENCH_calib.json -workers 4

# Capacity prediction from the fitted coefficients — no server involved.
whatif:
	$(GO) run ./cmd/flashps-whatif -coeffs BENCH_calib.json -o -

# Regenerate every paper table/figure (writes Fig 13 PNGs to artifacts/).
experiments:
	mkdir -p artifacts
	$(GO) run ./cmd/flashps-bench -out artifacts | tee artifacts/full_bench_output.txt

# Short fuzzing pass over the wire-format and API parsers, the template-cache
# reader (what it reads must serialize back to the bytes it consumed), the PNG
# encoder (decoded, its output must be the input's pixels) and the LayerNorm
# row-group kernel (each row must have the row-at-a-time specification's bits).
fuzz:
	$(GO) test ./internal/serve/ -run xxx -fuzz FuzzMaskSpecBuild -fuzztime 10s
	$(GO) test ./internal/serve/ -run xxx -fuzz FuzzMaskSpecJSON -fuzztime 10s
	$(GO) test ./internal/serve/ -run xxx -fuzz FuzzDeserializeLatent -fuzztime 10s
	$(GO) test ./internal/diffusion/ -run xxx -fuzz FuzzReadTemplateCache -fuzztime 10s
	$(GO) test ./internal/img/ -run xxx -fuzz FuzzEncodePNG -fuzztime 10s
	$(GO) test ./internal/tensor/ -run xxx -fuzz FuzzLayerNormRows -fuzztime 10s

clean:
	rm -rf artifacts/*.png
