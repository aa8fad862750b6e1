.PHONY: verify build test race bench bench-test bench-host bench-host-quick bench-check

# verify is the tier-1 gate: vet + build + full tests + short-mode race pass
# over the concurrency-heavy packages (see scripts/verify.sh).
verify:
	sh scripts/verify.sh

build:
	go build ./...

test:
	go test ./...

race:
	go test -race -short ./internal/timing/ ./internal/simnet/ ./internal/core/ ./internal/spmd/ ./internal/mprun/

# bench regenerates every experiment quickly; see EXPERIMENTS.md for the
# full sweeps.
bench:
	go run ./cmd/fompi-bench -exp all

# bench-test runs the benchmark module's own tests (estimator, spec vs
# BENCHMARK.json, smoke). benchmark/ is a module of its own, so `go test
# ./...` from the root never reaches them.
bench-test:
	cd benchmark && go test

# bench-host regenerates BENCH_host.json: the simulator's own wall-clock
# ns/op and allocs/op per hot-path scenario, compared against the recorded
# pre-optimization baseline (scripts/bench_host_baseline.json).
bench-host:
	sh scripts/bench_host.sh

# bench-check is the CI perf-regression guard: quick host-bench vs the
# committed BENCH_host.json allocs/op ceilings (wall-clock advisory).
bench-check:
	sh scripts/bench_check.sh

# bench-host-quick is the verify-wired smoke: one iteration over a small
# scenario subset into a throwaway file, asserting the perf harness still
# runs and emits well-formed JSON on every verify.
# The && chain matters: the recipe must fail when the bench run or its JSON
# check fails, not report the trailing rm's status. The throwaway report
# lives under scripts/ — CI runners promise no writable $TMPDIR.
bench-host-quick:
	@OUT="scripts/.bench_quick.$$$$.json"; \
	trap 'rm -f "$$OUT"' EXIT; \
	ITERS=1 OUT="$$OUT" sh scripts/bench_host.sh -only 'put_sweep|get_sweep|fence_p64|lockall_p64|coll_p256|stencil_p16' && \
	rm -f "$$OUT"
