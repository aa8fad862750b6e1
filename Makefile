.PHONY: verify build test race bench bench-test

# verify is the tier-1 gate: vet + build + full tests + short-mode race pass
# over the concurrency-heavy packages (see scripts/verify.sh).
verify:
	sh scripts/verify.sh

build:
	go build ./...

test:
	go test ./...

race:
	go test -race -short ./internal/hostatomic/ ./internal/timing/ ./internal/simnet/ ./internal/core/ ./internal/spmd/ ./internal/netrun/ ./internal/mprun/ ./internal/mpi1/

# bench regenerates every experiment quickly; see EXPERIMENTS.md for the
# full sweeps.
bench:
	go run ./cmd/fompi-bench -exp all

# bench-test runs the benchmark module's own tests (estimator, spec vs
# BENCHMARK.json, smoke). benchmark/ is a module of its own, so `go test
# ./...` from the root never reaches them.
bench-test:
	cd benchmark && go test
