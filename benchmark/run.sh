#!/bin/sh
# Builds the benchmark from the checkout's source and runs it.
#
#   sh benchmark/run.sh                       full set: every workload untraced, then traced
#   sh benchmark/run.sh -only net_rma         one workload
#   sh benchmark/run.sh -selfcheck            two sets, gaps against bounds
#   sh benchmark/run.sh --workload W --seed N --seconds S --trace 0|1    (the driver's form)
#
# Everything it writes — the binary, the Go build cache and the toolchain's
# own files (XDG_CONFIG_HOME holds its telemetry counters), result and trace
# files, the transports' temporary files — stays under benchmark/out/.
set -eu
cd "$(dirname "$0")/.."
out=$(pwd)/benchmark/out
mkdir -p "$out/tmp"
(
	cd benchmark
	GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/xdg GOTOOLCHAIN=local GOPROXY=off \
		TMPDIR=$out/tmp go build -o "$out/benchmark" .
)
# A relative TMPDIR keeps the transports' Unix-socket paths short however
# deep the checkout lies (sun_path holds 108 bytes).
TMPDIR=benchmark/out/tmp exec "$out/benchmark" "$@"
