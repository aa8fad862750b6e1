#!/bin/sh
# smoke_net.sh [backend] — a cross-process backend's example smoke: the
# deterministic examples must produce bit-identical output on the in-process
# backend and the backend under test (default net, the inter-node loopback
# TCP transport; pass hybrid for the shm+TCP topology-aware transport),
# directly and through the fompi-run launcher. A focused subset of
# scripts/verify.sh's four-way diff, for the CI jobs that exercise one
# backend in isolation. The diff is single-pass: the stamp-merge race that
# once needed a retry here is fixed at the source (AMO chains serialize on
# the target's port).
# Pure POSIX sh; temporaries live under the repo (CI runners promise no
# writable TMPDIR layout).
set -eu

cd "$(dirname "$0")/.."

BE="${1:-net}"

TMP="scripts/.smoke_net.tmp.$$"
trap 'rm -rf "$TMP"' EXIT INT TERM
mkdir -p "$TMP"

echo "== build (quickstart, stencil, fompi-run)"
go build -o "$TMP/quickstart" ./examples/quickstart
go build -o "$TMP/stencil" ./examples/stencil
go build -o "$TMP/fompi-run" ./cmd/fompi-run

# diff_backend NAME CMDLINE... : one proc run and one $BE run, sorted (rank
# prints interleave arbitrarily), must match bit for bit.
diff_backend() {
	name=$1
	shift
	"$@" -backend=proc >"$TMP/raw.proc"
	"$@" -backend="$BE" >"$TMP/raw.be"
	sort "$TMP/raw.proc" >"$TMP/cmp.proc"
	sort "$TMP/raw.be" >"$TMP/cmp.be"
	cmp -s "$TMP/cmp.proc" "$TMP/cmp.be" || {
		echo "smoke_net: $name diverges between proc and $BE:" >&2
		diff "$TMP/cmp.proc" "$TMP/cmp.be" >&2 || true
		return 1
	}
	echo "smoke_net: $name OK"
}

echo "== cross-backend diff (proc vs $BE)"
diff_backend quickstart "$TMP/quickstart"
diff_backend "stencil -check" "$TMP/stencil" -check -ppn 8

echo "== fompi-run -backend $BE launcher path"
"$TMP/quickstart" -backend=proc | sort >"$TMP/quickstart.ref"
"$TMP/fompi-run" -np 4 -ppn 2 -backend "$BE" "$TMP/quickstart" >"$TMP/launcher.raw"
sed 's/^\[rank [0-9]*\] //' "$TMP/launcher.raw" | sort >"$TMP/launcher.out"
cmp "$TMP/quickstart.ref" "$TMP/launcher.out" || {
	echo "smoke_net: fompi-run -backend $BE output diverges from in-process quickstart" >&2
	exit 1
}
echo "smoke_net: launcher OK"

echo "smoke_net: OK"
