#!/bin/sh
# mutants.sh — plant each committed bug in a scratch worktree and check that
# the test named for it catches it: the suite's blind spots as a list.
#
# Usage: sh scripts/mutants.sh [scripts/mutants/<id>.patch ...]
# (no argument: every patch under scripts/mutants/).
#
# A patch is a diff against the committed tree under a header of
# "# key: value" lines, which git apply skips:
#   # mutant:   what the planted bug does, one line
#   # packages: the packages to test, space-separated
#   # test:     the -run pattern of the test expected to catch it
#   # timeout:  go test's -timeout; a bug that hangs is caught when it expires
# The patches apply one at a time in one detached worktree of HEAD under
# $TMPDIR, which is reset after each. For each patch it prints one line,
#   caught | survived | no-longer-applies   <id>   <mutant>
# and it exits nonzero if any mutant survived or no longer applies.
set -eu
cd "$(git rev-parse --show-toplevel)"
[ $# -gt 0 ] || set -- scripts/mutants/*.patch
WORK="$(mktemp -d "${TMPDIR:-/tmp}/fompi-mutants.XXXXXX")"
cleanup() {
	git worktree remove --force "$WORK/tree" 2>/dev/null || true
	rm -rf "$WORK"
	git worktree prune
}
trap cleanup EXIT INT TERM
git worktree add -q --detach "$WORK/tree" HEAD
# field KEY: the header value KEY of the patch at $abs.
field() { sed -n "s/^# $1: //p" "$abs"; }
bad=0
for p in "$@"; do
	case "$p" in /*) abs="$p" ;; *) abs="$(pwd)/$p" ;; esac
	id="$(basename "$p" .patch)"
	if ! git -C "$WORK/tree" apply --check "$abs" 2>/dev/null; then
		verdict=no-longer-applies
	else
		git -C "$WORK/tree" apply "$abs"
		# shellcheck disable=SC2046 # the package list splits on purpose
		if (cd "$WORK/tree" && go test -count=1 -timeout "$(field timeout)" -run "$(field test)" $(field packages)) >"$WORK/$id.log" 2>&1; then
			verdict=survived
		else
			verdict=caught
		fi
		git -C "$WORK/tree" checkout -q -- .
	fi
	printf '%-18s %-22s %s\n' "$verdict" "$id" "$(field mutant)"
	[ "$verdict" = caught ] || bad=1
done
exit "$bad"
