#!/bin/sh
# verify.sh — the repository's tier-1 gate plus the race pass. Pure POSIX sh;
# all temporaries live under the repo (CI runners promise no writable TMPDIR
# layout), and every step's failure fails the gate.
#
#   gofmt -l                     formatting is clean
#   go vet ./...                 static checks
#   GOARCH=arm64 go vet ./...    the same, cross-compiled: the portable
#                                fallback of hostatomic's release store (the
#                                sync/atomic store every non-amd64 build
#                                uses) keeps compiling beside the amd64
#                                assembly
#   GOOS=darwin go vet ./...     the same for a non-Linux OS: the arena's
#                                refusal there (no futex, no second wake
#                                mechanism) keeps compiling
#   go build ./...               everything compiles
#   hot helpers inline           go build -gcflags=-m of internal/simnet and
#                                internal/timing reports "can inline" for
#                                every helper the word bodies (the atomic's,
#                                the put's and the get's) run between the
#                                port's CAS and its release,
#                                and for the route-hit test and the word
#                                check before it (Port.LockRing,
#                                Port.unlockRung, Stamps.Get,
#                                Stamps.WordRecord, route.hit,
#                                Region.checkWords): an edit that takes one
#                                over the inlining budget fails here, not
#                                silently as nanoseconds per operation
#   retired-names check          LockChain, nicMu and rnNicLock — the three
#                                per-target locks the port replaced —
#                                regMemo, the batch-only region memo the
#                                route memo replaced, the per-backend
#                                pacing loops' names (paceMinRefresh,
#                                paceSleepMin, paceShardMins, paceWaiterOff,
#                                lastPoke) that simnet.Pacer replaced, and
#                                the per-backend doorbell park/wake names
#                                (doorWaiters, doorMu, doorGenOf,
#                                doorWaitSliced, WaitDoorSliced, DoorOps,
#                                doorWaitMin, doorWaitMax) that the one
#                                door (ParkHook.DoorWait) replaced, the
#                                door's waiter table it then dropped
#                                (DoorTableWords, doorOwn, waitOff), the
#                                deleted host-perf harness
#                                and wire-window knob (hostperf, EnvWindow,
#                                NetWindow, winDepth, resolveWindow), and
#                                what the one control plane retired — the
#                                five per-backend worker variables
#                                (FOMPI_MP_DIR, FOMPI_MP_RANK,
#                                FOMPI_NET_COORD, FOMPI_NET_RANK,
#                                FOMPI_HYB_WORLD), ExtraEnv, netWindow,
#                                opNicReserve, watchAbort — and what the one
#                                process transport retired (hybridrun,
#                                SetDoor, crossWorld, withBackend, opResume)
#                                and what the one request shape retired
#                                (AsyncMem, rmta, PutAsync, StoreWordAsync,
#                                NotifyAsync, reqData, callData, callIdem,
#                                wireCall, sendRing, opRing, idemAttempts)
#                                and what the data-plane-only Transport
#                                retired (the arena's abort words and their
#                                setters — SetAbortFlag, AbortFlag,
#                                hdrAbort, hdrFailRank — the fabric's
#                                abortHooks, and mpi1's worldsMu registry
#                                and mpi1.Release) and the arena's doorbell
#                                sockets (DoorSockPath, sendDoor, SockStem,
#                                GroupSockStem, doorAlive, peersMu) and the
#                                second observability channel (ServeDebug,
#                                EnvDebugAddr, startDebug, dumpRankStats,
#                                debug-addr, FOMPI_DEBUG_ADDR) and the
#                                batched issue scope (BeginBatch, EndBatch,
#                                InBatch, batchDepth, batchGen, pendDst,
#                                dstMark, flushBatchNotifies,
#                                flushBeforeBlock) and the second judge of
#                                a rank's death (the optimeout and ctlidle
#                                keys, CtlIdleTimeout, a survivor's "lost
#                                peer rank" report) and the word AMOs'
#                                second operator set that the one
#                                simnet.AmoOp replaced (WordOp, WordAdd,
#                                WordCas, WordSwap, applyWordOp, and
#                                FetchAddNB, which FetchOpNB replaced) and
#                                the data operations the four of put, get,
#                                atomic and notify absorbed (opStoreW,
#                                opLoadW, opWordAmo, opBulkAmo,
#                                loadWordStamped, WordAmo, BulkAmo) and the
#                                one-word port's waiter field (waiterField,
#                                waiterOne), which the wait word replaced,
#                                and the per-backend key allocators and
#                                liveness constants the one region
#                                directory (simnet.Directory) replaced
#                                (RegionLive, proxyLive, entryEmpty,
#                                entryLive, entryDead, nextKey, mineMu,
#                                ownRegion, initTbl, regUnknown) and the
#                                one-word branch test of the byte-slice put
#                                and get (oneWord), which RegionExec.PutWord
#                                and GetWord replaced, and the frame's ring
#                                flag (a reqSession's bring field and the
#                                owner's per-frame ringDoor), which every
#                                write's own port release replaced, and an
#                                import of package net, which internal/sock
#                                replaced (a name-resolving net links
#                                runtime/cgo into every rank binary), and
#                                what moving MPI-1 onto registered memory
#                                retired (spmd's sharedOnce world slot,
#                                stencil's rmaOnly flag and mpi1's "two-sided
#                                runs in process only" refusal),
#                                occur in no non-test Go file; the Makefile, the
#                                scripts and the CI workflow name no piece
#                                of that harness, nor those variables, nor
#                                the two test variables that became go test
#                                flags (-tt.backends, -chaos.log), either
#   rings from outside a write   RingDoorbell occurs in non-test Go only in
#                                the Transport contract and the fabric's
#                                method (simnet/transport.go) and the
#                                process world's method and its owner's
#                                opDoorRing (netrun.go, service.go): every
#                                write rings in its own port release
#   doc names                    every backticked Go-style name in DESIGN.md
#                                and README.md — a span that is one CamelCase
#                                identifier or a pkg.Name / Type.Method path,
#                                a trailing () allowed — has each part occur
#                                as a word in some .go file (EINTR, MOV and
#                                XCHG, the three non-Go words they use, are
#                                allowed): a deleted name cannot outlive its
#                                code in the docs
#   no net, cgo, HTTP or crypto in a rank
#                                go list -deps of every example, every
#                                command and the benchmark module lists none
#                                of net, runtime/cgo, net/http,
#                                net/http/pprof, expvar and no crypto/
#                                package at all: the process transport opens
#                                its sockets through internal/sock, so no
#                                rank binary is a cgo binary (≈ 0.5 ms more
#                                per process start); telemetry leaves a
#                                rank over its control stream alone (SIGQUIT
#                                to the launcher, DUMP to every rank), and an
#                                arena's name is an FNV digest, so no rank
#                                binary pays for a crypto stack at boot
#   go test ./...                all package suites (includes the transport
#                                conformance suite, which spawns the worker
#                                processes of the mp, net and hybrid
#                                placements)
#   go test -cpu 1 <fabric>      simnet, core, spmd and wordcoll on one P,
#                                where a lost or late doorbell wake hangs a
#                                test instead of racing past
#   fuzz smoke                   FuzzParseBatch (a frame's list), FuzzFrame
#                                (the owner's whole frame path: session
#                                header, replay, execution against one
#                                region), FuzzCtlLine (every control line)
#                                and FuzzCheckHeader (the arena header a
#                                process maps without having written it),
#                                5 s each: what reads bytes that cross a
#                                process boundary stays total
#   make bench-test              the benchmark module's own tests (benchmark/
#                                has its own go.mod, so ./... skips it)
#   go test -bench 'Issue|Port' -benchtime 1x
#                                the inline issue benchmarks (the word
#                                atomic's AmoSum, CompareSwap and FetchBxor
#                                among them) and the port
#                                hold benchmarks, one iteration: their 0
#                                allocs/op and the issue path's 0
#                                steady-state route misses assertions run on
#                                every verify
#   go test -race -short <hot>   concurrency check over the packages whose
#                                goroutines share fabric memory, and over
#                                internal/sock, whose Close must end a
#                                parked Accept, and internal/bench, whose
#                                figures gather each rank's sample (the release
#                                store's message-passing litmus test, the
#                                port's, the pacer's and the door's unit
#                                tests, the two-mappings arena tests and
#                                mpi1's door waits among them),
#                                plus the cross-backend AMO chain, pacing,
#                                doorbell, fused-frame, ordering,
#                                shared-frame, dump, stopped-rank,
#                                stopped-peer-behind-wire, same-op
#                                atomicity and generated-program
#                                conformance tests under -race (the last
#                                runs its fixed seed set, -tt.programs'
#                                default, ≈ 20 s on all four backends
#                                under -race), and spmd's
#                                rank-worker reuse and nested-world tests
#                                (TestRunReusesRankGoroutines,
#                                TestRunNestedFromRank0) ten times over,
#                                and the port's two-word handshake
#                                (TestDoorWaitsOutInFlightWrite,
#                                TestPortExclusionAndRings) twenty times;
#                                the applications, pgas and wordcoll join
#                                the short leg, for the two-sided variants
#                                run MPI-1's progress across rank goroutines
#   planted bugs                 scripts/mutants.sh: each patch under
#                                scripts/mutants/ (Win.Unlock without its
#                                Gsync, a door waiter that never counts
#                                itself in, three breaks of MPI-1's notices)
#                                is planted in a scratch worktree and must
#                                fail the test its header names (≈ 40 s)
#   examples smoke               build and run every example; quickstart and
#                                stencil (unpaced and with -pace 20000; its
#                                MPI-1 variant included) must produce
#                                identical deterministic output on the
#                                in-process, multi-process, inter-node
#                                (loopback TCP), and hybrid (shm + TCP)
#                                backends; hashtable and dsde run to
#                                completion under fompi-run on mp, net and
#                                hybrid
#   leak gate                    no fompi-mp-* / fompi-hyb-* entry (world
#                                directory, segment)
#                                created during this run is left under
#                                $TMPDIR or /dev/shm — every world the legs
#                                above launched, clean, failed or SIGKILLed,
#                                cleaned up after itself (the benchmark's own
#                                check sees only $TMPDIR); and no *.door.*
#                                path of any age exists there at all: a
#                                host-mate wakes through the segment alone
#
# Run via `make verify` or directly. Exits nonzero on the first failure.
set -eu

cd "$(dirname "$0")/.."

TMP="scripts/.verify.tmp.$$"
trap 'rm -rf "$TMP"' EXIT INT TERM
mkdir -p "$TMP"
: >"$TMP/started" # the leak gate's "younger than the run"

echo "== gofmt"
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== GOARCH=arm64 go vet (the portable release-store fallback compiles)"
GOARCH=arm64 go vet ./...

echo "== GOOS=darwin go vet (the non-Linux arena refusal compiles)"
GOOS=darwin go vet ./...

echo "== go build"
go build ./...

echo "== the word bodies' hot helpers inline (go build -gcflags=-m)"
INLINED="$(go build -gcflags=-m ./internal/simnet ./internal/timing 2>&1 | sed -n 's/^.*: can inline //p')"
for fn in '(*Port).LockRing' '(*Port).unlockRung' '(*Stamps).Get' '(*Stamps).WordRecord' '(*route).hit' '(*Region).checkWords'; do
	if ! printf '%s\n' "$INLINED" | grep -qxF "$fn"; then
		echo "verify: $fn no longer inlines (go build -gcflags=-m=2 ./internal/simnet ./internal/timing prints its cost against the budget of 80)" >&2
		exit 1
	fi
done

echo "== retired names (the port's, the route memo's, the pacer's and the door's predecessors, the door's waiter table, the second host-perf harness, the wire-window knob, the per-backend control planes, the per-backend transports, the wire's other request shapes, the second abort path, the doorbell sockets, the second observability channel, the batched issue scope, the second judge of a rank's death, the second AMO operator set, the data operations beyond put, get, atomic and notify, the one-word port's waiter field, a second key allocator, the byte-slice one-word branch, the frame's ring flag, package net and MPI-1's in-process carve-out must not creep back)"
RETIRED_ENV='FOMPI_MP_DIR|FOMPI_MP_RANK|FOMPI_NET_COORD|FOMPI_NET_RANK|FOMPI_HYB_WORLD|FOMPI_TT_BACKENDS|FOMPI_CHAOS_LOG|FOMPI_DEBUG_ADDR'
if grep -rnE "LockChain|nicMu|rnNicLock|regMemo|paceMinRefresh|paceSleepMin|paceShardMins|paceWaiterOff|lastPoke|doorWaiters|doorMu|doorGenOf|doorWaitSliced|WaitDoorSliced|DoorOps|doorWaitMin|doorWaitMax|DoorTableWords|doorOwn|waitOff|hostperf|EnvWindow|NetWindow|winDepth|resolveWindow|$RETIRED_ENV|ExtraEnv|netWindow|opNicReserve|watchAbort|hybridrun|SetDoor|crossWorld|withBackend|opResume|AsyncMem|rmta|PutAsync|StoreWordAsync|NotifyAsync|reqData|callData|callIdem|wireCall|sendRing|opRing|idemAttempts|SetAbortFlag|AbortFlag|hdrAbort|hdrFailRank|worldsMu|abortHooks|mpi1\.Release|DoorSockPath|sendDoor|SockStem|GroupSockStem|doorAlive|peersMu|ServeDebug|EnvDebugAddr|startDebug|dumpRankStats|debug-addr|BeginBatch|EndBatch|InBatch|batchDepth|batchGen|pendDst|dstMark|flushBatchNotifies|flushBeforeBlock|optimeout|ctlidle|CtlIdleTimeout|lost peer rank|WordOp|WordAdd|WordCas|WordSwap|applyWordOp|FetchAddNB|opStoreW|opLoadW|opWordAmo|opBulkAmo|loadWordStamped|WordAmo|BulkAmo|waiterField|waiterOne|RegionLive|proxyLive|entryEmpty|entryLive|entryDead|nextKey|mineMu|ownRegion|initTbl|regUnknown|oneWord|\.bring\b|\bbring +bool|ringDoor|sharedOnce|rmaOnly|rma-only|two-sided runs in process only|^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.]+[[:space:]]+)?\"net\"$" \
	--include='*.go' --exclude='*_test.go' fompi.go internal cmd examples ||
	grep -nE "hostperf|bench_host|bench_check|bench_wire|BENCH_host|FOMPI_NET_WINDOW|$RETIRED_ENV" --exclude=verify.sh Makefile scripts/*.sh .github/workflows/ci.yml; then
	echo "verify: a retired per-target lock, the batch-only region memo, a second pacing loop, a second doorbell park/wake, the door's waiter table, the deleted host-perf harness, the wire-window knob, a per-backend control plane's or transport's name, a second request shape on the wire, a second abort path, a doorbell socket, a second observability channel, the batched issue scope, a second judge of a rank's death, a second AMO operator set, a data operation beyond put, get, atomic and notify, the one-word port's waiter field, a second key allocator or liveness constant, the byte-slice one-word branch, the frame's ring flag, an import of package net or MPI-1's in-process carve-out is back" >&2
	exit 1
fi

echo "== rings from outside a write (RingDoorbell only in the Transport contract, its two methods and the owner's opDoorRing)"
RINGERS="$(grep -rlw RingDoorbell --include='*.go' --exclude='*_test.go' fompi.go internal cmd examples |
	grep -vxE 'internal/simnet/transport.go|internal/netrun/(netrun|service).go' || true)"
if [ -n "$RINGERS" ]; then
	echo "verify: RingDoorbell is called from $RINGERS: a write rings in its own port release (RegionExec), not apart from it" >&2
	exit 1
fi

echo "== doc names (every backticked Go-style name in DESIGN.md and README.md occurs in some .go file)"
find . -name '*.go' -not -path './.git/*' -exec cat {} + |
	grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$TMP/gowords"
grep -ohE '`[^`]+`' DESIGN.md README.md | tr -d '`' | sed 's/()$//' |
	grep -xE '[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*' |
	grep -E '^[A-Z][A-Za-z0-9_]*$|^[a-z_][A-Za-z0-9_]*[a-z0-9][A-Z][A-Za-z0-9_]*$|\.[A-Z][A-Za-z0-9_]*$' |
	grep -vxE 'EINTR|MOV|XCHG' | sort -u >"$TMP/docnames"
STALE=""
while read -r name; do
	for part in $(echo "$name" | tr . ' '); do
		grep -qxF "$part" "$TMP/gowords" || {
			STALE="$STALE $name"
			break
		}
	done
done <"$TMP/docnames"
if [ -n "$STALE" ]; then
	echo "verify: DESIGN.md or README.md names what no Go file does:$STALE" >&2
	exit 1
fi

echo "== no net, cgo, HTTP or crypto in a rank (no example, command or the benchmark links net, runtime/cgo, net/http, net/http/pprof, expvar or any crypto/ package)"
go list -deps ./examples/... ./cmd/... >"$TMP/deps"
(cd benchmark && go list -deps .) >>"$TMP/deps"
if grep -E '^(net|runtime/cgo|net/http|net/http/pprof|expvar)$|^crypto/' "$TMP/deps"; then
	echo "verify: a rank binary links package net, cgo, an HTTP stack or a crypto package again; sockets open through internal/sock, telemetry leaves a rank over its control stream alone, and nothing in a rank needs a cryptographic hash" >&2
	exit 1
fi

echo "== go test"
go test ./...

echo "== go test -cpu 1 (simnet, core, spmd, wordcoll on one P: a lost or late wake hangs here)"
go test -count=1 -cpu 1 ./internal/simnet/... ./internal/core ./internal/spmd ./internal/wordcoll

echo "== fuzz smoke (the four readers of cross-process bytes, 5 s each)"
# -fuzzminimizetime: minimising one 64 KiB interesting input would otherwise
# eat the whole budget.
go test ./internal/netrun -run '^$' -fuzz FuzzParseBatch -fuzztime 5s -fuzzminimizetime 1s
go test ./internal/netrun -run '^$' -fuzz FuzzFrame -fuzztime 5s -fuzzminimizetime 1s
go test ./internal/rankio -run '^$' -fuzz FuzzCtlLine -fuzztime 5s -fuzzminimizetime 1s
go test ./internal/mprun -run '^$' -fuzz FuzzCheckHeader -fuzztime 5s -fuzzminimizetime 1s

echo "== benchmark module tests (make bench-test)"
make bench-test

echo "== issue-path and port-hold benchmarks, one iteration (0 allocs/op, 0 steady-state route misses)"
go test ./internal/simnet -run '^$' -bench 'Issue|Port' -benchtime 1x

echo "== go test -race -short (hostatomic, timing, simnet, core, spmd, netrun, rankio, mprun, mpi1, sock, bench, apps, pgas, wordcoll; spmd's worker reuse ten times; the port's handshake twenty times)"
go test -race -short ./internal/hostatomic/ ./internal/timing/ ./internal/simnet/ ./internal/core/ ./internal/spmd/ ./internal/netrun/ ./internal/rankio/ ./internal/mprun/ ./internal/mpi1/ ./internal/sock/ ./internal/bench/ ./internal/apps/... ./internal/pgas/ ./internal/wordcoll/
go test -race -count=1 -run 'TestConformanceAmoChain|TestConformancePacing|TestConformanceDoorbell|TestConformanceFusedFrame|TestConformanceOrdering|TestConformanceSharedFrame|TestConformanceDump|TestStoppedRank|TestStoppedPeerBehindWire|TestConformanceSameOpAtomic|TestConformanceGeneratedPrograms' ./internal/transporttest/
go test -race -count=10 -run 'TestRunReusesRankGoroutines|TestRunNestedFromRank0' ./internal/spmd
go test -race -count=20 -run 'TestDoorWaitsOutInFlightWrite|TestPortExclusionAndRings' ./internal/simnet

echo "== planted bugs (scripts/mutants.sh: every mutant caught by its test)"
sh scripts/mutants.sh

echo "== examples smoke (build + run, cross-backend diff)"
for ex in quickstart stencil hashtable dsde; do
	go build -o "$TMP/$ex" "./examples/$ex"
done
go build -o "$TMP/fompi-run" ./cmd/fompi-run

# compare_backends CMDLINE... : run once per backend (proc, mp, net, hybrid)
# and diff against the in-process output. Output lines are sorted (rank
# prints interleave arbitrarily); the figures themselves must be
# bit-identical, in one pass — the stamp-merge reordering that once needed a
# retry here is fixed at the source (AMO chains serialize on the target's
# port), and the
# transporttest determinism loop pins it.
compare_backends() {
	# Capture before sorting: a pipeline would report sort's status and
	# let a crashing example (identical empty output on all backends)
	# slip through the gate.
	"$@" -backend=proc >"$TMP/raw.proc"
	sort "$TMP/raw.proc" >"$TMP/cmp.proc"
	for cb in mp net hybrid; do
		"$@" -backend="$cb" >"$TMP/raw.$cb"
		sort "$TMP/raw.$cb" >"$TMP/cmp.$cb"
		cmp -s "$TMP/cmp.proc" "$TMP/cmp.$cb" || {
			echo "examples smoke: $cb backend disagrees for: $*" >&2
			diff "$TMP/cmp.proc" "$TMP/cmp.$cb" >&2 || true
			return 1
		}
	done
}

compare_backends "$TMP/quickstart"
compare_backends "$TMP/stencil" -check -ppn 8
compare_backends "$TMP/stencil" -check -ppn 8 -pace 20000
# The external launcher must drive the same world (quickstart is 4 ranks,
# 2 per node) on both cross-process backends. Rank output arrives tagged
# "[rank N] " (the launcher's default); strip the tag before comparing.
# cmp.proc still holds the stencil comparison, so re-derive the quickstart
# reference explicitly.
"$TMP/quickstart" -backend=proc >"$TMP/quickstart.raw"
sort "$TMP/quickstart.raw" >"$TMP/quickstart.ref"
for lb in mp net hybrid; do
	"$TMP/fompi-run" -np 4 -ppn 2 -backend "$lb" "$TMP/quickstart" >"$TMP/launcher.raw"
	sed 's/^\[rank [0-9]*\] //' "$TMP/launcher.raw" | sort >"$TMP/launcher.out"
	cmp "$TMP/quickstart.ref" "$TMP/launcher.out" || {
		echo "examples smoke: fompi-run -backend $lb output diverges from in-process quickstart" >&2
		exit 1
	}
done
# hashtable and dsde run to completion on every backend as drift guards, not
# diffed: their MPI-1 variants receive from AnySource, and a message's
# position in the unexpected queue — which scanNs prices — is its host
# arrival order, so their virtual times differ from run to run on any
# backend (three in-process runs of each printed three different outputs).
"$TMP/hashtable" >/dev/null
"$TMP/dsde" >/dev/null
for lb in mp net hybrid; do
	"$TMP/fompi-run" -np 8 -ppn 4 -pace 20000 -backend "$lb" "$TMP/hashtable" >/dev/null
	"$TMP/fompi-run" -np 16 -ppn 4 -pace 20000 -backend "$lb" "$TMP/dsde" >/dev/null
done
echo "examples smoke: OK"

echo "== leak gate (no fompi-mp-* / fompi-hyb-* entry of this run, and no *.door.* path at all, under \$TMPDIR or /dev/shm)"
LEAKED=""
for root in "${TMPDIR:-/tmp}" /dev/shm; do
	[ -d "$root" ] || continue
	LEAKED="$LEAKED$(find "$root" -maxdepth 1 \( -name 'fompi-mp-*' -o -name 'fompi-hyb-*' \) -newer "$TMP/started")"
	LEAKED="$LEAKED$(find "$root" -maxdepth 2 -name '*.door.*' 2>/dev/null)"
done
if [ -n "$LEAKED" ]; then
	echo "verify: worlds of this run left entries behind:" >&2
	echo "$LEAKED" >&2
	exit 1
fi

echo "verify: OK"
