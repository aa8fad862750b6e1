// Command fompi-run launches an SPMD program on a cross-process backend:
// the mpirun/srun equivalent of the simulated toolchain.
//
//	fompi-run -np 4 -ppn 2 ./myprog args...                    # shared memory (mp)
//	fompi-run -np 4 -backend net ./myprog args...              # TCP, loopback spawn
//	fompi-run -np 4 -backend net -hosts a,b -listen :7077 ./myprog
//	fompi-run -np 4 -ppn 2 -backend hybrid ./myprog args...    # shm within a host, TCP across
//
// Every backend's world runs the one control plane (internal/rankio): the
// launcher coordinates, each rank learns its world from FOMPI_COORD
// (backend:network:address of the coordinator's socket) and FOMPI_RANK, and
// -stats, -net-timeouts and the heartbeat liveness check cover all three.
// With -backend mp (the default) the launcher creates the shared-memory world
// and executes the target binary once per rank; with -backend net it listens
// on TCP, spawning the ranks locally (loopback mode) or — when -hosts is
// given (or FOMPI_HOSTS is set) — waiting for workers the operator starts on
// each listed machine with FOMPI_COORD=net:tcp:<host>:<port> pointing back at
// the coordinator (the launcher prints the exact line; <host> is an IP
// address or a name /etc/hosts lists — nothing asks DNS). -backend hybrid runs
// the same coordinator but groups ranks by host key: co-located ranks share
// an mmap arena (shared-memory windows work across their processes), off-host
// ranks talk TCP. In loopback mode the hybrid launcher emulates one host per
// virtual node; in host-list mode FOMPI_COORD names the hybrid backend and
// each machine's workers export its FOMPI_NET_HOST.
//
// The launcher exports FOMPI_BACKEND, so a program that selects its backend
// from the environment (fompi.BackendFromEnv, as the examples do) reaches
// its fompi.Run call with the matching backend and joins the world the
// launcher created. The flags must match the program's fompi.Config (ranks,
// ranks per node, pacing window, arena size): the workers validate their
// config against the world and fail loudly on a mismatch.
//
// Each rank's stdout/stderr is prefixed "[rank N]" (disable with -tag=false)
// and the launcher exits with the first failing rank's exit code.
//
// Observability travels the control plane too. With -stats each rank ships
// its telemetry snapshot when it finishes, the launcher prints it as one
// "rank N stats {...}" line and publishes the merged world aggregate. A
// SIGQUIT to the launcher (Ctrl-\ in its terminal; the ranks ignore their
// own) asks every rank, mid-run: each answers with its stats line, measured
// or not, and writes every goroutine's stack to its stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"fompi/internal/faultnet"
	"fompi/internal/rankio"
	"fompi/internal/spmd"
	"fompi/internal/telemetry"
)

func main() {
	np := flag.Int("np", 2, "number of ranks (one OS process each)")
	ppn := flag.Int("ppn", 1, "ranks per (virtual) node; same-node pairs use the intra-node cost profile")
	pace := flag.Int64("pace", 0, "pacing window in virtual ns (0 disables; must match the program's PaceWindowNs)")
	arena := flag.Int("arena", 0, "per-rank registered-memory arena bytes (mp and hybrid backends; 0 = the 16 MiB default)")
	backend := flag.String("backend", "mp", "cross-process backend: mp (shared memory, one machine), net (TCP, inter-node) or hybrid (shm within a host, TCP across)")
	hosts := flag.String("hosts", os.Getenv("FOMPI_HOSTS"),
		"comma-separated machines for the net and hybrid backends; non-empty switches to host-list mode, where the operator starts one worker per rank remotely (default from FOMPI_HOSTS)")
	listen := flag.String("listen", "", "net coordinator listen address: an IP address or an /etc/hosts name, and a port (host-list mode defaults to :7077, loopback to 127.0.0.1:0)")
	tag := flag.Bool("tag", true, "prefix each spawned rank's stdout/stderr with [rank N]")
	joinTimeout := flag.Duration("join-timeout", 0,
		"net/hybrid rendezvous deadline: fail with the list of missing ranks if the world has not assembled by then (0 = the 60 s default)")
	faults := flag.String("faults", os.Getenv(faultnet.EnvVar),
		"fault-injection spec for the net/hybrid wire, e.g. 'seed=7,delayp=0.1,delaymax=20ms,resetafter=400' (default from "+faultnet.EnvVar+"; see internal/faultnet)")
	netTimeouts := flag.String("net-timeouts", os.Getenv(rankio.EnvTimeouts),
		"failure-model timing spec of every backend's control plane, e.g. 'heartbeat=500ms,stale=3s': the coordinator PINGs every heartbeat and declares a rank silent for stale dead; the net/hybrid wire's budget and a rank's idle cutoff are stale + 2×heartbeat (default from "+rankio.EnvTimeouts+"; absent keys keep the 2s/10s defaults)")
	stats := flag.Bool("stats", os.Getenv(telemetry.EnvVar) != "" && os.Getenv(telemetry.EnvVar) != "0",
		"enable telemetry on any backend: the launcher prints each rank's JSON stats line as it arrives and publishes the merged world aggregate (default from "+telemetry.EnvVar+")")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fompi-run [flags] program [args...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if spmd.WorkerOf() != "" {
		fmt.Fprintln(os.Stderr, "fompi-run: refusing to nest inside a cross-process world")
		os.Exit(2)
	}
	if !slices.Contains(spmd.CrossBackends(), spmd.Backend(*backend)) {
		fmt.Fprintf(os.Stderr, "fompi-run: unknown backend %q (want one of %v)\n", *backend, spmd.CrossBackends())
		os.Exit(2)
	}
	if *faults != "" {
		if _, err := faultnet.Parse(*faults); err != nil {
			fmt.Fprintf(os.Stderr, "fompi-run: -faults: %v\n", err)
			os.Exit(2)
		}
		// Spawned workers inherit the environment, so the whole world —
		// launcher dials included — runs under the same fault profile.
		os.Setenv(faultnet.EnvVar, *faults)
	}
	if *netTimeouts != "" {
		if _, err := rankio.ParseTimeouts(*netTimeouts); err != nil {
			fmt.Fprintf(os.Stderr, "fompi-run: -net-timeouts: %v\n", err)
			os.Exit(2)
		}
		// Same inheritance pattern as -faults: Launch re-resolves and
		// re-exports the fully resolved spec for the spawned workers.
		os.Setenv(rankio.EnvTimeouts, *netTimeouts)
	}
	if *stats {
		// Same inheritance pattern as -faults: spawned workers read the
		// environment. The coordinator needs no flag of its own: it merges
		// whatever STATS lines the workers send.
		os.Setenv(telemetry.EnvVar, "1")
	}

	var hostList []string
	if *hosts != "" {
		hostList = strings.Split(*hosts, ",")
	}
	os.Setenv("FOMPI_BACKEND", *backend)
	err := spmd.Launch(spmd.Config{
		Backend:        spmd.Backend(*backend),
		Ranks:          *np,
		RanksPerNode:   *ppn,
		PaceWindowNs:   *pace,
		MPArenaBytes:   *arena,
		MPRelaunch:     flag.Args(),
		NetListen:      *listen,
		NetHosts:       hostList,
		NetTagOutput:   *tag,
		NetJoinTimeout: *joinTimeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fompi-run: %v\n", err)
		os.Exit(rankio.ExitCode(err))
	}
}
