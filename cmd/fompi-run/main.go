// Command fompi-run launches an SPMD program on a cross-process backend:
// the mpirun/srun equivalent of the simulated toolchain.
//
//	fompi-run -np 4 -ppn 2 ./myprog args...                    # shared memory (mp)
//	fompi-run -np 4 -backend net ./myprog args...              # TCP, loopback spawn
//	fompi-run -np 4 -backend net -hosts a,b -listen :7077 ./myprog
//	fompi-run -np 4 -ppn 2 -backend hybrid ./myprog args...    # shm within a host, TCP across
//
// With -backend mp (the default) it creates the shared-memory world and
// executes the target binary once per rank; with -backend net it runs the
// inter-node TCP coordinator, spawning the ranks locally (loopback mode) or
// — when -hosts is given (or FOMPI_HOSTS is set) — waiting for workers the
// operator starts on each listed machine with FOMPI_NET_COORD pointing back
// at the coordinator. -backend hybrid runs the same coordinator but groups
// ranks by host key: co-located ranks share an mmap arena (shared-memory
// windows work across their processes), off-host ranks talk TCP. In loopback
// mode the hybrid launcher emulates one host per virtual node; in host-list
// mode each worker's environment carries FOMPI_HYB_WORLD=1 and the host's
// FOMPI_NET_HOST.
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
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fompi/internal/faultnet"
	"fompi/internal/hybridrun"
	"fompi/internal/mprun"
	"fompi/internal/netrun"
	"fompi/internal/rankio"
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
	listen := flag.String("listen", "", "net coordinator listen address (host-list mode defaults to :7077, loopback to 127.0.0.1:0)")
	tag := flag.Bool("tag", true, "prefix each spawned rank's stdout/stderr with [rank N]")
	joinTimeout := flag.Duration("join-timeout", 0,
		"net/hybrid rendezvous deadline: fail with the list of missing ranks if the world has not assembled by then (0 = the 60 s default)")
	faults := flag.String("faults", os.Getenv(faultnet.EnvVar),
		"fault-injection spec for the net/hybrid wire, e.g. 'seed=7,delayp=0.1,delaymax=20ms,resetafter=400' (default from "+faultnet.EnvVar+"; see internal/faultnet)")
	netTimeouts := flag.String("net-timeouts", os.Getenv(netrun.EnvTimeouts),
		"net/hybrid failure-model timing spec, e.g. 'heartbeat=500ms,stale=3s,optimeout=2s,ctlidle=6s' (default from "+netrun.EnvTimeouts+"; zero-value keys keep the defaults)")
	stats := flag.Bool("stats", os.Getenv(telemetry.EnvVar) != "" && os.Getenv(telemetry.EnvVar) != "0",
		"enable telemetry: each rank dumps a JSON stats line at exit and the coordinator publishes the merged world aggregate (default from "+telemetry.EnvVar+")")
	debugAddr := flag.String("debug-addr", os.Getenv(telemetry.EnvDebugAddr),
		"bind an HTTP observability listener (expvar under /debug/vars, pprof under /debug/pprof/) in every world process, e.g. 127.0.0.1:0 (default from "+telemetry.EnvDebugAddr+")")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fompi-run [flags] program [args...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if mprun.IsWorker() || netrun.IsWorker() {
		fmt.Fprintln(os.Stderr, "fompi-run: refusing to nest inside a cross-process world")
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
		if _, err := netrun.ParseTimeouts(*netTimeouts); err != nil {
			fmt.Fprintf(os.Stderr, "fompi-run: -net-timeouts: %v\n", err)
			os.Exit(2)
		}
		// Same inheritance pattern as -faults: Launch re-resolves and
		// re-exports the fully resolved spec for the spawned workers.
		os.Setenv(netrun.EnvTimeouts, *netTimeouts)
	}
	if *stats {
		// Same inheritance pattern as -faults: spawned workers read the
		// environment; the launcher-side coordinator flips its own flag too
		// so it aggregates the STATS frames the workers will send.
		os.Setenv(telemetry.EnvVar, "1")
		telemetry.SetEnabled(true)
	}
	if *debugAddr != "" {
		os.Setenv(telemetry.EnvDebugAddr, *debugAddr)
	}

	var hostList []string
	if *hosts != "" {
		hostList = strings.Split(*hosts, ",")
	}
	var err error
	switch *backend {
	case "mp":
		if hostList != nil {
			fmt.Fprintln(os.Stderr, "fompi-run: -hosts requires -backend net (shared memory is one machine)")
			os.Exit(2)
		}
		os.Setenv("FOMPI_BACKEND", "mp")
		err = mprun.Launch(mprun.Options{
			Ranks:        *np,
			RanksPerNode: *ppn,
			PaceWindowNs: *pace,
			ArenaBytes:   *arena,
			Relaunch:     flag.Args(),
			TagOutput:    *tag,
		})
	case "net":
		os.Setenv("FOMPI_BACKEND", "net")
		err = netrun.Launch(netrun.Options{
			Ranks:        *np,
			RanksPerNode: *ppn,
			PaceWindowNs: *pace,
			Listen:       *listen,
			Hosts:        hostList,
			Relaunch:     flag.Args(),
			TagOutput:    *tag,
			JoinTimeout:  *joinTimeout,
		})
	case "hybrid":
		os.Setenv("FOMPI_BACKEND", "hybrid")
		err = hybridrun.Launch(hybridrun.Options{
			Net: netrun.Options{
				Ranks:        *np,
				RanksPerNode: *ppn,
				PaceWindowNs: *pace,
				Listen:       *listen,
				Hosts:        hostList,
				Relaunch:     flag.Args(),
				TagOutput:    *tag,
				JoinTimeout:  *joinTimeout,
			},
			ArenaBytes: *arena,
		})
	default:
		fmt.Fprintf(os.Stderr, "fompi-run: unknown backend %q (want mp, net or hybrid)\n", *backend)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fompi-run: %v\n", err)
		os.Exit(rankio.ExitCode(err))
	}
}
