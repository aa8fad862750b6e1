package main

import (
	"slices"

	"fompi/internal/spmd"
)

// workload is one world configuration the script runs in (see README.md,
// "Workloads").
type workload struct {
	name    string
	why     string
	backend spmd.Backend
	ranks   int
	rpn     int   // ranks per virtual node
	targets []int // the ranks rank 0 addresses; one op touches each of them once
	// kinds are the kinds an untraced run measures. The four RMA workloads
	// spend it on the kinds behind the bounded metrics; the two worlds at
	// scale on what they exist for.
	kinds []kind
	// gated workloads are named in BENCHMARK.json, whose contract has every
	// workload hold every bound. No typical timing holds one on the two wire
	// worlds of a shared 2-vCPU host, and the kinds the worlds at scale are
	// for hold none cross-process, so those four run in the full set only
	// (README.md, "Gated and not").
	gated bool
	// htInserts is the paced hashtable's inserts per rank per repetition; 0
	// for a workload that launches no hashtable world.
	htInserts int
}

// gatedKinds are the kinds behind the bounded end-to-end metrics.
var gatedKinds = []kind{kPut, kGet, kAmo, kRate, kBw}

var workloads = []workload{
	{name: "proc_rma", backend: spmd.BackendInProc, ranks: 2, rpn: 1, targets: []int{1}, kinds: gatedKinds, gated: true,
		why: "in-process, 2 ranks on 2 nodes: endpoint issue, stamps and region lookup are the whole cost; the single-process baseline the three transport workloads are read against"},
	{name: "mp_rma", backend: spmd.BackendMP, ranks: 2, rpn: 1, targets: []int{1}, kinds: gatedKinds, gated: true,
		why: "2 OS processes over the mprun shared arena: the same ops through mprun's mapping of the targets' windows; the TCP wire is bypassed, so a wire change must leave it flat; set-up is spawn and rendezvous"},
	{name: "net_rma", backend: spmd.BackendNet, ranks: 2, rpn: 1, targets: []int{1}, kinds: gatedKinds,
		why: "2 OS processes over netrun on host loopback TCP: session, window, wire and service carry pipelined writes (put rate, bandwidth) beside blocking reads (get, fetch-op)"},
	{name: "hybrid_rma", backend: spmd.BackendHybrid, ranks: 3, rpn: 2, targets: []int{1, 2}, kinds: gatedKinds,
		why: "3 OS processes, loopback: every op goes to rank 1 through the shared arena and to rank 2 over the wire, the hybridrun splice path that runs nowhere else"},
	{name: "proc_sync", backend: spmd.BackendInProc, ranks: 256, rpn: 4, targets: []int{255}, kinds: []kind{kFence, kColl, kLockAll},
		why: "in-process world at p=256, 4 ranks a node: global synchronisation at scale; core sync, spmd/wordcoll collectives and simnet doorbells do the work, the data path and every wire none"},
	{name: "proc_apps", backend: spmd.BackendInProc, ranks: 64, rpn: 4, targets: []int{63}, kinds: []kind{kHalo}, htInserts: 256,
		why: "in-process world at p=64, 4 ranks a node: contended CAS chains of the paced hashtable load the simnet pacing tracker and the stencil loads the notification rings"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// isTarget reports whether rank 0 addresses rank in the RMA kinds.
func (wl *workload) isTarget(rank int) bool {
	for _, t := range wl.targets {
		if t == rank {
			return true
		}
	}
	return false
}

// inproc reports whether every rank shares this process (and so one
// telemetry registry, one heap and one monotonic clock).
func (wl *workload) inproc() bool { return wl.backend == spmd.BackendInProc }

// spmdConfig is the world's launch configuration. Cross-process worlds
// re-execute argv as their worker ranks.
func (wl *workload) spmdConfig(paceNs int64, argv []string) spmd.Config {
	return spmd.Config{
		Ranks: wl.ranks, RanksPerNode: wl.rpn, Backend: wl.backend,
		PaceWindowNs: paceNs, MPRelaunch: argv, MPArenaBytes: 8 << 20,
	}
}

// measures reports whether an untraced run of the workload times kind k.
func (wl *workload) measures(k kind) bool { return slices.Contains(wl.kinds, k) }
