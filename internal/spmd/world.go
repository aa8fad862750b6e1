// Package spmd runs single-program-multiple-data rank programs over a
// transport backend: the stand-in for the job launcher plus the process
// runtime that foMPI inherits from Cray MPI. Config.Backend selects between
// two transports: the default in-process fabric (rank 0 is Run's caller, each
// other rank a reused goroutine, over internal/simnet's Fabric) and the process
// transport (internal/netrun: each rank an OS process, host-mates reached
// through a shared-memory arena and everyone else over a TCP wire), whose
// three backend names are three placements of the ranks on hosts — mp, all on
// one; net, each on its own; hybrid, by machine. Every process world runs on
// one control plane (internal/rankio): a rank process learns its world from
// FOMPI_COORD and FOMPI_RANK, and telemetry aggregation (FOMPI_STATS), the
// failure-model timing spec (FOMPI_NET_TIMEOUTS) and heartbeat liveness work
// the same on all of them.
// Each rank receives a fabric endpoint, a standing scratch region of a size
// that does not depend on p (the word collectives' header), and its own
// virtual clock.
// Collectives (dissemination barrier, binomial broadcast, recursive-doubling
// allreduce, and a ring allgather over an area it registers per call) are
// implemented with one-sided fabric operations so their virtual
// cost is whatever the executed communication pattern costs — O(log p)
// rounds, not a formula — and is bit-identical across backends.
package spmd

import (
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"fompi/internal/netrun"
	"fompi/internal/rankio"
	"fompi/internal/segpool"
	"fompi/internal/simnet"
	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

// Backend selects the transport substrate of a world.
type Backend string

const (
	// BackendInProc runs the ranks in this process — rank 0 on Run's calling
	// goroutine, the rest on rank workers reused from world to world — over
	// the in-process simnet fabric: the default, and the only backend the
	// perf harness measures.
	BackendInProc Backend = "proc"
	// BackendMP runs each rank as an OS process, all on one host key:
	// registered memory and the doorbells live in one mmap-shared segment
	// (the XPMEM-style fast path made real; a parked host-mate is woken by
	// futex on it) and only the control stream is a Unix socket. Virtual
	// time stays in the timing layer, so results are bit-identical to
	// BackendInProc.
	BackendMP Backend = netrun.BackendMP
	// BackendNet runs each rank as an OS process with a host key of its own,
	// on (potentially) a different machine: every remote-memory operation
	// travels as a framed message over TCP to the owning rank's service
	// loop. Results remain bit-identical to the other backends.
	BackendNet Backend = netrun.BackendNet
	// BackendHybrid places ranks by the machine they run on: ranks sharing a
	// physical host (by rendezvoused host key; one emulated host per virtual
	// node when spawned) map one shared arena — direct loads/stores and
	// working shared windows, as on BackendMP — while off-host ranks are
	// reached over BackendNet's wire. Results remain bit-identical to the
	// other backends.
	BackendHybrid Backend = netrun.BackendHybrid
)

// Config describes a world: the rank count, node width and the cost model of
// the transport layer under test.
type Config struct {
	Ranks        int
	RanksPerNode int
	Model        *simnet.CostModel
	// PaceWindowNs bounds virtual-clock divergence between ranks (see
	// simnet.Fabric.SetPacing); 0 disables pacing.
	PaceWindowNs int64

	// Backend selects the transport substrate; empty means BackendInProc.
	Backend Backend
	// MPArenaBytes sizes each rank's registered-memory arena where it shares
	// one with host-mates: every mp rank, a hybrid rank that is not alone on
	// its host (default 16 MiB).
	MPArenaBytes int
	// MPRelaunch is the argv the multi-process backends (mp and net
	// loopback mode) re-execute as worker ranks; nil re-executes this
	// process's own command line, which is correct for SPMD programs whose
	// main reaches the same Run call. Test harnesses set it to target one
	// test (e.g. os.Args[0] plus a -test.run pattern).
	MPRelaunch []string
	// NetListen is the inter-node coordinator's listen address (BackendNet
	// only); empty selects loopback spawn mode, where the launcher
	// re-executes MPRelaunch once per rank on this machine.
	NetListen string
	// NetHosts, when non-empty, puts the net and hybrid backends in host-list
	// mode: the launcher only coordinates, and the operator starts one
	// worker per rank across the listed machines with FOMPI_COORD set (see
	// internal/rankio and cmd/fompi-run).
	NetHosts []string
	// NetTagOutput prefixes spawned ranks' stdout/stderr with "[rank N]"
	// (every cross-process backend's spawn mode; cmd/fompi-run sets it).
	NetTagOutput bool
	// NetJoinTimeout bounds the rendezvous on the net/hybrid backends: how
	// long the coordinator waits for all ranks to join before failing with
	// a typed error naming the absent ranks (see rankio.ErrJoinTimeout).
	// Zero keeps the 60 s default.
	NetJoinTimeout time.Duration
}

// defaultModel is every launch's model when its Config names none: one
// shared value, since a cost model is never written once built.
var defaultModel = simnet.FoMPI()

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.RanksPerNode <= 0 {
		c.RanksPerNode = 1
	}
	if c.Model == nil {
		c.Model = defaultModel
	}
	if c.Backend == "" {
		c.Backend = BackendInProc
	}
	return c
}

// World is the shared state of one SPMD run. Per-rank collective scratch —
// the O(log p) collective header's registered bytes plus shadow stamps, the
// same size whatever p — comes from the transport's segment allocator (the
// shared pool in process, the rank's shared-memory arena on the multi-process
// backend), and the per-rank handles (procs, endpoints, scratch regions) are
// slab-allocated. An in-process world that ends cleanly
// is kept for the next launch of its shape (see reuse): worlds are created
// per experiment repetition in the bench sweeps, so a launch resets the
// last one instead of building a fabric, its endpoints and scratch anew.
type World struct {
	cfg     Config
	fab     simnet.Transport
	scratch []simnet.Region // per-rank collective scratch, fabric key 0

	// In process only: the fabric, the slabs and the scratch backing that
	// reset reuses.
	inproc *simnet.Fabric
	eps    []simnet.Endpoint
	procs  []Proc
	segs   []*segpool.Seg

	// The launch running on the world: its body, the ranks 1…p−1 still
	// running it, and the first rank panic.
	body     func(*Proc)
	running  sync.WaitGroup
	mu       sync.Mutex
	firstErr error
}

// A worldShape is what a kept in-process world can serve: everything reset
// does not set from the launch's Config.
type worldShape struct{ ranks, ranksPerNode int }

// kept holds the in-process worlds that ended cleanly, a sync.Pool per shape
// — segpool's idiom: it drains under GC, so an idle world pins nothing.
var kept sync.Map

func keptFor(cfg Config) *sync.Pool {
	sh := worldShape{cfg.Ranks, cfg.RanksPerNode}
	if p, ok := kept.Load(sh); ok {
		return p.(*sync.Pool)
	}
	p, _ := kept.LoadOrStore(sh, &sync.Pool{})
	return p.(*sync.Pool)
}

// reset makes w the fresh in-process world cfg describes and returns its
// procs. A zero World builds what it lacks — the fabric, the slabs, the
// scratch segments — and a kept one resets them in place: the fabric to its
// NewFabric state (ports, directories, abort state, parker), every endpoint
// to a new one under cfg's model and pacing, every proc to collective
// sequence 0, and the scratch, scrubbed when the last world ended, registered
// again at key 0.
func (w *World) reset(cfg Config) []Proc {
	w.cfg = cfg
	if w.inproc == nil {
		w.inproc = simnet.NewFabric(cfg.Ranks, cfg.RanksPerNode)
		w.fab = w.inproc
		w.scratch = make([]simnet.Region, cfg.Ranks)
		w.procs = make([]Proc, cfg.Ranks)
		w.segs = make([]*segpool.Seg, cfg.Ranks)
	} else {
		w.inproc.Reset()
	}
	w.inproc.SetPacing(cfg.PaceWindowNs)
	w.eps = w.inproc.Endpoints(w.eps, cfg.Model)
	for r := range w.procs {
		p := &w.procs[r]
		*p = Proc{world: w, rank: r, ep: &w.eps[r]}
		if w.segs[r] == nil {
			w.segs[r] = w.fab.AllocSeg(r, hdrBytes)
		}
		p.ep.RegisterBufStampsInto(&w.scratch[r], w.segs[r].Buf, w.segs[r].St)
	}
	return w.procs
}

// reuse keeps a world whose every rank's body returned cleanly for the next
// launch of its shape. An aborted world is never kept: its ranks may still
// be unwinding with references into it. Scratch is written exclusively by
// stamping fabric operations (collective flags and payloads), so the scrub
// wipes only the parts the run touched.
func (w *World) reuse() {
	for _, s := range w.segs {
		segpool.Scrub(s)
	}
	w.body = nil
	keptFor(w.cfg).Put(w)
}

// Proc is one rank's handle: its endpoint, scratch region, and collective
// sequence state. A Proc is confined to its rank's goroutine.
type Proc struct {
	world *World
	rank  int
	ep    *simnet.Endpoint
	seq   uint64 // collective invocation number; identical across ranks
}

// CrossBackends lists the cross-process backends: the process transport's
// three placements.
func CrossBackends() []Backend { return []Backend{BackendMP, BackendNet, BackendHybrid} }

// WorkerOf reports which backend's world this process was started as a rank
// of — by that backend's launcher or, in host-list mode, by the operator —
// and "" in any other process. It is the one "am I a worker" query: FOMPI_COORD
// names the backend, and the coordinator refuses a JOIN under another name.
func WorkerOf() Backend { return Backend(rankio.WorkerBackend()) }

// Run launches cfg.Ranks ranks executing body and waits for all of them.
// On the default in-process backend rank 0 runs on the calling goroutine and
// the other ranks on rank workers: goroutines that park between worlds and
// run the next world's ranks, never more of them than this process's
// in-process worlds have had ranks running at one time. If any rank panics,
// the fabric is aborted (unblocking the others, the caller included) and the
// first panic is returned as an error.
//
// On a cross-process backend the calling process becomes the launcher: it
// re-executes itself (or cfg.MPRelaunch) once per rank, coordinates the
// worker processes, and returns their collected status. In a worker process
// — a Run whose backend is the one WorkerOf names — Run executes body for the
// worker's single rank and then calls os.Exit, so code after such a Run
// executes only in the launcher. BackendInProc runs are unaffected by the
// environment, so worker bodies may still create nested in-process worlds.
// Programs meant to be launched by cmd/fompi-run therefore select their
// backend from the environment, conventionally via fompi.BackendFromEnv (the
// launcher exports FOMPI_BACKEND), as the examples do.
//
// On clean exit the per-rank scratch segments are recycled into the
// transport's segment allocator and may back an unrelated future world: body
// must not leak goroutines that touch the world after returning.
func Run(cfg Config, body func(*Proc)) error {
	cfg = cfg.withDefaults()
	if cfg.Backend == BackendInProc {
		return runInProc(cfg, body)
	}
	if cfg.Backend == WorkerOf() {
		runCrossWorker(cfg, body) // calls os.Exit; never returns
	}
	return Launch(cfg)
}

// Launch creates cfg's cross-process world and coordinates it to the end,
// whatever world this process may itself be a rank of: the launcher half of
// Run, and what cmd/fompi-run calls.
func Launch(cfg Config) error {
	return netrun.Launch(crossOptions(cfg.withDefaults()))
}

// crossOptions is cfg as the process transport takes it.
func crossOptions(cfg Config) rankio.Options {
	return rankio.Options{
		Backend:      string(cfg.Backend),
		Ranks:        cfg.Ranks,
		RanksPerNode: cfg.RanksPerNode,
		PaceWindowNs: cfg.PaceWindowNs,
		ArenaBytes:   cfg.MPArenaBytes,
		Listen:       cfg.NetListen,
		Hosts:        cfg.NetHosts,
		Relaunch:     cfg.MPRelaunch,
		TagOutput:    cfg.NetTagOutput,
		JoinTimeout:  cfg.NetJoinTimeout,
	}
}

// runCrossWorker joins this process to its cross-process world, executes body
// as its single rank and exits the process: status 0 after a clean run,
// nonzero after a panic (reported to the launcher over the control channel
// first) or a failed bootstrap.
func runCrossWorker(cfg Config, body func(*Proc)) {
	// A terminal's Ctrl-\ reaches the whole foreground process group, spawned
	// ranks included. A rank leaves SIGQUIT to its launcher, whose coordinator
	// answers it with a DUMP on every control stream, so asking a world what
	// it is doing does not kill it.
	signal.Ignore(syscall.SIGQUIT)
	cw, err := netrun.Join(crossOptions(cfg))
	if err != nil {
		fmt.Fprintf(os.Stderr, "spmd: worker failed to join its %s world: %v\n", cfg.Backend, err)
		os.Exit(1)
	}
	rank := cw.Rank()
	w := &World{cfg: cfg, fab: cw, scratch: make([]simnet.Region, cfg.Ranks)}
	p := &Proc{world: w, rank: rank, ep: simnet.NewEndpoint(cw, rank, cfg.Model)}
	// The scratch registration must be this process's first so its key is 0
	// on every rank, the symmetric-key property the collectives assume.
	seg := cw.AllocSeg(rank, hdrBytes)
	p.ep.RegisterBufStampsInto(&w.scratch[rank], seg.Buf, seg.St)
	if err := cw.Ready(); err != nil { // barrier: every rank's scratch is addressable
		fmt.Fprintf(os.Stderr, "spmd: rank %d: %v\n", rank, err)
		os.Exit(1)
	}
	// guard runs fn, reporting a panic to the launcher in its terms.
	guard := func(fn func()) (ok bool) {
		defer func() {
			if e := recover(); e != nil {
				// Two shapes of death, reported in launcher terms: the
				// world's abort (a symptom, reported with the canonical text
				// the coordinator recognizes: only its verdict names a dead
				// peer), or this rank's own panic.
				if simnet.IsAbortPanic(e) {
					cw.Fail(rankio.PeerAbortMsg)
				} else {
					cw.Fail(fmt.Sprintf("rank %d panicked: %v", rank, e))
				}
				ok = false
			}
		}()
		fn()
		return true
	}
	ok := guard(func() { body(p) })
	// Finish is guarded too: it completes the body's queued remote stores
	// before reporting DONE, which can meet a lost peer like any other op.
	if !ok || !guard(cw.Finish) {
		os.Exit(1)
	}
	os.Exit(0)
}

// runInProc runs the in-process world: rank 0 is the calling goroutine and
// ranks 1…p−1 run on reused rank workers (goRank), so a launch pays no
// spawn-and-hand-off before its first rank runs, its other ranks start on
// stacks an earlier world already grew, and a one-rank world starts no
// goroutine at all. Every rank, the caller's included, runs under runRank. A
// rank's own panic blames it, so its peers unwind with an
// *simnet.ErrPeerFailed naming it, as a process world's do after the verdict;
// an abort symptom blames nobody. Once every rank has returned, clean or
// aborted, the world disarms its parker's heartbeats, and a clean world is
// kept for the next launch of its shape.
func runInProc(cfg Config, body func(*Proc)) error {
	w, _ := keptFor(cfg).Get().(*World)
	if w == nil {
		w = new(World)
	}
	return w.run(cfg, body)
}

// run resets w to the fresh world cfg describes and runs body on it:
// runInProc's launch on the world it took.
func (w *World) run(cfg Config, body func(*Proc)) error {
	procs := w.reset(cfg)
	w.body, w.firstErr = body, nil
	w.running.Add(len(procs) - 1)
	for r := 1; r < len(procs); r++ {
		goRank(&procs[r])
	}
	w.runRank(&procs[0])
	w.running.Wait()
	w.inproc.Parker().Stop()
	err := w.firstErr
	if err == nil && !w.inproc.Aborted() {
		w.reuse()
	}
	// The in-process world has no coordinator to aggregate per-rank frames:
	// every rank shares this process's registry, so one capture *is* the
	// world total.
	if telemetry.On() {
		telemetry.Publish(telemetry.Capture(-1))
	}
	return err
}

// runRank runs the launch's body as p's rank. A panic blames p's rank unless
// it is an abort symptom, is the launch's error if it is the first rank panic,
// and aborts the fabric.
func (w *World) runRank(p *Proc) {
	defer func() {
		if e := recover(); e != nil {
			culprit := -1
			if !simnet.IsAbortPanic(e) {
				culprit = p.rank
			}
			w.mu.Lock()
			if w.firstErr == nil && culprit >= 0 {
				w.firstErr = fmt.Errorf("rank %d panicked: %v", p.rank, e)
			}
			w.mu.Unlock()
			w.inproc.Abort(culprit)
		}
	}()
	w.body(p)
}

// A rankWorker is a goroutine that runs in-process ranks, one world's after
// another. A worker whose rank has returned parks on idleWorkers until a
// launch hands it the next one, so ranks 1…p−1 start on stacks an earlier
// world already grew instead of regrowing fresh ones inside their first
// collective. Nothing else bounds the list: it holds only workers that once
// ran a rank, so never more than the most ranks this process's in-process
// worlds have had running at one time, and the GC shrinks a stack a rank grew
// back down to about 4 KiB while its worker is idle.
type rankWorker struct {
	next chan *Proc // buffered: a launch never waits for the worker to reach its receive
}

var idleWorkers struct {
	mu   sync.Mutex
	list []*rankWorker
}

// goRank runs p's rank on the most recently parked idle worker, or on a new
// one when none is parked; the worker marks it done in p's world once it has
// returned.
func goRank(p *Proc) {
	idleWorkers.mu.Lock()
	if n := len(idleWorkers.list); n > 0 {
		w := idleWorkers.list[n-1]
		idleWorkers.list[n-1] = nil
		idleWorkers.list = idleWorkers.list[:n-1]
		idleWorkers.mu.Unlock()
		w.next <- p
		return
	}
	idleWorkers.mu.Unlock()
	w := &rankWorker{next: make(chan *Proc, 1)}
	go w.loop(p)
}

// loop runs p's rank and then every rank a launch hands the worker. The
// worker is back on the list before it marks its rank done, so a launch that
// follows the end of its world finds it there. A rank recovers its own
// panics, so the deferred Done is reached only when a rank body calls
// runtime.Goexit: that ends the worker, and its rank still counts as
// returned.
func (w *rankWorker) loop(p *Proc) {
	defer func() { p.world.running.Done() }()
	for {
		p.world.runRank(p)
		world := p.world
		p = nil // an idle worker keeps no world reachable
		idleWorkers.mu.Lock()
		idleWorkers.list = append(idleWorkers.list, w)
		idleWorkers.mu.Unlock()
		world.running.Done()
		p = w.idle()
	}
}

// idle parks the worker until a launch hands it a rank; a goroutine dump
// shows an idle worker by this frame.
func (w *rankWorker) idle() *Proc { return <-w.next }

// MustRun is Run but panics on error; benchmarks and examples use it.
func MustRun(cfg Config, body func(*Proc)) {
	if err := Run(cfg, body); err != nil {
		panic(err)
	}
}

// Rank returns this proc's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of ranks in the world.
func (p *Proc) Size() int { return p.world.cfg.Ranks }

// Node returns the node index hosting this rank: the node mapping is
// virtual, rank / RanksPerNode on every backend, so the cost model (and with
// it every virtual time) does not depend on placement.
func (p *Proc) Node() int { return p.rank / p.world.cfg.RanksPerNode }

// SameNode reports whether peer shares this rank's node.
func (p *Proc) SameNode(peer int) bool { return peer/p.world.cfg.RanksPerNode == p.Node() }

// EP exposes the rank's fabric endpoint to protocol layers.
func (p *Proc) EP() *simnet.Endpoint { return p.ep }

// Fabric returns the world's transport backend (for layers that open extra
// endpoints, e.g. baselines measured over the same hardware).
func (p *Proc) Fabric() simnet.Transport { return p.world.fab }

// Now returns the rank's virtual clock.
func (p *Proc) Now() timing.Time { return p.ep.Now() }

// Compute charges ns nanoseconds of local computation.
func (p *Proc) Compute(ns int64) { p.ep.Compute(ns) }

// scratchOf returns the collective scratch region of rank r. Only the
// caller's own rank's region may be dereferenced (on the multi-process
// backend other ranks' handles are zero); remote scratch is addressed by
// (rank, key 0) fabric addresses.
func (p *Proc) scratchOf(r int) *simnet.Region { return &p.world.scratch[r] }
