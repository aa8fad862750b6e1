// Package netrun is the process transport: each rank of an SPMD world is an
// OS process, and one World routes every operation per target rank, the way
// foMPI picks XPMEM or DMAPP. A world is a catalog of host keys. A rank's host
// group — the ranks with its key — shares one mmap arena (internal/mprun):
// a host-mate's memory is mapped, its port taken and its doorbell rung
// directly. Everyone else is reached over the wire: each remote-memory
// operation — put, get, atomics, notified access — travels as a
// length-prefixed message over TCP to the owner's service loop, which
// executes it against locally owned segments (simnet.RegionExec; DESIGN.md
// §9), and a rank with no host-mates maps nothing and serves its process heap.
//
// The three backend names are three ways of filling the catalog in (Launch):
// mp puts every rank on one key, net gives every rank a key of its own, hybrid
// keys ranks by the machine they run on. Every rank boots the same way,
// whoever started it (join): it inherits its control stream as descriptor 3
// and, when its host group has two ranks or more (an mp world's, whatever
// its size), the group's anonymous arena as 4, from the launcher that spawned every rank (the loopback mode,
// the CI mode) or from its host's launcher in a host-list world (LaunchHost,
// one per machine, which dialed the stream to the coordinator for it). A rank
// whose arena covers the whole world has no wire; every other rank JOINs
// with its data-listener address, finds its host group in the WORLD catalog
// and dials its peers lazily as traffic demands. No world names anything on
// disk.
//
// Everything virtual-time stays above the Transport line: the requester-side
// halves of each operation (cost-model charges, source-NIC serialization)
// run in simnet.Endpoint, the owner-side halves (byte movement, stamps,
// target-NIC booking) run inline on mapped memory and replay through
// simnet.RegionExec on the wire, and the conformance suite in
// internal/transporttest pins the results bit-identical to the in-process
// backend on every placement.
package netrun

import (
	"fmt"
	"net/netip"
	"os"
	"strings"
	"sync"
	"time"

	"fompi/internal/faultnet"
	"fompi/internal/mprun"
	"fompi/internal/rankio"
	"fompi/internal/segpool"
	"fompi/internal/simnet"
	"fompi/internal/sock"
)

// The names of the three placements, in FOMPI_COORD and in every JOIN.
const (
	BackendMP     = "mp"
	BackendNet    = "net"
	BackendHybrid = "hybrid"
)

const (
	// Peer dials retry inside peerErr (the listener may not be reachable
	// for a moment on a congested fabric, and faultnet injects exactly
	// that); dialAttempts bounds them.
	dialAttempts = 5
	dialBackoff  = 50 * time.Millisecond
)

// World is one worker's attachment to its world: the control-plane client,
// the host group's arena and the wire to everyone else, implementing
// simnet.Transport for the worker's rank.
type World struct {
	*rankio.Client
	rank int

	// The host group: lidx maps a world rank to its index among the ranks
	// that share this rank's host key (ascending), -1 off host; self is this
	// rank's. A group larger than one shares arena ar, which its launcher
	// made and this rank inherited. door is the hook waiters on the group's
	// ports park through: the arena's, or with no arena this process's
	// parker.
	lidx    []int
	self    int
	ar      *mprun.Arena
	ownPort simnet.Port
	door    simnet.ParkHook

	// mine is this rank's region directory: the one table the rank itself
	// and the service loop resolve against, which the arena's directory
	// mirrors under the same keys for host-mates.
	mine simnet.Directory

	// pacer is nil in an unpaced world. In a world with no wire it runs over
	// the arena's shared tables; otherwise its table is this process's own —
	// the rank's entry is its published clock, a peer's the last one heard, on
	// every request's piggyback or fetched by refreshClock — and park is where
	// this process's goroutines sleep, pace-blocked or at its own door.
	pacer *simnet.Pacer
	park  *simnet.Parker

	// The wire: everything below is nil or empty in a world that has none.
	ln sock.Listener // this rank's data listener

	// peers are this rank's requester connections, dialed lazily; guarded
	// by peerMu only against the abort path's close-all (requests
	// themselves are confined to the rank's goroutine). proxies caches
	// materialized remote views per (rank, key's slot), the newest key's
	// proxy in each; it is touched only by the rank's goroutine.
	peerMu  sync.Mutex
	peers   []*peerConn
	proxies [][]*simnet.Region

	// Session layer (session.go): this process's session identity, the
	// requester half of each per-owner session, and the owner-side session
	// table serving replays from every peer.
	sid      uint64
	rsess    []reqSession
	sessMu   sync.Mutex
	sessions map[uint64]*ownerSession

	// Inbound service tracking: every accepted data-plane connection and
	// its serveConn goroutine, so Finish/Fail can stop the service and
	// guarantee no remote op touches local memory afterwards.
	svcMu     sync.Mutex
	svcConns  map[sock.Conn]struct{}
	svcClosed bool
	svcWg     sync.WaitGroup

	// budget is the whole deadline of every data-plane wire call, and of the
	// owner's reply write (rankio.Timeouts.SilenceBudget): the coordinator's
	// verdict on a silent peer arrives inside it.
	budget time.Duration
}

// Launch creates the world o.Backend names and coordinates it to the end,
// returning nil only if every rank finished cleanly. The name decides the
// catalog of host keys and nothing else; from here on only the
// coordinator's JOIN admission reads it.
func Launch(o rankio.Options) error {
	if err := faultnet.Check(); err != nil {
		return fmt.Errorf("netrun: %w", err)
	}
	spawned := len(o.Hosts) == 0
	perKey := 0 // consecutive ranks the launcher puts on one key; 0 leaves each rank the key it resolves
	switch o.Backend {
	case BackendMP:
		if !spawned {
			return fmt.Errorf("netrun: a host list needs the net or hybrid backend (shared memory is one machine)")
		}
		perKey = max(o.Ranks, 1)
	case BackendNet:
		perKey = 1
	case BackendHybrid:
		// One emulated host per virtual node: both planes of a multi-host
		// deployment on one machine. Host-list ranks bring their own keys.
		if spawned {
			perKey = max(o.RanksPerNode, 1)
		}
	default:
		return fmt.Errorf("netrun: unknown backend %q", o.Backend)
	}
	if perKey > 0 {
		o.HostKeys = make([]string, o.Ranks)
		for r := range o.HostKeys {
			o.HostKeys[r] = fmt.Sprintf("h%d", r/perKey)
		}
	}
	if !spawned {
		return launchHostList(o)
	}
	if n := min(perKey, o.Ranks); n > mprun.MaxRanks {
		return fmt.Errorf("netrun: %d ranks on one key exceed the limit of %d for one arena (use the in-process backend for large worlds)", n, mprun.MaxRanks)
	}
	return launchSpawned(o)
}

// launchSpawned runs a world whose ranks this launcher starts itself: one
// socketpair per rank, and one anonymous arena per host key that holds two
// ranks or more — and an mp world's one key whatever its size, so that an
// mp rank never opens a wire. Rank r inherits its end of its pair and its group's arena
// (rankio.CoordinateInherited); the launcher's end of a net or hybrid rank's
// stream runs under faultnet's control-plane faults, as a dialed stream
// would. The world names nothing on disk: a launcher killed at any point
// strands no file, and the ranks see their streams end.
func launchSpawned(o rankio.Options) error {
	shared := make([]*os.File, o.Ranks)
	for lo, hi := 0, 0; lo < o.Ranks; lo = hi {
		for hi = lo; hi < o.Ranks && o.HostKeys[hi] == o.HostKeys[lo]; hi++ {
		}
		if hi-lo < 2 && o.Backend != BackendMP {
			continue
		}
		mem, err := mprun.CreateAnon(arenaCfg(o, hi-lo))
		if err != nil {
			return err
		}
		defer mem.Close() // past the world: the ranks' mappings keep it
		for r := lo; r < hi; r++ {
			shared[r] = mem
		}
	}
	streams, kids, err := sock.Pairs(o.Ranks)
	if err != nil {
		return fmt.Errorf("netrun: control streams: %w", err)
	}
	if o.Backend != BackendMP {
		for r := range streams {
			streams[r] = faultnet.Wrap(streams[r], fmt.Sprintf("ctl rank %d", r))
		}
	}
	return rankio.CoordinateInherited(o, streams, kids, shared)
}

// launchHostList runs the coordinator of a world whose ranks host launchers
// start (LaunchHost) over a TCP listener.
func launchHostList(o rankio.Options) error {
	listen := o.Listen
	if listen == "" {
		listen = ":7077"
	}
	ln, err := sock.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("netrun: listen coordinator socket %s: %w", listen, err)
	}
	defer ln.Close()
	return rankio.Coordinate(faultnet.WrapListener(ln), o)
}

// LaunchHost is one host's launcher of a host-list world (fompi-run -join):
// it starts o.Ranks ranks here, dialing the coordinator at coord once for
// each — retrying with backoff, since the coordinator may come up after the
// hosts — and hands each its stream as descriptor 3; a hybrid world's ranks
// here also share one anonymous arena as 4 when there are two or more. The
// ranks join rankless under this host's key (rankio.HostKey), which it
// exports to them, and it returns once they have all exited
// (rankio.RunHost).
func LaunchHost(o rankio.Options, coord string) error {
	return launchHost(o, coord, rankio.HostKey())
}

func launchHost(o rankio.Options, coord, key string) error {
	if o.Backend != BackendNet && o.Backend != BackendHybrid {
		return fmt.Errorf("netrun: a host launcher runs the net or hybrid backend, not %q", o.Backend)
	}
	streams := make([]*os.File, 0, o.Ranks)
	defer func() {
		for _, f := range streams {
			f.Close() // those RunHost never handed over
		}
	}()
	for range o.Ranks {
		var ctl sock.Conn
		var err error
		for d, until := dialBackoff, time.Now().Add(rankio.BootTimeout); ; d *= 2 {
			if ctl, err = sock.Dial("tcp", coord, rankio.BootTimeout); err == nil {
				break
			}
			if time.Now().Add(d).After(until) {
				return fmt.Errorf("netrun: dial coordinator %s: %w", coord, err)
			}
			time.Sleep(d)
		}
		streams = append(streams, ctl.(*os.File))
	}
	var shared *os.File
	if o.Backend == BackendHybrid && o.Ranks >= 2 {
		mem, err := mprun.CreateAnon(arenaCfg(o, o.Ranks))
		if err != nil {
			return err
		}
		defer mem.Close()
		shared = mem
	}
	return rankio.RunHost(o, streams, shared, key)
}

// arenaCfg is the header contract of an arena ranks of o's world share.
func arenaCfg(o rankio.Options, ranks int) mprun.ArenaConfig {
	return mprun.ArenaConfig{
		Ranks:        ranks,
		RanksPerNode: o.RanksPerNode,
		PaceWindowNs: o.PaceWindowNs,
		ArenaBytes:   o.ArenaBytes,
	}
}

// Join attaches a worker process to its world and returns the Transport for
// its rank (join). The caller registers its setup regions and then calls
// Ready to enter the bootstrap barrier.
func Join(o rankio.Options) (*World, error) {
	at, rank, err := rankio.WorkerOf(o.Backend, o.Ranks)
	if err != nil {
		return nil, err
	}
	return join(o, at, rank)
}

// join is a rank's one boot, whoever started it: adopt the control stream
// and map the group's arena (descriptors at, rankio.AdoptInherited), open a
// data listener unless the arena covers the whole world, JOIN, and derive
// the host group. A rank whose arena is the world's needs nothing from the
// catalog, so when it knows its rank it binds at once and reads WORLD behind
// its READY (Client.Ready): its setup overlaps the other ranks' joins.
// Every other rank waits for WORLD here.
func join(o rankio.Options, at string, rank int) (*World, error) {
	ctl, mem, err := rankio.AdoptInherited(at)
	if err != nil {
		return nil, err
	}
	w := &World{rank: rank, lidx: make([]int, o.Ranks)}
	if err := w.boot(o, ctl, mem); err != nil {
		ctl.Close()
		if w.ar != nil {
			w.ar.Close()
		}
		if w.ln != nil {
			w.ln.Close()
		}
		return nil, err
	}
	if w.ar != nil {
		// This process's abort — its own panic, or the verdict on its control
		// stream — ends its arena parks; every host-mate hears the verdict on
		// its own stream, RANKFAIL before ABORT, and unwinds with the same
		// typed error as ranks parked on the wire.
		w.OnAbort(w.ar.Abort)
	}
	return w, nil
}

func (w *World) boot(o rankio.Options, ctl sock.Conn, mem *os.File) (err error) {
	if mem != nil {
		if w.ar, err = mprun.MapArena(mem, arenaCfg(o, 0)); err != nil {
			return err
		}
	}
	if w.ar != nil && w.ar.Ranks() == o.Ranks && w.rank >= 0 {
		if w.Client, err = rankio.Join(ctl, o, w.rank, "shm"); err != nil {
			return err
		}
		for r := range w.lidx {
			w.lidx[r] = r
		}
		w.self = w.rank
		w.bindArena()
		w.pacer = w.ar.Pacer()
		return nil
	}
	if err := w.openWire(o, ctl); err != nil {
		return err
	}
	if w.Client, err = rankio.Join(ctl, o, w.rank, w.ln.Addr()); err == nil {
		err = w.Client.World()
	}
	if err != nil {
		return err
	}
	// The session identity is minted, and the host group known, once the
	// WORLD reply has fixed the rank (a host launcher's ranks join rankless
	// and are assigned one here).
	w.rank = w.Client.Rank()
	w.sid = sidFor(w.rank, os.Getpid())
	if err := w.attachGroup(); err != nil {
		return err
	}
	if o.PaceWindowNs != 0 {
		// The one rank that parks on this table is poked by the service
		// goroutine whose piggybacked clock released it.
		hook := w.park.Hook(w.AbortErr)
		hook.Refresh = w.refreshClock
		w.pacer = simnet.NewPacer(o.PaceWindowNs, o.Ranks, nil, hook)
	}
	w.OnAbort(w.abortDataPlane)
	go w.acceptLoop()
	return nil
}

// openWire opens this rank's data listener and the wire's tables. It
// listens on the interface that reaches the coordinator — the address peers
// can reach this process at, on multi-machine deployments as on loopback —
// and on loopback when the stream is a spawning launcher's socketpair.
func (w *World) openWire(o rankio.Options, ctl sock.Conn) error {
	if err := faultnet.Check(); err != nil {
		return fmt.Errorf("netrun: %w", err)
	}
	tm, err := rankio.ResolveTimeouts()
	if err != nil {
		return err
	}
	at := "127.0.0.1:0"
	if local, err := sock.LocalAddr(ctl); err == nil {
		at = netip.AddrPortFrom(local.Addr(), 0).String()
	}
	ln, err := sock.Listen("tcp", at)
	if err != nil {
		return fmt.Errorf("netrun: listen data socket: %w", err)
	}
	// The data listener is data-plane: faultnet's plane=data scoping targets
	// it (and the requester conns dialed to it) while sparing the control
	// streams the failure detector rides on.
	w.ln = faultnet.WrapListenerData(ln)
	w.peers = make([]*peerConn, o.Ranks)
	w.proxies = make([][]*simnet.Region, o.Ranks)
	w.rsess = make([]reqSession, o.Ranks)
	w.sessions = make(map[uint64]*ownerSession)
	w.svcConns = make(map[sock.Conn]struct{})
	w.budget = tm.SilenceBudget()
	w.park = simnet.NewParker(o.Ranks)
	return nil
}

// bindArena makes the mapped arena this rank's home: its slot, its group's
// door, parked under this process's abort state.
func (w *World) bindArena() {
	w.door = w.ar.Hook()
	w.ar.Bind(w.self, w.AbortErr)
}

// attachGroup derives this rank's host group from the WORLD catalog. A group
// of one maps nothing: its port and door are the process's own. A larger one
// is the arena this rank inherited, so off-host operations, rings and waits
// arriving over the wire land on the same port, and park at the same door,
// the host-mates take directly.
func (w *World) attachGroup() error {
	hosts := w.Hosts()
	key, n := hosts[w.rank], 0
	for r, h := range hosts {
		w.lidx[r] = -1
		if h == key {
			w.lidx[r] = n
			n++
		}
	}
	w.self = w.lidx[w.rank]
	switch {
	case w.ar == nil && n == 1:
		w.door = w.park.Hook(w.AbortErr)
		return nil
	case w.ar == nil || w.ar.Ranks() != n:
		mapped := 0
		if w.ar != nil {
			mapped = w.ar.Ranks()
		}
		return fmt.Errorf("netrun: host group %q has %d ranks, this rank inherited an arena for %d (one launcher per host key)", key, n, mapped)
	}
	w.bindArena()
	return nil
}

// Finish reports clean completion and blocks until the coordinator releases
// the world, then stops the data service and releases the arena mapping.
//
// The wire is drained first: a body whose last act is a fire-class op (a
// collective that ends on a remote store) leaves it queued in the session
// builder, and DONE must not announce completion while a peer still waits
// for that store. Like every drain this panics on a lost peer, so callers
// run Finish where they would report the body's own panic.
func (w *World) Finish() {
	w.DrainWire()
	w.Client.Finish()
	w.release()
}

// Fail aborts the world and reports msg to the coordinator; the caller exits
// nonzero afterwards. A failure that is not itself a peer-abort symptom blames
// this rank, so this process's own waiters unwind with a typed error naming
// it, as everyone else's do once the verdict arrives.
func (w *World) Fail(msg string) {
	if !strings.Contains(msg, rankio.PeerAbortMsg) {
		w.NoteFailedRank(w.rank)
	}
	w.Client.Fail(msg)
	w.release()
}

// release stops the data service — after it no remote operation can touch
// this rank's memory — and then unmaps the arena.
func (w *World) release() {
	if w.ln != nil {
		w.stopService()
	}
	if w.ar != nil {
		w.ar.Close()
	}
}

// abortDataPlane is what an abort means on the wire: waiters wake, in-flight
// requests fail fast, the data listener and requester connections drop.
func (w *World) abortDataPlane() {
	w.park.Abort()
	w.ln.Close()
	w.peerMu.Lock()
	for _, p := range w.peers {
		if p != nil {
			p.c.Close()
		}
	}
	w.peerMu.Unlock()
}

// ---- simnet.Transport: segments, regions (topology is the Client's) ----

var _ simnet.Transport = (*World)(nil)

// owns panics unless rank is this process's: a rank allocates and registers
// only its own memory.
func (w *World) owns(rank int, what string) {
	if rank != w.rank {
		panic("netrun: " + what + " for a foreign rank")
	}
}

// AllocSeg returns a zeroed registrable segment: from this rank's slice of
// the host group's arena — the memory host-mates can map — or, for a rank
// with none, from the process-wide pool (remote ranks reach it through the
// service loop, so any local memory is registrable).
func (w *World) AllocSeg(rank, size int) *segpool.Seg {
	w.owns(rank, "AllocSeg")
	if w.ar != nil {
		return w.ar.AllocSeg(w.self, size)
	}
	return segpool.Get(size)
}

// RecycleSeg returns a segment to where AllocSeg took it from (see Transport).
func (w *World) RecycleSeg(rank int, s *segpool.Seg, scrubbed bool, extra ...segpool.Range) {
	w.owns(rank, "RecycleSeg")
	switch {
	case w.ar != nil:
		w.ar.Recycle(s, scrubbed, extra...)
	case scrubbed:
		segpool.PutScrubbed(s, extra...)
	default:
		segpool.Put(s)
	}
}

// RegisterRegion installs a registration in this rank's directory, publishes
// it under the same key in the arena's for host-mates to map, and returns the
// key. Peers over the wire resolve it lazily (opRegQuery), so no broadcast is
// needed; programs synchronize registration before distributing addresses.
func (w *World) RegisterRegion(rank int, reg *simnet.Region) simnet.Key {
	w.owns(rank, "RegisterRegion")
	k := w.mine.Add(reg)
	if w.ar != nil {
		w.ar.Publish(w.self, int(k), reg)
	}
	return k
}

// UnregisterRegion drops a registration; later remote accesses fault.
func (w *World) UnregisterRegion(rank int, k simnet.Key) {
	w.owns(rank, "UnregisterRegion")
	w.mine.Drop(k)
	if w.ar != nil {
		w.ar.Unpublish(w.self, int(k))
	}
}

// LookupRegion resolves an address by host group: this rank's own
// registrations resolve locally, a host-mate's through the shared arena
// (direct loads and stores — the XPMEM path, so Endpoint.Shared works across
// these processes), anyone else's to a cached proxy region whose data plane
// is the wire protocol. A cached view may outlive the owner's unregistration,
// in which case its operations fault: at the liveness word in the arena, at
// the owner over the wire.
func (w *World) LookupRegion(a simnet.Addr) *simnet.Region {
	if a.Rank < 0 || a.Rank >= w.Size() {
		panic(fmt.Sprintf("simnet: address names rank %d outside fabric of %d", a.Rank, w.Size()))
	}
	if a.Rank == w.rank {
		return w.mine.Lookup(a)
	}
	if l := w.lidx[a.Rank]; l >= 0 {
		return w.ar.Lookup(l, uint32(a.Key), a.Rank)
	}
	s := a.Key.Slot()
	if regs := w.proxies[a.Rank]; s < len(regs) && regs[s] != nil && regs[s].Key() == a.Key {
		return regs[s]
	}
	live, size := w.queryRegion(a.Rank, a.Key)
	if !live {
		panic(simnet.Unregistered(a))
	}
	for s >= len(w.proxies[a.Rank]) {
		w.proxies[a.Rank] = append(w.proxies[a.Rank], nil)
	}
	w.proxies[a.Rank][s] = simnet.MakeRemoteRegion(a.Rank, a.Key, &remoteMem{w: w, rank: a.Rank, key: a.Key, size: size})
	return w.proxies[a.Rank][s]
}

// ---- simnet.Transport: virtual-hardware services ----
//
// Each rank has exactly one port — its slot in its host group's arena, or its
// process's own — and its waiters park at one door. Host-mates take the port,
// ring it and wait on it directly; everyone else reaches it over the wire,
// where the owner's service loop lands on the same port and door and rings
// it in each write's release, so same-host cross-(virtual-)node operations
// book the same NIC interval the off-host ones do.

// Pacer returns the world's pacer (see World.pacer).
func (w *World) Pacer() *simnet.Pacer { return w.pacer }

// ownClock is the clock every request carries: this rank's published clock,
// 0 in an unpaced world.
func (w *World) ownClock() int64 {
	if w.pacer == nil {
		return 0
	}
	return w.pacer.Clock(w.rank)
}

// portOf returns the port of the host group's l-th rank.
func (w *World) portOf(l int) *simnet.Port {
	if w.ar != nil {
		return w.ar.Port(l)
	}
	return &w.ownPort // a group of one: l is this rank
}

// Port returns rank's port for the host group (including this rank), nil for
// anyone else: their memory is reached through proxies, whose operations take
// the owner's port at the owner.
func (w *World) Port(rank int) *simnet.Port {
	if l := w.lidx[rank]; l >= 0 {
		return w.portOf(l)
	}
	return nil
}

// WakeDoor wakes the waiters parked on a host-group rank's port.
func (w *World) WakeDoor(rank int) { w.door.DoorWake(w.lidx[rank]) }

// RingDoorbell bumps rank's doorbell generation from outside any write,
// waking its waiters: directly for the host group, otherwise through one
// opDoorRing entry, which the owner applies behind the entries ahead of it.
// No write needs it — each rings in its own port release.
func (w *World) RingDoorbell(rank int) {
	if l := w.lidx[rank]; l < 0 {
		w.ctlWord(rank, opDoorRing)
	} else if w.portOf(l).Ring() {
		w.door.DoorWake(l)
	}
}

// DoorGen samples rank's doorbell generation.
func (w *World) DoorGen(rank int) uint64 {
	if l := w.lidx[rank]; l >= 0 {
		return w.portOf(l).Gen()
	}
	return w.ctlWord(rank, opDoorGen)
}

// WaitDoor blocks until rank's doorbell generation is no longer gen, or for
// simnet.DoorSlice at most. A wait on a host-group rank parks at the group's
// door; any other parks at the owner's, inside its service loop, one
// opDoorWait a slice — so a dropped connection or an abort can never strand
// the waiter. A wait replayed after a reset may be answered from the owner's
// reply cache with a generation that has since moved on: a spurious return,
// which the caller's re-check absorbs.
func (w *World) WaitDoor(rank int, gen uint64) uint64 {
	if l := w.lidx[rank]; l >= 0 {
		return w.door.DoorWait(w.portOf(l), l, gen)
	}
	for {
		if g := w.ctlWord(rank, opDoorWait, gen); g != gen {
			return g
		}
		if err := w.AbortErr(); err != nil {
			panic(err)
		}
	}
}
