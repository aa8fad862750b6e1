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
// keys ranks by the machine they run on. A world bootstraps through the one
// control plane (internal/rankio): the coordinator spawns the worker processes
// itself (loopback mode, the CI mode) or waits for workers the operator starts
// with FOMPI_COORD pointing at it (host-list mode). When it spawned them all
// onto one key the world has no wire and names nothing: each rank inherits its
// control stream and the arena the launcher made before spawning; otherwise
// workers JOIN a TCP coordinator with their data-listener address, find their
// host group in the WORLD catalog and dial each other lazily as traffic
// demands.
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
	"path/filepath"
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
	// arenaWait bounds how long a non-creator rank polls for its host
	// group's arena file (the creator may still be between JOIN and create).
	arenaWait = 60 * time.Second
)

// World is one worker's attachment to its world: the control-plane client,
// the host group's arena and the wire to everyone else, implementing
// simnet.Transport for the worker's rank.
type World struct {
	*rankio.Client
	rank int

	// The host group: lidx maps a world rank to its index among the ranks
	// that share this rank's host key (ascending), -1 off host; self is this
	// rank's. A group larger than one — or the whole of a world spawned onto
	// one key — shares arena ar, which its lowest rank created under a name
	// (creator) unless the launcher made it anonymous. door is the hook
	// waiters on the group's ports park through: the arena's, or with no
	// arena this process's parker.
	lidx    []int
	self    int
	ar      *mprun.Arena
	creator bool
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

// Launch creates the world o.Backend names and coordinates it to the end
// (rankio.Coordinate), returning nil only if every rank finished cleanly. The
// name decides the catalog of host keys and nothing else; from here on only
// the coordinator's JOIN admission reads it.
func Launch(o rankio.Options) error {
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
	if spawned && perKey >= o.Ranks {
		return launchMapped(o) // it spawns every rank onto one key
	}
	return launchWired(o)
}

// launchMapped runs a world whose ranks all share one host key, so it knows
// before spawning them that one arena serves everyone: it creates the arena
// over an anonymous memory file, and each rank inherits that file and its own
// end of its control stream (rankio.CoordinateInherited). Its ranks never open
// a wire, and the world names nothing on disk: a launcher killed at any point
// strands no file, and the ranks see their streams end.
func launchMapped(o rankio.Options) error {
	if o.Ranks > mprun.MaxRanks {
		return fmt.Errorf("netrun: %d ranks exceed the limit of %d for one arena (use the in-process backend for large worlds)", o.Ranks, mprun.MaxRanks)
	}
	mem, err := mprun.CreateAnon(arenaCfg(o, o.Ranks))
	if err != nil {
		return err
	}
	defer mem.Close()
	streams, kids, err := sock.Pairs(o.Ranks)
	if err != nil {
		return fmt.Errorf("netrun: control streams: %w", err)
	}
	return rankio.CoordinateInherited(o, streams, kids, mem)
}

// launchWired runs any other world over a TCP coordinator.
func launchWired(o rankio.Options) error {
	listen := o.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
		if len(o.Hosts) != 0 {
			listen = ":7077"
		}
	}
	if err := faultnet.Check(); err != nil {
		return fmt.Errorf("netrun: %w", err)
	}
	ln, err := sock.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("netrun: listen coordinator socket %s: %w", listen, err)
	}
	defer ln.Close()
	return rankio.Coordinate(faultnet.WrapListener(ln), o)
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
// its rank; which boot it takes it reads off the network FOMPI_COORD names.
// The caller registers its setup regions and then calls Ready to enter
// the bootstrap barrier.
func Join(o rankio.Options) (*World, error) {
	network, coord, rank, err := rankio.WorkerOf(o.Backend, o.Ranks)
	if err != nil {
		return nil, err
	}
	w := &World{rank: rank, lidx: make([]int, o.Ranks)}
	if network == rankio.Inherited {
		err = w.joinMapped(o, coord)
	} else {
		err = w.joinWired(o, network, coord)
	}
	if err != nil {
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

// joinMapped is the boot of a rank whose launcher put the whole world on one
// key (launchMapped): it inherited its control stream and the arena, so it
// needs nothing from the catalog and never waits for it — it maps and binds
// while the coordinator collects the other ranks' JOINs, and reads WORLD
// behind its READY (Client.Ready).
func (w *World) joinMapped(o rankio.Options, at string) error {
	if w.rank < 0 {
		return fmt.Errorf("netrun: worker has no %s", rankio.EnvRank)
	}
	ctl, mem, err := rankio.AdoptInherited(at)
	if err != nil {
		return err
	}
	if w.Client, err = rankio.Join(ctl, o, w.rank, "shm"); err != nil {
		ctl.Close()
		mem.Close()
		return err
	}
	for r := range w.lidx {
		w.lidx[r] = r
	}
	w.self = w.rank
	if w.ar, err = mprun.MapArena(mem, arenaCfg(o, o.Ranks)); err != nil {
		ctl.Close()
		return err
	}
	w.bindArena()
	w.pacer = w.ar.Pacer()
	return nil
}

// bindArena makes the mapped arena this rank's home: its slot, its group's
// door, parked under this process's abort state.
func (w *World) bindArena() {
	w.door = w.ar.Hook()
	w.ar.Bind(w.self, w.AbortErr)
}

// joinWired is every other boot: dial the TCP coordinator, start this rank's
// data service, run the JOIN/WORLD handshake, and attach to the host group
// the catalog shows.
func (w *World) joinWired(o rankio.Options, network, coord string) error {
	if err := faultnet.Check(); err != nil {
		return fmt.Errorf("netrun: %w", err)
	}
	tm, err := rankio.ResolveTimeouts()
	if err != nil {
		return err
	}
	// The coordinator may come up after the workers in host-list mode, and
	// faultnet injects refused dials; retry with backoff inside the boot
	// window rather than failing the whole rank on the first RST.
	var ctl sock.Conn
	for d, until := dialBackoff, time.Now().Add(rankio.BootTimeout); ; d *= 2 {
		ctl, err = faultnet.Dial(network, coord, rankio.BootTimeout)
		if err == nil {
			break
		}
		if time.Now().Add(d).After(until) {
			return fmt.Errorf("netrun: dial coordinator %s: %w", coord, err)
		}
		time.Sleep(d)
	}
	// Listen for peers on the interface that reaches the coordinator: the
	// address peers can reach this process at, on loopback and multi-machine
	// deployments alike.
	local, err := sock.LocalAddr(ctl)
	var ln sock.Listener
	if err == nil {
		ln, err = sock.Listen("tcp", netip.AddrPortFrom(local.Addr(), 0).String())
	}
	if err != nil {
		ctl.Close()
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
	w.Client, err = rankio.Join(ctl, o, w.rank, ln.Addr())
	if err == nil {
		err = w.Client.World()
	}
	if err == nil {
		// The session identity is minted, and the host group known, once the
		// WORLD reply has fixed the rank (host-list workers may join rankless
		// and be assigned one here).
		w.rank = w.Client.Rank()
		w.sid = sidFor(w.rank, os.Getpid())
		err = w.attachGroup(o)
	}
	if err != nil {
		ln.Close()
		ctl.Close()
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

// attachGroup derives this rank's host group from the WORLD catalog. A group
// of one maps nothing: its port and door are the process's own. A larger one
// shares an arena under the catalog-digest name, created by its lowest rank
// and mapped by the rest, so off-host operations, rings and waits arriving
// over the wire land on the same port, and park at the same door, the
// host-mates take directly.
func (w *World) attachGroup(o rankio.Options) error {
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
	if n == 1 {
		w.door = w.park.Hook(w.AbortErr)
		return nil
	}
	name := mprun.GroupName(w.Addrs(), hosts, key)
	var err error
	if w.creator = w.self == 0; w.creator {
		mprun.SweepStaleArenas(mprun.StaleAge) // hygiene: other dead worlds' leftovers
		for _, root := range mprun.SegmentRoots() {
			os.Remove(filepath.Join(root, name)) // a leftover of a crashed world, never a live one
		}
		w.ar, err = mprun.CreateArena(name, arenaCfg(o, n))
	} else {
		w.ar, err = mprun.OpenArena(name, arenaCfg(o, n), arenaWait)
	}
	if err != nil {
		return fmt.Errorf("netrun: host group %q arena: %w", key, err)
	}
	w.bindArena()
	return nil
}

// SegmentPath returns the path this process mapped its host group's named
// segment from, "" when it maps none or an anonymous one.
func (w *World) SegmentPath() string {
	if w.ar == nil {
		return ""
	}
	return w.ar.Path()
}

// Ready enters the bootstrap barrier (READY/GO); once it returns, every rank
// of the host group has mapped the arena, so its creator unlinks the segment —
// nothing is left behind however the world later dies.
func (w *World) Ready() error {
	if err := w.Client.Ready(); err != nil {
		return err
	}
	if w.creator {
		w.ar.Unlink()
	}
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
// it, as everyone else's do once the verdict arrives. Then it
// releases what a failing world would otherwise strand: the segment's name if
// the world died before Ready unlinked it.
func (w *World) Fail(msg string) {
	if !strings.Contains(msg, rankio.PeerAbortMsg) {
		w.NoteFailedRank(w.rank)
	}
	w.Client.Fail(msg)
	if w.creator {
		w.ar.Unlink()
	}
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
