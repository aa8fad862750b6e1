// Package netrun is the inter-node transport backend: each rank of an SPMD
// world is an OS process on (potentially) a different machine, and every
// remote-memory operation — put, get, atomics, notified access — travels as
// a length-prefixed message over TCP to a per-rank service loop that
// executes it against locally owned segments (simnet.RegionExec). It is the
// backend that removes the single-machine ceiling of internal/mprun: the
// same simnet.Transport contract, with the shared mmap replaced by a wire
// protocol (DESIGN.md §9).
//
// A world bootstraps through the one control plane (internal/rankio) over a
// TCP listener: the coordinator spawns the worker processes itself (loopback
// mode, the CI mode) or waits for workers the operator starts with
// FOMPI_COORD pointing at it (host-list mode). Workers JOIN with their
// data-listener address and dial each other lazily as traffic demands.
//
// Everything virtual-time stays above the Transport line: the requester-side
// halves of each operation (cost-model charges, source-NIC serialization)
// run in simnet.Endpoint, the owner-side halves (byte movement, stamps,
// target-NIC booking) replay through simnet.RegionExec, and the conformance
// suite in internal/transporttest pins the results bit-identical to the
// in-process and multi-process backends.
package netrun

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"fompi/internal/faultnet"
	"fompi/internal/rankio"
	"fompi/internal/segpool"
	"fompi/internal/simnet"
)

const (
	// Backend is this backend's name in FOMPI_COORD and in every JOIN.
	Backend = "net"

	// Idempotent control requests (opRegQuery, opClock, opDoorGen,
	// opDoorWait re-arm) retry up to idemAttempts times across fresh
	// connections, backing off from idemBackoff.
	idemAttempts = 4
	idemBackoff  = 25 * time.Millisecond
	// Peer dials retry inside peerErr (the listener may not be reachable
	// for a moment on a congested fabric, and faultnet injects exactly
	// that); dialAttempts bounds them.
	dialAttempts = 5
	dialBackoff  = 50 * time.Millisecond
)

// World is one worker's attachment to an inter-node world: the control-plane
// client plus the wire data plane, implementing simnet.Transport for the
// worker's rank.
type World struct {
	*rankio.Client
	rank int

	ln net.Listener // this rank's data listener

	// peers are this rank's requester connections, dialed lazily; guarded
	// by peerMu only against the abort path's close-all (requests
	// themselves are confined to the rank's goroutine).
	peerMu sync.Mutex
	peers  []*peerConn

	// mine is this rank's region directory (index = key; slots are nilled
	// on unregister, never reused). proxies caches materialized remote
	// views per (rank, key); it is touched only by the rank's goroutine.
	mineMu  sync.RWMutex
	mine    []*simnet.Region
	proxies [][]*simnet.Region

	// Owner-side virtual-hardware state served to peers: this rank's port
	// (doorbell generation, NIC busy interval) and the door its waiters park
	// at — the rank itself and the service handlers holding peers' DOORWAITs,
	// all under the rank's own slot. Both are this process's own until a
	// layered backend substitutes the ones its co-located ranks share
	// (SetDoor). park is where this process's goroutines sleep, in a doorbell
	// wait or pace-blocked.
	ownPort  simnet.Port
	port     *simnet.Port
	door     *simnet.Door
	doorSelf int // this rank's index in door
	park     *simnet.Parker

	// pacer is nil in an unpaced world. Its table is this process's own: the
	// rank's entry is its published clock, a peer's the last one heard — on
	// every request's piggyback, or fetched by refreshClock.
	pacer *simnet.Pacer

	// Session layer (session.go): this process's session identity, the
	// requester half of each per-owner session, and the owner-side session
	// table serving resumes from every peer.
	sid      uint64
	rsess    []reqSession
	sessMu   sync.Mutex
	sessions map[uint64]*ownerSession

	// Inbound service tracking: every accepted data-plane connection and
	// its serveConn goroutine, so Finish/Fail can stop the service and
	// guarantee no remote op touches local memory afterwards.
	svcMu     sync.Mutex
	svcConns  map[net.Conn]struct{}
	svcClosed bool
	svcWg     sync.WaitGroup

	// opTimeout is the per-request deadline on every data-plane wire call
	// (rankio.Timeouts): a peer that neither answers nor resets within it is
	// treated as dead.
	opTimeout time.Duration
}

// SetDoor substitutes an external port and door for this rank's own, self
// being the rank's index in door. The hybrid backend installs its arena's, so
// that an off-host peer's operation, ring or wait, arriving over the wire,
// lands on the same shared-memory port the co-located ranks take directly —
// one port per rank, wherever the issuer or the waiter lives. Call before
// Ready, so no peer traffic races the handoff.
func (w *World) SetDoor(port *simnet.Port, door *simnet.Door, self int) {
	w.port, w.door, w.doorSelf = port, door, self
}

// ringDoor rings this rank's doorbell on behalf of a wire requester.
func (w *World) ringDoor() {
	w.port.Ring()
	w.door.Wake(w.doorSelf)
}

// Launch creates an inter-node world and coordinates it (rankio.Coordinate)
// over a TCP listener, returning nil only if every rank finished cleanly. A
// backend layered on this one's world sets o.Backend: its workers join under
// that name, and no other's are admitted.
func Launch(o rankio.Options) error {
	o = withBackend(o)
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
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("netrun: listen coordinator socket %s: %w", listen, err)
	}
	defer ln.Close()
	return rankio.Coordinate(faultnet.WrapListener(ln), o, nil, nil)
}

// withBackend names the world after this backend unless a layered one did.
func withBackend(o rankio.Options) rankio.Options {
	if o.Backend == "" {
		o.Backend = Backend
	}
	return o
}

// Join attaches a worker process to its world: it dials the coordinator,
// starts this rank's data service, runs the JOIN/WORLD handshake, and
// returns the Transport for the assigned rank. The caller registers its
// setup regions and then calls Ready to enter the bootstrap barrier.
func Join(o rankio.Options) (*World, error) {
	o = withBackend(o)
	network, coord, rank, err := rankio.WorkerOf(o.Backend, o.Ranks)
	if err != nil {
		return nil, err
	}
	if err := faultnet.Check(); err != nil {
		return nil, fmt.Errorf("netrun: %w", err)
	}
	tm, err := rankio.ResolveTimeouts()
	if err != nil {
		return nil, err
	}
	// The coordinator may come up after the workers in host-list mode, and
	// faultnet injects refused dials; retry with backoff inside the boot
	// window rather than failing the whole rank on the first RST.
	var ctl net.Conn
	for d, until := dialBackoff, time.Now().Add(rankio.BootTimeout); ; d *= 2 {
		ctl, err = faultnet.Dial(network, coord, rankio.BootTimeout)
		if err == nil {
			break
		}
		if time.Now().Add(d).After(until) {
			return nil, fmt.Errorf("netrun: dial coordinator %s: %w", coord, err)
		}
		time.Sleep(d)
	}
	// Listen for peers on the interface that reaches the coordinator: the
	// address peers can reach this process at, on loopback and multi-machine
	// deployments alike.
	ip := ctl.LocalAddr().(*net.TCPAddr).IP
	ln, err := net.Listen("tcp", net.JoinHostPort(ip.String(), "0"))
	if err != nil {
		ctl.Close()
		return nil, fmt.Errorf("netrun: listen data socket: %w", err)
	}
	// The data listener is data-plane: faultnet's plane=data scoping targets
	// it (and the requester conns dialed to it) while sparing the control
	// streams the failure detector rides on.
	ln = faultnet.WrapListenerData(ln)

	w := &World{
		ln:        ln,
		peers:     make([]*peerConn, o.Ranks),
		proxies:   make([][]*simnet.Region, o.Ranks),
		rsess:     make([]reqSession, o.Ranks),
		sessions:  make(map[uint64]*ownerSession),
		svcConns:  make(map[net.Conn]struct{}),
		opTimeout: tm.OpTimeout,
	}
	w.Client, err = rankio.Join(ctl, o, rank, ln.Addr().String())
	if err == nil {
		err = w.Client.World()
	}
	if err != nil {
		ln.Close()
		ctl.Close()
		return nil, err
	}
	// The session identity is minted, and the rank's row of its door known,
	// once the WORLD reply has fixed the rank (host-list workers may join
	// rankless and be assigned one here).
	w.rank = w.Client.Rank()
	w.sid, w.doorSelf = sidFor(w.rank, os.Getpid()), w.rank
	w.park = simnet.NewParker(o.Ranks, nil)
	hook := w.park.Hook(w.AbortErr)
	w.port, w.door = &w.ownPort, simnet.NewDoor(o.Ranks, nil, hook)
	if o.PaceWindowNs != 0 {
		// The one rank that parks on this table is poked by the service
		// goroutine whose piggybacked clock released it.
		hook.Refresh = w.refreshClock
		w.pacer = simnet.NewPacer(o.PaceWindowNs, o.Ranks, nil, hook)
	}
	w.OnAbort(w.abortDataPlane)
	go w.acceptLoop()
	return w, nil
}

// Finish reports clean completion and blocks until the coordinator releases
// the world, then stops the data service.
//
// The wire is drained first: a body whose last act is a fire-class op (a
// collective that ends on a remote store) leaves it queued in the session
// builder, and DONE must not announce completion while a peer still waits
// for that store. Like every drain this panics on a lost peer, so callers
// run Finish where they would report the body's own panic.
func (w *World) Finish() {
	w.DrainWire()
	w.Client.Finish()
	w.stopService()
}

// Fail aborts the world, reports msg to the coordinator and stops the data
// service; the caller exits nonzero afterwards.
func (w *World) Fail(msg string) {
	w.Client.Fail(msg)
	w.stopService()
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

// AllocSeg returns a zeroed registrable segment from this process's heap:
// remote ranks reach it through the service loop, so any local memory is
// registrable and the process-wide pool serves directly (as on the
// in-process fabric — only the mmap backend needs a private arena).
func (w *World) AllocSeg(rank, size int) *segpool.Seg {
	if rank != w.rank {
		panic("netrun: AllocSeg for a foreign rank")
	}
	return segpool.Get(size)
}

// RecycleSeg returns a segment to the pool (see Transport).
func (w *World) RecycleSeg(rank int, s *segpool.Seg, scrubbed bool, extra ...segpool.Range) {
	if rank != w.rank {
		panic("netrun: RecycleSeg for a foreign rank")
	}
	if scrubbed {
		segpool.PutScrubbed(s, extra...)
		return
	}
	segpool.Put(s)
}

// RegisterRegion installs a registration in this rank's directory and
// returns its key. Peers resolve it lazily over the wire (opRegQuery), so
// no broadcast is needed; programs synchronize registration before
// distributing addresses, exactly as on the other backends.
func (w *World) RegisterRegion(rank int, reg *simnet.Region) simnet.Key {
	if rank != w.rank {
		panic("netrun: RegisterRegion for a foreign rank")
	}
	w.mineMu.Lock()
	defer w.mineMu.Unlock()
	k := simnet.Key(len(w.mine))
	w.mine = append(w.mine, reg)
	return k
}

// UnregisterRegion marks a registration dead; later remote accesses fault.
func (w *World) UnregisterRegion(rank int, k simnet.Key) {
	if rank != w.rank {
		panic("netrun: UnregisterRegion for a foreign rank")
	}
	w.mineMu.Lock()
	defer w.mineMu.Unlock()
	if int(k) < len(w.mine) {
		w.mine[k] = nil
	}
}

// ownRegion resolves one of this rank's own keys for the service loop.
func (w *World) ownRegion(k simnet.Key) *simnet.Region {
	w.mineMu.RLock()
	defer w.mineMu.RUnlock()
	if int(k) >= len(w.mine) || w.mine[k] == nil {
		return nil
	}
	return w.mine[k]
}

// LookupRegion resolves an address: this rank's own registrations resolve
// locally; foreign ranks' resolve to cached proxy regions whose data plane
// is the wire protocol. A cached proxy may outlive the owner's
// unregistration — the staleness contract of the other backends' lookup
// caches — in which case its operations fault at the owner.
func (w *World) LookupRegion(a simnet.Addr) *simnet.Region {
	if a.Rank < 0 || a.Rank >= w.Size() {
		panic(fmt.Sprintf("simnet: address names rank %d outside fabric of %d", a.Rank, w.Size()))
	}
	if a.Rank == w.rank {
		if reg := w.ownRegion(a.Key); reg != nil {
			return reg
		}
		panic(fmt.Sprintf("simnet: access to unregistered region (rank %d key %d)", a.Rank, a.Key))
	}
	regs := w.proxies[a.Rank]
	if int(a.Key) < len(regs) && regs[a.Key] != nil {
		return regs[a.Key]
	}
	state, size := w.queryRegion(a.Rank, a.Key)
	if state != regLive {
		panic(fmt.Sprintf("simnet: access to unregistered region (rank %d key %d)", a.Rank, a.Key))
	}
	reg := simnet.MakeRemoteRegion(a.Rank, a.Key, &remoteMem{w: w, rank: a.Rank, key: a.Key, size: size})
	for int(a.Key) >= len(w.proxies[a.Rank]) {
		w.proxies[a.Rank] = append(w.proxies[a.Rank], nil)
	}
	w.proxies[a.Rank][a.Key] = &reg
	return &reg
}

// ---- simnet.Transport: virtual-hardware services ----

// Pacer returns the world's pacer: the one discipline over this process's
// last-known clock table, which the wire keeps fresh (see World.pacer).
func (w *World) Pacer() *simnet.Pacer { return w.pacer }

// ownClock is the clock every request carries: this rank's published clock,
// 0 in an unpaced world.
func (w *World) ownClock() int64 {
	if w.pacer == nil {
		return 0
	}
	return w.pacer.Clock(w.rank)
}

// RingDoorbell bumps rank's doorbell generation, waking its waiters: local
// waiters directly, the owner's waiters through a fire-and-forget message
// that the owner applies after every operation already sent on that stream.
// When fused sub-ops are still accumulating toward rank, the ring rides the
// opBatch frame itself (the owner rings after applying the data), saving
// the separate message.
func (w *World) RingDoorbell(rank int) {
	if rank == w.rank {
		w.ringDoor()
		return
	}
	if len(w.rsess) > 0 {
		s := &w.rsess[rank]
		s.bring = true
		// With sub-ops still accumulating, the ring waits for them: the
		// data it announces has not been sent either, so a waiter could
		// not have been satisfied any earlier — it wakes exactly when the
		// bytes land. An empty builder sends the ring now.
		if s.bops == 0 {
			w.flushFused(rank)
		}
		return
	}
	w.sendRing(rank)
}

// Port returns this rank's port; peers' memory is reached through proxies,
// whose operations take the owner's port at the owner.
func (w *World) Port(rank int) *simnet.Port {
	if rank == w.rank {
		return w.port
	}
	return nil
}

// WakeDoor wakes the waiters parked on this rank's port (the only one the
// inline path releases here).
func (w *World) WakeDoor(rank int) { w.door.Wake(w.doorSelf) }

// DoorGen samples rank's doorbell generation.
func (w *World) DoorGen(rank int) uint64 {
	if rank == w.rank {
		return w.port.Gen()
	}
	return w.rpcDoorGen(rank)
}

// WaitDoor blocks until rank's doorbell generation is no longer gen, or for
// simnet.DoorSlice at most. A local wait parks at this rank's door; a remote
// one parks at the owner's, inside its service loop, one DOORWAIT a slice —
// so a dropped connection or an abort can never strand the waiter, and a
// RING frame lost with its connection (rings are fire-and-forget, outside
// the session layer) costs a bounded re-check.
func (w *World) WaitDoor(_, rank int, gen uint64) uint64 {
	if rank == w.rank {
		return w.door.Wait(w.port, w.doorSelf, w.doorSelf, gen)
	}
	for {
		if g := w.rpcDoorWait(rank, gen); g != gen {
			return g
		}
		if err := w.AbortErr(); err != nil {
			panic(err)
		}
	}
}
