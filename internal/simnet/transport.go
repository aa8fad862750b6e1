package simnet

import (
	"fompi/internal/segpool"
)

// Transport is the substrate contract an Endpoint drives: the data plane of
// foMPI's interchangeable fabrics (the paper's DMAPP and XPMEM) — the services
// that involve memory or state shared between ranks, and nothing else.
// Everything above this line — cost models, virtual clocks, stamps arithmetic,
// NIC booking, the ring a write's port release carries — lives in Endpoint,
// RegionExec and Port and is byte-identical across backends; a Transport only
// resolves registrations, homes one Port per rank where that rank's memory is,
// homes the tables of the world's Pacer, and supplies the one ParkHook — how
// a rank sleeps, how a sleeping rank is reached — the door and the pacer run
// over. Start-up and death belong to whoever built the world,
// as the job launcher and runtime own them under foMPI: the in-process runner
// holds the *Fabric it made (Fabric.Abort), a process world its control plane
// (internal/rankio). Topology is the world's shape, rank / RanksPerNode on
// every backend. Two implementations exist: the in-process *Fabric below
// (ranks are goroutines in one address space) and internal/netrun's process
// world (ranks are OS processes), which routes each peer by host: to an
// internal/mprun arena (regions and wake words live in one mmap-shared
// segment, pokes are futex wakes on it) or to a TCP session (RemoteMem
// proxies, drained through WireDrainer). Each passes the conformance suite in
// internal/transporttest — the process world once per placement of ranks on
// hosts — as a third would.
//
// The thirteen methods: Size and RanksPerNode (the shape); RegisterRegion,
// UnregisterRegion and LookupRegion (registered memory); AllocSeg and
// RecycleSeg (its backing); Pacer; Port; and WakeDoor, RingDoorbell, DoorGen
// and WaitDoor (the doorbell). Contracts a backend must honor, in the terms
// the conformance suite checks:
//
//   - Registered memory is byte-addressable by (rank, key, offset) from every
//     rank; each owner's Directory assigns its keys, and a stale key faults.
//     A region's stamps share the registration's lifetime.
//   - AllocSeg returns zeroed memory that RegisterRegion accepts; backends
//     whose remote ranks cannot reach arbitrary host memory (an arena's) may
//     reject RegisterRegion calls on buffers they did not allocate.
//   - Every rank whose memory this process can address (LookupRegion
//     returns a region with real bytes, not a RemoteMem proxy) has exactly
//     one Port, shared by every process that addresses the memory; Port(r)
//     returns it, and nil for a rank reached only through proxies. The
//     inline issue path and RegionExec take it for every NIC booking and
//     AMO, and release it with the ring.
//   - WakeDoor(r) wakes every WaitDoor(r, gen) waiter whose gen is stale
//     after r's port generation advanced, with no lost wakeups, provided the
//     writer calls it whenever the ring that advanced the generation
//     (Port.Ring, Port.UnlockRing) reported waiters; a write that finds none
//     calls nothing. WaitDoor may return gen unchanged (after DoorSlice at
//     the latest): a waiter re-checks its predicate after every return. For
//     an addressable rank both are the door of the world's ParkHook —
//     ParkHook.DoorWake(r) and ParkHook.DoorWait on Port(r) — and
//     RingDoorbell(r) is Port(r).Ring() plus, if it reported waiters,
//     WakeDoor(r); for a rank reached through proxies they are messages to
//     the owner, who does the same. No write calls RingDoorbell: every
//     write rings in its own port release (RegionExec), at the wire's
//     owner too; it rings for a store made outside the data plane.
//   - Pacer() returns the world's conservative-pacing state (DESIGN.md
//     §6.1), nil for an unpaced world. The discipline itself is Pacer's; a
//     backend supplies its tables and its ParkHook, and answers the same
//     value for the world's lifetime once an endpoint exists.
//
// The one lifecycle rule: when the world dies, every WaitDoor — and every
// pace park — unwinds by panicking with the world's abort value, ErrAborted
// or an *ErrPeerFailed naming the dead rank (which matches
// errors.Is(err, ErrAborted)). Recover sites classify with IsAbortPanic, not
// value equality. A layer that blocks waits at the door and inherits it.
type Transport interface {
	Size() int
	RanksPerNode() int

	// Registered memory. RegisterRegion installs reg (whose owner, buffer and
	// stamps the caller has initialized) and returns its key; LookupRegion
	// resolves an address whenever the issuing endpoint's route memo does not
	// (first use, a lost slot, a retired handle), so it stays cheap. The
	// handle it returns carries the registration's liveness word (Region).
	RegisterRegion(rank int, reg *Region) Key
	UnregisterRegion(rank int, key Key)
	LookupRegion(a Addr) *Region

	// Segment allocation: registrable backing memory plus shadow stamps, in
	// the all-zero state. RecycleSeg returns a segment after its registration
	// is gone and every rank that could address it has synchronized; scrubbed
	// recycling wipes only stamped blocks plus the declared extra extents
	// (see segpool.PutScrubbed), non-scrubbed recycling wipes everything.
	AllocSeg(rank, size int) *segpool.Seg
	RecycleSeg(rank int, s *segpool.Seg, scrubbed bool, extra ...segpool.Range)

	// Pacing: the world's Pacer, nil when unpaced. Endpoints cache it.
	Pacer() *Pacer

	// Ports and doorbells: the rank's arrival state (see Port), and the
	// generation-counted wakeup channel of WaitLocal, PollRemoteWord and
	// the notification rings built on its generation, internal/mpi1's
	// inboxes among them. A waiter parks under rank's door slot (see
	// ParkHook), whoever it is.
	Port(rank int) *Port
	WakeDoor(rank int)
	RingDoorbell(rank int)
	DoorGen(rank int) uint64
	WaitDoor(rank int, gen uint64) uint64
}

// Fabric implements Transport; the exported wrappers below are the carve
// line between the in-process fabric's internals and the backend-neutral
// Endpoint layer.
var _ Transport = (*Fabric)(nil)

// RegisterRegion installs a region owned by rank and returns its key.
func (f *Fabric) RegisterRegion(rank int, reg *Region) Key { return f.nodes[rank].dir.Add(reg) }

// UnregisterRegion removes a registration; later remote accesses fault.
func (f *Fabric) UnregisterRegion(rank int, k Key) { f.nodes[rank].dir.Drop(k) }

// AllocSeg returns a zeroed registrable segment from the process-wide pool.
// The in-process fabric has one address space, so rank only names the future
// owner and every segment comes from the same pool.
func (f *Fabric) AllocSeg(rank, size int) *segpool.Seg { return segpool.Get(size) }

// RecycleSeg returns a segment to the pool (see Transport).
func (f *Fabric) RecycleSeg(rank int, s *segpool.Seg, scrubbed bool, extra ...segpool.Range) {
	if scrubbed {
		segpool.PutScrubbed(s, extra...)
		return
	}
	segpool.Put(s)
}

// Port returns rank's port: every rank is addressable in process.
func (f *Fabric) Port(rank int) *Port { return &f.nodes[rank].port }

// WakeDoor wakes rank's parked waiters after its generation advanced.
func (f *Fabric) WakeDoor(rank int) { f.hook.DoorWake(rank) }

// RingDoorbell rings rank's doorbell, waking its waiters if the ring found
// any.
func (f *Fabric) RingDoorbell(rank int) {
	if f.nodes[rank].port.Ring() {
		f.hook.DoorWake(rank)
	}
}

// DoorGen samples rank's doorbell generation.
func (f *Fabric) DoorGen(rank int) uint64 { return f.nodes[rank].port.Gen() }

// WaitDoor parks the calling goroutine until rank's doorbell generation is
// no longer gen.
func (f *Fabric) WaitDoor(rank int, gen uint64) uint64 {
	return f.hook.DoorWait(&f.nodes[rank].port, rank, gen)
}
