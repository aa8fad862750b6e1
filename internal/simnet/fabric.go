// Package simnet is a software RDMA fabric: the stand-in for Cray DMAPP
// (inter-node) and XPMEM (intra-node) that the foMPI protocols in
// internal/core are layered on. Ranks are goroutines in a single address
// space; each rank registers memory regions that other ranks address by
// (rank, key, offset) and accesses with put, get, and 8-byte atomic memory
// operations, each available with blocking, explicit-nonblocking (handle),
// and implicit-nonblocking (bulk gsync) completion — exactly DMAPP's
// contract. There is no remote software agent: the target CPU is never
// involved in any operation.
//
// Besides moving real bytes, every operation advances the issuing rank's
// virtual clock according to a calibrated cost model, and stamps the written
// words with the operation's virtual completion time so that polling ranks
// merge time causally (see DESIGN.md §6).
//
// The per-operation host costs are kept allocation-free and (nearly)
// lock-free: an endpoint resolves a target it has used before from its
// fixed-size route memo (region handle, locality and cost profile behind
// two compares and a liveness load) and any other through the owner's
// lock-free Directory, doorbells ring without a lock or
// a hook call when nobody is parked, and pacing folds sharded minimum caches
// instead of scanning every rank. There is one issue path: every operation
// runs its own pacing check, and every write rings its target in the port
// release that lands it — foMPI's per-operation DMAPP issue, completed in
// bulk by Gsync.
package simnet

import (
	"fmt"
	"sync/atomic"

	"fompi/internal/telemetry"
)

var mDoorRings = telemetry.NewCounter("door.rings")

// Key identifies a registered memory region within its owner rank.
type Key uint32

// Addr names one byte of remote memory.
type Addr struct {
	Rank int
	Key  Key
	Off  int
}

// Add returns a copy of a displaced by n bytes.
func (a Addr) Add(n int) Addr { a.Off += n; return a }

// node is the per-rank fabric state: the rank's region directory and its
// port (doorbell generation, NIC occupancy for bandwidth/incast modelling,
// and the lock over both).
type node struct {
	dir  Directory
	port Port
}

// Fabric connects n ranks arranged as nodes of ranksPerNode consecutive
// ranks. It is shared by all transport layers (foMPI, PGAS baselines, MPI-1)
// so that comparisons run over identical hardware.
type Fabric struct {
	n            int
	ranksPerNode int
	nodes        []*node
	aborted      atomic.Bool
	culprit      atomic.Int32 // the rank Abort blamed first, -1: nobody

	// Where ranks sleep, in a doorbell wait or pace-blocked: hook is park's,
	// the one both disciplines run over.
	park  *Parker
	hook  ParkHook
	pacer *Pacer // nil while unpaced (SetPacing)

	endpointsOut atomic.Bool // an endpoint has cached pacer
}

// ErrAborted is the panic value delivered to goroutines blocked in fabric
// waits when Abort tears the fabric down (e.g. after a peer rank panicked).
var ErrAborted = fmt.Errorf("simnet: fabric aborted")

// Abort marks the fabric dead and wakes every blocked waiter. culprit is the
// rank whose failure took the world down, negative for none; the first blame
// wins. Waiters unwind by panicking with *ErrPeerFailed naming it, or with
// the bare ErrAborted when nobody was blamed. It is not a Transport method:
// whoever built the fabric — the in-process runner — ends it.
func (f *Fabric) Abort(culprit int) {
	if culprit >= 0 {
		f.culprit.CompareAndSwap(-1, int32(culprit))
	}
	f.aborted.Store(true)
	f.park.Abort()
}

// SetPacing bounds the virtual-clock divergence between ranks to window
// nanoseconds: before issuing a fabric operation, a rank whose clock runs
// more than window ahead of the slowest published clock yields until the
// laggards catch up. Execution otherwise follows real goroutine scheduling,
// so a rank that races far ahead in real time stamps shared words with
// far-future virtual times, and contended-word workloads (hashtable CAS
// chains, DSDE counters) inherit host-scheduler noise as virtual-time
// jumps. Pacing makes the interleaving approximate virtual-time order.
// window 0 disables pacing (the default: uncontended microbenchmarks do
// not need it). A stall detector keeps pacing deadlock-free: if nothing in
// the world makes progress while a rank is pace-blocked, it proceeds.
//
// Endpoints read the window once, when they are created, so SetPacing must
// come first; a later call would be ignored by every endpoint already
// handed out, and panics instead.
func (f *Fabric) SetPacing(window int64) {
	if f.endpointsOut.Load() {
		panic("simnet: SetPacing after an endpoint was created; set the pacing window before Endpoint/Endpoints/NewEndpoint")
	}
	f.pacer = nil
	if window != 0 {
		f.pacer = NewPacer(window, f.n, nil, f.hook)
	}
}

// Pacer returns the fabric's pacer, nil while unpaced.
func (f *Fabric) Pacer() *Pacer { return f.pacer }

// Hook returns the hook both the door and the pacer park through.
func (f *Fabric) Hook() ParkHook { return f.hook }

// Parker returns the parker behind Hook.
func (f *Fabric) Parker() *Parker { return f.park }

// abortErr is the parking hook's abort state: nil while the world stands,
// then the value Abort's culprit names.
func (f *Fabric) abortErr() error {
	if !f.aborted.Load() {
		return nil
	}
	if r := f.culprit.Load(); r >= 0 {
		return &ErrPeerFailed{Rank: int(r)}
	}
	return ErrAborted
}

// Aborted reports whether the fabric has been torn down.
func (f *Fabric) Aborted() bool { return f.aborted.Load() }

// NewFabric creates a fabric for n ranks with the given node width: it
// carves the per-rank state and then runs Reset, the same path a reused
// fabric takes.
func NewFabric(n, ranksPerNode int) *Fabric {
	if n <= 0 || n > maxWaiters {
		panic(fmt.Sprintf("simnet: a fabric holds 1 to %d ranks (one port's waiter count), not %d", maxWaiters, n))
	}
	if ranksPerNode <= 0 {
		ranksPerNode = 1
	}
	f := &Fabric{n: n, ranksPerNode: ranksPerNode, nodes: make([]*node, n)}
	f.park = NewParker(n)
	f.hook = f.park.Hook(f.abortErr)
	// Per-node state comes from two slabs (node structs, directory backing
	// arrays): world setup is a few allocations, not a few per rank.
	slab := make([]node, n)
	backing := make([]atomic.Pointer[Region], initialRegionCap*n)
	for i := range f.nodes {
		slab[i].dir.first = backing[i*initialRegionCap : (i+1)*initialRegionCap : (i+1)*initialRegionCap]
		f.nodes[i] = &slab[i]
	}
	f.Reset()
	return f
}

// Reset returns the fabric to the state NewFabric leaves it in, keeping what
// it carved: every port zero (generation, NIC interval, waiter count), every
// directory empty — a region still registered loses its liveness, as
// Unregister would take it — no abort and no blame, no pacer and no
// endpoint handed out, and the parker's slots unpoked, their stopped timers
// kept for the next park. Only a world none of whose goroutines still
// touches the fabric may be reset: the in-process runner resets a world it
// reuses, after every rank of its last launch returned cleanly.
func (f *Fabric) Reset() {
	for _, nd := range f.nodes {
		nd.port = Port{}
		nd.dir.reset()
	}
	f.aborted.Store(false)
	f.culprit.Store(-1)
	f.endpointsOut.Store(false)
	f.pacer = nil
	f.park.reset()
}

// initialRegionCap is each rank's pre-carved directory capacity; typical
// worlds hold a handful of regions per rank at once (scratch, window data and
// control), and directories growing past it just reallocate.
const initialRegionCap = 8

// Size returns the number of ranks.
func (f *Fabric) Size() int { return f.n }

// RanksPerNode returns the node width.
func (f *Fabric) RanksPerNode() int { return f.ranksPerNode }

// LookupRegion resolves an address to its live registration (a route miss).
func (f *Fabric) LookupRegion(a Addr) *Region {
	if a.Rank < 0 || a.Rank >= f.n {
		panic(fmt.Sprintf("simnet: address names rank %d outside fabric of %d", a.Rank, f.n))
	}
	return f.nodes[a.Rank].dir.Lookup(a)
}
