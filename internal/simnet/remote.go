package simnet

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"fompi/internal/hostatomic"
	"fompi/internal/timing"
)

// This file is the carve line for backends whose remote memory is NOT
// addressable from the issuing process (internal/netrun's off-host peers).
// The in-process fabric and the mmap-shared multi-process backend hand
// Endpoint a *Region whose buf and stamps are real local memory, and every
// operation runs the data/stamp half inline. An inter-node backend instead
// returns proxy regions (MakeRemoteRegion) carrying a RemoteMem, and Endpoint
// routes the data/stamp/NIC half of each operation through it as one message
// to the owner, where a RegionExec replays exactly the arithmetic the inline
// path would have run. The requester-local half — cost-model charges, source
// NIC serialization, clock merges — never leaves Endpoint, which is what
// keeps virtual times bit-identical across all backends (the conformance
// suite in internal/transporttest pins this).

// AmoOp selects the operator of a remote atomic: the one operator set of
// the target's atomic unit, behind both the single-word fetching AMOs
// (Endpoint.FetchOp, CompareSwap, AddNBI) and the chained AMOs
// (Endpoint.AmoBulkNBI). It is the DMAPP-accelerated set — the common integer
// operations on 8-byte data, §2.4 of the paper — plus compare-and-swap and an
// atomic read. Its value is the op byte of the wire's opAmo entry.
type AmoOp uint8

// Atomic-unit operators.
const (
	AmoSum AmoOp = iota
	AmoBand
	AmoBor
	AmoBxor
	AmoReplace
	AmoCas  // o1 compare, o2 swap
	AmoNoOp // fetch only
)

// checkAmo faults on an operator outside the set, before any port is taken.
func checkAmo(op AmoOp) {
	if op > AmoNoOp {
		panic(fmt.Sprintf("simnet: unknown AMO operator %d", op))
	}
}

// applyAmo performs one word atomic on buf and returns the prior value. op
// has passed checkAmo, so what is left after the switch is AmoNoOp.
func applyAmo(buf []byte, off int, op AmoOp, o1, o2 uint64) (old uint64) {
	switch op {
	case AmoSum:
		return hostatomic.Add(buf, off, o1)
	case AmoBand:
		return hostatomic.And(buf, off, o1)
	case AmoBor:
		return hostatomic.Or(buf, off, o1)
	case AmoBxor:
		return hostatomic.Xor(buf, off, o1)
	case AmoReplace:
		return hostatomic.Swap(buf, off, o1)
	case AmoCas:
		return hostatomic.Cas(buf, off, o1, o2)
	}
	return hostatomic.Load(buf, off)
}

// RemoteMem executes the owner-side half of Endpoint operations against a
// region the issuing process cannot address. It has one method per kind of
// data operation — put, get, atomic and notify, the DMAPP primitives foMPI
// builds MPI-3 RMA on (a word store is an 8-byte put, a word load an 8-byte
// get). Times crossing this interface are virtual; the `reserve` flag of
// each method selects the inter-node path (completion = owner-NIC
// reservation of xfer virtual ns starting at arrival: Port.BookNIC under the
// owner's port) versus the intra-node path (completion = arrival,
// precomputed by the caller). Implementations must apply each call
// atomically enough that bytes, stamps, and NIC state mutate with the same
// interleaving guarantees the in-process fabric gives concurrently issuing
// ranks, and in this rank's issue order; RegionExec provides the canonical
// execution.
//
// The operations differ only in when their completion is collected. The
// fire class (Put) returns nothing the issuer needs before it goes on, so a
// call only posts the operation: its completion time is delivered later, on
// the issuing rank's goroutine, during the next WireDrainer.DrainWire or
// value-class call — written through sink, folded with timing.Max when fold
// is true (the implicit-completion accumulator discipline — commutative, so
// delivery order cannot leak into virtual time) and assigned when false. sink
// must stay valid until then. The value class (Get, Amo, Notify) returns
// data or the times the issuer's clock depends on, so a call blocks for its
// reply — behind every operation posted before it. Every write — Put, Notify
// and Amo — rings the owner's doorbell itself, in the release of the owner's
// port (RegionExec): the ring is part of the write, so it can neither
// overtake the bytes it announces nor cost a message of its own.
type RemoteMem interface {
	// Size returns the registered length (bounds checks on the proxy).
	Size() int
	// Put copies src into [off,off+len(src)) and stamps the range with the
	// transfer's completion time, which it delivers to sink. The owner runs
	// an aligned 8-byte src as RegionExec.PutWord: one atomic store, after
	// its stamp.
	Put(off int, src []byte, reserve bool, arrival timing.Time, xfer int64, sink *timing.Time, fold bool)
	// Get copies [off,off+len(dst)) into dst. base is max(clockIn, the
	// range's stamp maximum); completion is base+tail intra-node or the NIC
	// reservation of xfer at base+tail inter-node. The owner runs an
	// aligned 8-byte dst as RegionExec.GetWord: one atomic load, before its
	// stamp.
	Get(dst []byte, off int, clockIn timing.Time, reserve bool, tail, xfer int64) timing.Time
	// Amo applies op element-wise between the words of src and the remote
	// words at off (compare-and-swap compares with src's word and swaps in
	// swap), writing the prior words to old unless old is nil. base =
	// max(clockIn, the range's prior stamp maximum); the update lands
	// intra-node at base+lat, or inter-node through source-NIC
	// serialization (srcFree) and an owner-NIC reservation; the range is
	// stamped with land. newFree is the advanced source-NIC cursor
	// (meaningful only when reserve is true).
	Amo(op AmoOp, off int, src []byte, swap uint64, old []byte, clockIn, srcFree timing.Time, reserve bool, lat, xfer int64) (land, base, newFree timing.Time)
	// Notify runs the notification-ring deposit protocol at off (capacity
	// and overflow checks, ticket, slot store) with Put-shaped timing for
	// the 8-byte flag, and returns the flag's completion.
	Notify(off int, word uint64, reserve bool, arrival timing.Time, xfer int64) timing.Time
}

// WireDrainer is the Transport extension of a backend that hands out
// RemoteMem proxies: DrainWire blocks until every fire-class operation this
// rank posted has executed at its owner and delivered its completion time to
// its sink. Endpoint calls it at every blocking point (Gsync, Wait, Test,
// WaitLocal, PollRemoteWord, a blocking put on a proxy) so no virtual-time
// read can observe a partially delivered window. The in-process fabric has
// no wire to drain and does not implement it.
type WireDrainer interface {
	DrainWire()
}

// RegionExec executes RemoteMem's operations against a locally
// addressable region: the one acquire/book/stamp/release sequence over the
// owner's port that both the inline issue path (Endpoint, for every region
// with real bytes behind it) and the owner-side half of an inter-node
// backend's service loop run. Every write rings the owner's doorbell itself:
// one that takes the port takes it with LockRing and rings in its release,
// one that takes none (an intra-node put) rings from outside it, and if the
// ring reported waiters they are woken through Ring.WakeDoor — the inline
// path's transport, or the wire owner's World. A read takes the port with
// Lock and rings nothing. Methods panic on faults — out-of-bounds or
// misaligned access, ring overflow — with the same messages on either path,
// and never while holding the port: a rank spinning on a leaked port could
// not unwind when the world aborts. A backend forwards the panic to the
// requester.
//
// The stores that publish a write — its stamp records, a one-word put's
// value, a notification's slot — are release stores (hostatomic.StoreRel64),
// and so is the port's release after them: whoever sees the generation it
// advances sees them. A ring from outside the port is an add, a full fence.
type RegionExec struct {
	Reg  *Region
	Ring Transport
}

// done announces a completed write: it releases the port with the ring if
// the write held it (LockRing), or rings from outside it, and wakes the
// owner's waiters only if the ring reported any.
func (x RegionExec) done(locked bool) {
	p := x.Reg.port
	if locked && p.UnlockRing() || !locked && p.Ring() {
		x.Ring.WakeDoor(x.Reg.owner)
	}
}

// Put copies src and stamps the range (see RemoteMem.Put). One aligned word
// is PutWord's. A bulk copy stays outside the port, which it holds for its
// stamp records only.
func (x RegionExec) Put(off int, src []byte, reserve bool, arrival timing.Time, xfer int64) timing.Time {
	if len(src) == 8 && off&7 == 0 {
		return x.PutWord(off, binary.LittleEndian.Uint64(src), reserve, arrival, xfer)
	}
	x.Reg.check(off, len(src))
	copy(x.Reg.buf[off:off+len(src)], src)
	comp := arrival
	if reserve {
		x.Reg.port.LockRing()
		comp = x.Reg.port.BookNIC(arrival, xfer)
	}
	x.Reg.stamps.SetRange(off, len(src), comp)
	x.done(reserve)
	return comp
}

// PutWord is Put of the word v at off: every one-word put's body — StoreW,
// a notification's slot, a put of 8 aligned bytes — inline and at a wire
// owner. The word moves as one release store, after its stamp: a rank
// polling it outside the port (WaitLocal) may read it at any moment and
// merges its stamp the moment it sees the value. Inter-node it holds the
// port from its CAS to its release store, which rings, and makes no Go call
// there but Set, for a record of more than a store; intra-node it takes no
// port and rings from outside it.
func (x RegionExec) PutWord(off int, v uint64, reserve bool, arrival timing.Time, xfer int64) (comp timing.Time) {
	reg, p := x.Reg, x.Reg.port
	reg.checkWords(off, 8)
	comp = arrival
	if reserve {
		mDoorRings.Inc() // the ring its release carries
		p.LockRing()
		comp = p.BookNIC(arrival, xfer)
	}
	if rec := reg.stamps.WordRecord(off); rec != nil {
		hostatomic.StoreRel64(rec, int64(comp))
	} else {
		reg.stamps.Set(off, comp)
	}
	// hostatomic.StoreRel less the checks checkWords made: StoreRel itself
	// does not inline, and would be a call inside the hold.
	hostatomic.StoreRel64((*int64)(unsafe.Pointer(&reg.buf[off])), int64(v))
	if reserve && p.unlockRung() || !reserve && p.Ring() {
		x.Ring.WakeDoor(reg.owner) // the ring, in the release or outside, found waiters
	}
	return comp
}

// Get copies the range out and resolves its completion (see RemoteMem.Get).
// One aligned word is GetWord's.
func (x RegionExec) Get(dst []byte, off int, clockIn timing.Time, reserve bool, tail, xfer int64) timing.Time {
	if len(dst) == 8 && off&7 == 0 {
		v, comp := x.GetWord(off, clockIn, reserve, tail, xfer)
		binary.LittleEndian.PutUint64(dst, v)
		return comp
	}
	x.Reg.check(off, len(dst))
	copy(dst, x.Reg.buf[off:off+len(dst)])
	comp := timing.Max(clockIn, x.Reg.stamps.MaxRange(off, len(dst))) + timing.Time(tail)
	if reserve {
		p := x.Reg.port
		p.Lock()
		comp = p.BookNIC(comp, xfer) // data leaves the target NIC
		p.Unlock()
	}
	return comp
}

// GetWord is Get of the word at off, returned as a scalar: every one-word
// get's body — LoadW, PollRemoteWord, a get of 8 aligned bytes — inline and
// at a wire owner. The word is loaded before its stamp is read, the mirror
// of PutWord's order; inter-node the NIC booking is one port hold.
func (x RegionExec) GetWord(off int, clockIn timing.Time, reserve bool, tail, xfer int64) (v uint64, comp timing.Time) {
	reg := x.Reg
	reg.checkWords(off, 8)
	v = hostatomic.Load(reg.buf, off)
	comp = timing.Max(clockIn, reg.stamps.Get(off)) + timing.Time(tail)
	if reserve {
		p := reg.port
		p.Lock()
		comp = p.BookNIC(comp, xfer) // data leaves the target NIC
		p.Unlock()
	}
	return v, comp
}

// Amo applies an atomic over the words at off (see RemoteMem.Amo): one
// word for the fetching AMOs, a chain of them for DMAPP's chained AMOs. The
// whole read-apply-stamp sequence holds the owner's port, intra-node too:
// atomics chain through their words' stamps, and a racing AMO that read the
// same prior stamp would overwrite this one's later landing with an earlier
// time, leaking host scheduling into the stamps that pollers merge. Under
// the port every chain link is atomic and the stamp strictly monotone
// (land = max(clock, prev) + latency > prev) — across regions, requesters
// and the processes that map the port. Every fault — the range, the
// operator, an operand or fetch buffer of the wrong length — is raised
// before the port is taken.
func (x RegionExec) Amo(op AmoOp, off int, src []byte, swap uint64, old []byte, clockIn, srcFree timing.Time, reserve bool, lat, xfer int64) (land, base, newFree timing.Time) {
	x.Reg.checkWords(off, len(src))
	checkAmo(op)
	if len(src)%8 != 0 || (old != nil && len(old) != len(src)) {
		panic(fmt.Sprintf("simnet: AMO over %d operand bytes fetching into %d: want whole words, as many fetched", len(src), len(old)))
	}
	if len(src) == 8 { // a word AMO: AmoWord's body
		v, land, base, newFree := x.AmoWord(op, off, binary.LittleEndian.Uint64(src), swap, clockIn, srcFree, reserve, lat, xfer)
		if old != nil {
			binary.LittleEndian.PutUint64(old, v)
		}
		return land, base, newFree
	}
	x.Reg.port.LockRing()
	base = timing.Max(clockIn, x.Reg.stamps.MaxRange(off, len(src)))
	for i := 0; i < len(src); i += 8 {
		v := applyAmo(x.Reg.buf, off+i, op, binary.LittleEndian.Uint64(src[i:]), swap)
		if old != nil {
			binary.LittleEndian.PutUint64(old[i:], v)
		}
	}
	land, newFree = x.landAt(base, srcFree, reserve, lat, xfer)
	x.Reg.stamps.SetRange(off, len(src), land)
	x.done(true)
	return land, base, newFree
}

// AmoWord is Amo over the word at off with scalar operands (o2: a CAS's
// swap), returning the prior word: every fetching AMO's body, inline and at
// a wire owner. From the port's CAS to its release store it calls only
// applyAmo, for ops but AmoSum, and Set, for a record of more than a store.
func (x RegionExec) AmoWord(op AmoOp, off int, o1, o2 uint64, clockIn, srcFree timing.Time, reserve bool, lat, xfer int64) (old uint64, land, base, newFree timing.Time) {
	reg, p := x.Reg, x.Reg.port
	reg.checkWords(off, 8)
	checkAmo(op)
	mDoorRings.Inc() // the ring its release carries
	p.LockRing()
	base = timing.Max(clockIn, reg.stamps.Get(off))
	if op == AmoSum {
		old = hostatomic.Add(reg.buf, off, o1)
	} else {
		old = applyAmo(reg.buf, off, op, o1, o2)
	}
	land, newFree = x.landAt(base, srcFree, reserve, lat, xfer)
	if rec := reg.stamps.WordRecord(off); rec != nil {
		hostatomic.StoreRel64(rec, int64(land))
	} else {
		reg.stamps.Set(off, land)
	}
	if p.unlockRung() {
		x.Ring.WakeDoor(reg.owner)
	}
	return old, land, base, newFree
}

// landAt resolves a transfer departing at base, which itself depended on
// the target's stamps (AMO paths): source-NIC serialization through the
// requester's cursor, then the target-NIC booking. The caller holds the
// port.
func (x RegionExec) landAt(base, srcFree timing.Time, reserve bool, lat, xfer int64) (land, newFree timing.Time) {
	if !reserve {
		return base + timing.Time(lat), srcFree
	}
	depart := timing.Max(base, srcFree)
	return x.Reg.port.BookNIC(depart+timing.Time(lat), xfer), depart + timing.Time(xfer)
}

// Notify runs the ring deposit protocol (see RemoteMem.Notify and the ring
// layout in notify.go).
func (x RegionExec) Notify(off int, word uint64, reserve bool, arrival timing.Time, xfer int64) timing.Time {
	reg := x.Reg
	reg.checkWords(off, notifyHeaderBytes)
	capacity := hostatomic.Load(reg.buf, off+16)
	if capacity == 0 {
		panic(fmt.Sprintf("simnet: notification into unbound ring (rank %d key %d off %d)",
			reg.owner, reg.key, off))
	}
	// Not reg.check(off, NotifyRingBytes(capacity)): a capacity word that was
	// overwritten can wrap that sum, and the slot store below would then
	// panic with the port held.
	if capacity > uint64(reg.Size()-off-notifyHeaderBytes)/8 {
		panic(fmt.Sprintf("simnet: notification ring claims %d slots, more than its region holds (rank %d key %d off %d)",
			capacity, reg.owner, reg.key, off))
	}
	ticket := hostatomic.Add(reg.buf, off, 1)
	cons := hostatomic.Load(reg.buf, off+8)
	if ticket-cons >= capacity {
		panic(fmt.Sprintf("simnet: notification ring of rank %d overflowed (%d in flight, capacity %d)",
			reg.owner, ticket-cons+1, capacity))
	}
	return x.PutWord(off+notifyHeaderBytes+int(ticket%capacity)*8, word|notifyValid, reserve, arrival, xfer)
}
