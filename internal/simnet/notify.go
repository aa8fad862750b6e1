package simnet

import (
	"fompi/internal/hostatomic"
	"fompi/internal/timing"
)

// Notified access (foMPI-NA, Belli & Hoefler IPDPS'15): a put or get may
// carry an 8-byte notification word that the fabric deposits into a bounded
// notification ring at the data's target after the data itself has landed.
// The target learns of the access by polling one local word instead of
// closing a synchronization epoch — the single-word-poll hot path that
// pipelined producer/consumer protocols are built on (DESIGN.md §7).
//
// A ring lives inside registered memory so remote ranks can address it, and
// is self-describing:
//
//	off+0:  producer count (remote fetch-add, one ticket per notification)
//	off+8:  consumer count (owner-advanced after each pop)
//	off+16: capacity (set once by BindNotifyRing; zero means unbound)
//	off+24: capacity × 8-byte slots, slot = ticket mod capacity
//
// Delivery writes the slot, then publishes the ticket, then rings the
// owner's doorbell; the slot is stamped with the notification's virtual
// completion time, which is never earlier than the accompanying data's, so
// a consumer that merges the stamp observes the data causally. Arrivals
// into a full ring fault, modelling the paper's bounded-buffer discipline.

// notifyHeaderBytes is the ring bookkeeping before the slot array.
const notifyHeaderBytes = 24

// notifyValid marks an occupied slot; it is reserved, so notification words
// must fit in 63 bits.
const notifyValid = uint64(1) << 63

// NotifyRingBytes returns the registered bytes a ring of the given capacity
// occupies.
func NotifyRingBytes(capacity int) int { return notifyHeaderBytes + capacity*8 }

// NotifyRing is the owner-side handle of a notification ring embedded in one
// of the owner's registered regions. Like an Endpoint it is confined to the
// owning rank's goroutine; remote ranks address the ring by its base Addr.
type NotifyRing struct {
	reg *Region
	off int
	cap int
}

// BindNotifyRing initializes a notification ring of the given capacity at
// byte offset off inside reg (which the caller must own) and returns the
// owner-side handle. The header and slots are zeroed.
func BindNotifyRing(reg *Region, off, capacity int) *NotifyRing {
	nr := &NotifyRing{}
	nr.Bind(reg, off, capacity)
	return nr
}

// Bind initializes a caller-owned ring handle in place (see BindNotifyRing);
// windows embed the handle instead of allocating one per window.
//
// The zeroing is a plain clear, and one atomic store of the capacity then
// publishes it: a ring is bound before the collective that lets any peer
// address its region (a window binds in winBase, ahead of its creation
// collective), so no remote access races the clear.
func (nr *NotifyRing) Bind(reg *Region, off, capacity int) {
	if capacity <= 0 {
		panic("simnet: notification ring needs positive capacity")
	}
	n := NotifyRingBytes(capacity)
	reg.check(off, n)
	if off&7 != 0 {
		panic("simnet: notification ring must be 8-byte aligned")
	}
	clear(reg.buf[off : off+n])
	hostatomic.Store(reg.buf, off+16, uint64(capacity))
	*nr = NotifyRing{reg: reg, off: off, cap: capacity}
}

// Base returns the fabric address remote ranks pass to PutNotify/GetNotify.
func (nr *NotifyRing) Base() Addr { return Addr{Rank: nr.reg.owner, Key: nr.reg.key, Off: nr.off} }

// Cap returns the ring capacity.
func (nr *NotifyRing) Cap() int { return nr.cap }

// Pending returns the number of delivered, not-yet-popped notifications.
func (nr *NotifyRing) Pending() int {
	prod := hostatomic.Load(nr.reg.buf, nr.off)
	cons := hostatomic.Load(nr.reg.buf, nr.off+8)
	return int(prod - cons)
}

// TryPopStamped removes the oldest notification and returns it with its
// virtual completion stamp, NOT merging the stamp into ep's clock: matching
// layers scan past entries they are not waiting for, and — like the PSCW
// matching list — must pay the time of only the entry they actually consume.
// The caller merges the stamp (ep.AdvanceTo) when it commits to a match.
// ep must be the ring owner's endpoint.
func (nr *NotifyRing) TryPopStamped(ep *Endpoint) (uint64, timing.Time, bool) {
	prod := hostatomic.Load(nr.reg.buf, nr.off)
	cons := hostatomic.Load(nr.reg.buf, nr.off+8)
	if cons == prod {
		return 0, 0, false
	}
	slot := nr.off + notifyHeaderBytes + int(cons%uint64(nr.cap))*8
	w := hostatomic.Load(nr.reg.buf, slot)
	if w&notifyValid == 0 {
		// The producer holds the ticket but has not stored the word yet;
		// indistinguishable from not-yet-arrived.
		return 0, 0, false
	}
	stamp := nr.reg.stamps.Get(slot)
	hostatomic.Store(nr.reg.buf, slot, 0)
	hostatomic.Store(nr.reg.buf, nr.off+8, cons+1)
	ep.ctr.Polls++
	ep.clock += timing.Time(ep.cm.Intra.PollNs)
	return w &^ notifyValid, stamp, true
}

// TryPop removes the oldest notification, merging its completion stamp into
// ep's clock (so the data it announces is causally visible), and reports
// whether one was available.
func (nr *NotifyRing) TryPop(ep *Endpoint) (uint64, bool) {
	w, stamp, ok := nr.TryPopStamped(ep)
	if ok {
		ep.AdvanceTo(stamp)
	}
	return w, ok
}

// Pop blocks until a notification arrives and returns it. Producers ring the
// owner's doorbell, so no busy spinning occurs.
func (nr *NotifyRing) Pop(ep *Endpoint) uint64 {
	var w uint64
	var ok bool
	ep.WaitLocal(func() bool {
		w, ok = nr.TryPop(ep)
		return ok
	})
	return w
}

// deliverNotify deposits word into the remote ring, completing no earlier
// than after (the accompanying data's completion), and returns the
// notification's virtual completion time. A fused notification rides the
// data operation's descriptor (Gemini's completion event) and charges only
// the NotifyNs rider; a standalone one is a full 8-byte flag put.
func (ep *Endpoint) deliverNotify(ring Addr, word uint64, after timing.Time, fused bool) timing.Time {
	if word&notifyValid != 0 {
		panic("simnet: notification word uses reserved bit 63")
	}
	rt := ep.route(ring)
	reg, pr, same := rt.reg, rt.pr, rt.same
	if fused {
		ep.clock += timing.Time(pr.NotifyNs)
	} else {
		// A bare notification is physically its own 8-byte flag put.
		ep.clock += timing.Time(pr.InjectNs + pr.NotifyNs)
		ep.ctr.Puts++
	}
	// The ring deposit protocol (capacity and overflow checks, ticket, slot
	// store) executes where the ring's memory is — here, or at the owner of
	// unreachable remote memory; the clock charges and the source-NIC half
	// of the flag's transfer stay here.
	xfer := ep.xferNs(rt, 8)
	arrival := ep.xferArrival(same, timing.Max(ep.clock, after), pr.PutLatNs, xfer)
	var comp timing.Time
	if rm := reg.rmt; rm != nil {
		reg.check(ring.Off, notifyHeaderBytes)
		comp = rm.Notify(ring.Off, word, !same, arrival, xfer)
	} else {
		comp = ep.exec(reg).Notify(ring.Off, word, !same, arrival, xfer)
	}
	ep.ctr.Notifies++
	ep.ctr.BytesPut += 8
	return comp
}

// PutNotify performs an implicit-nonblocking put of src to dst and delivers
// word into the target-side ring once the data is complete (data-before-
// notification ordering). Remote completion of both is guaranteed by Gsync;
// the returned time is the notification's completion (instrumentation).
func (ep *Endpoint) PutNotify(dst Addr, src []byte, ring Addr, word uint64) timing.Time {
	if dst.Rank != ring.Rank {
		panic("simnet: PutNotify ring must live at the data's target rank")
	}
	dataComp := ep.putCommon(dst, src)
	comp := ep.deliverNotify(ring, word, dataComp, true)
	ep.implicitMax = timing.Max(ep.implicitMax, comp)
	return comp
}

// GetNotify performs a blocking get of src into dst and delivers word into a
// ring at the data's owner, informing it that the memory has been read (the
// notified-get of foMPI-NA). The notification completes remotely no earlier
// than the read.
func (ep *Endpoint) GetNotify(dst []byte, src Addr, ring Addr, word uint64) timing.Time {
	if src.Rank != ring.Rank {
		panic("simnet: GetNotify ring must live at the data's owner rank")
	}
	dataComp := ep.getCommon(dst, src)
	ep.AdvanceTo(dataComp)
	comp := ep.deliverNotify(ring, word, dataComp, true)
	ep.implicitMax = timing.Max(ep.implicitMax, comp)
	return comp
}

// Notify delivers a bare notification word with no accompanying data: the
// credit/doorbell primitive of pipelined protocols (a zero-byte PutNotify).
func (ep *Endpoint) Notify(ring Addr, word uint64) timing.Time {
	ep.paceOp()
	comp := ep.deliverNotify(ring, word, 0, false)
	ep.implicitMax = timing.Max(ep.implicitMax, comp)
	return comp
}
