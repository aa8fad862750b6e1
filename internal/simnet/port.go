package simnet

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"fompi/internal/hostatomic"
	"fompi/internal/timing"
)

// Port is one rank's target-side arrival state: the doorbell generation,
// the lock that serializes NIC booking and AMO stamp chains, and the NIC
// busy interval — everything an operation landing in the rank's memory must
// touch. It lives where the rank's memory lives (the fabric's node in
// process, the rank's arena slot on the shared-memory backends, the owner's
// World on the wire backend), so every process that can address the memory
// addresses the same port; the four fields are the shared-memory layout.
//
// word changes only by a CAS that finds both bits clear (Lock, a read's;
// LockRing, every write's) and by the holder's release, a release store: one
// locked instruction a hold.
// wait changes by adds alone, which never wait on the lock: a ring from
// outside the port (Ring), a door waiter's entry and exit. The generation is
// the sum of the two ring counts, each only growing. A ringing writer and a
// door waiter meet in a Dekker handshake, both sides locked: LockRing's CAS
// sets the ring bit before UnlockRing reads the waiter count, and a waiter's
// add counts it in before it reads word, so either the writer finds the
// waiter or the waiter finds the ring bit — and waits the hold out awake
// (ParkHook.DoorWait) — or the release. A Ring meets the waiter on wait
// itself. The NIC interval is plain memory guarded by the lock. Parking and
// waking the waiters is the door's business.
type Port struct {
	word     uint64 // holder rings<<2 | ring bit | lock bit
	wait     uint64 // outside rings<<16 | door waiters
	nicStart int64  // NIC busy interval [nicStart, nicBusy) in virtual time
	nicBusy  int64
}

// The waiter count cannot carry into the outside rings: a waiter is counted
// once while it waits, so a port counts at most one per rank in process
// (NewFabric refuses more than maxWaiters ranks; the largest world run is
// p = 4096) and, in a process world, one per host-mate plus, on the owner's
// port, the rank and one DOORWAIT handler per peer (≤ 2 × mprun.MaxRanks).
const (
	lockBit     = 1
	ringBit     = 2
	heldBits    = lockBit | ringBit
	holderRing  = 1 << 2
	outsideRing = 1 << 16
	maxWaiters  = outsideRing - 1
)

// Lock acquires the port for a read: a get's NIC booking. Holds are a NIC
// booking and a few stamp records, so contention spins; the uncontended path
// inlines, as in sync.Mutex.
func (p *Port) Lock() {
	if w := atomic.LoadUint64(&p.word) &^ heldBits; !atomic.CompareAndSwapUint64(&p.word, w, w|lockBit) {
		p.lockSlow(lockBit)
	}
}

// LockRing acquires the port for a write, which rings in its release: its
// CAS sets the ring bit too, which a door waiter arriving during the hold
// reads.
func (p *Port) LockRing() {
	if w := atomic.LoadUint64(&p.word) &^ heldBits; !atomic.CompareAndSwapUint64(&p.word, w, w|heldBits) {
		p.lockSlow(heldBits)
	}
}

func (p *Port) lockSlow(bits uint64) {
	for {
		w := atomic.LoadUint64(&p.word)
		if w&heldBits != 0 {
			runtime.Gosched()
		} else if atomic.CompareAndSwapUint64(&p.word, w, w|bits) {
			return
		}
	}
}

// Unlock releases the port without ringing.
func (p *Port) Unlock() { p.release(atomic.LoadUint64(&p.word) &^ lockBit) }

// UnlockRing releases a LockRing hold, counting a ring in the same store,
// and reports whether door waiters are counted: only then does the caller
// wake them (ParkHook.DoorWake). It is no release of a Lock hold, whose CAS
// set no ring bit and fenced no waiter count.
func (p *Port) UnlockRing() (waiters bool) {
	mDoorRings.Inc()
	return p.unlockRung()
}

// unlockRung is UnlockRing, but the caller counts door.rings (so that the
// word bodies inline it): one release store clears both bits, counts a ring.
func (p *Port) unlockRung() (waiters bool) {
	p.release(atomic.LoadUint64(&p.word) + (holderRing - heldBits))
	return atomic.LoadUint64(&p.wait)&maxWaiters != 0
}

// release stores the holder's last value of word: on amd64 a plain store
// (hostatomic.StoreRel64), which every store made under the port precedes.
func (p *Port) release(w uint64) {
	hostatomic.StoreRel64((*int64)(unsafe.Pointer(&p.word)), int64(w))
}

// Ring advances the generation from outside the lock and reports whether
// its add found waiters, as UnlockRing does. It never waits on a held port.
func (p *Port) Ring() (waiters bool) {
	mDoorRings.Inc()
	return atomic.AddUint64(&p.wait, outsideRing)&maxWaiters != 0
}

// Gen samples the doorbell generation.
func (p *Port) Gen() uint64 {
	g, _ := p.look()
	return g
}

// look samples the generation and whether a LockRing holds the port. word
// is read first: a waiter that finds the ring bit clear reads a generation
// that counts every release it could have missed.
func (p *Port) look() (gen uint64, ringing bool) {
	w := atomic.LoadUint64(&p.word)
	return w/holderRing + atomic.LoadUint64(&p.wait)/outsideRing, w&ringBit != 0
}

// enter counts a door waiter in.
func (p *Port) enter() { atomic.AddUint64(&p.wait, 1) }

// leave counts a door waiter out.
func (p *Port) leave() { atomic.AddUint64(&p.wait, ^uint64(0)) }

// BookNIC reserves the port's NIC for xfer virtual nanoseconds starting no
// earlier than arrival and returns the transfer's completion time; the
// caller holds the lock. This serializes concurrent senders into one target
// (incast).
//
// Reservations are made in real execution order, which need not match
// virtual arrival order: a goroutine that runs ahead in real time may book
// late-virtual-time transfers before a slower goroutine books a
// virtually-earlier one. The NIC therefore tracks its current busy interval:
// an arrival that overlaps the interval queues behind it (true incast —
// colliding senders serialize), while a transfer that ends before the
// interval even starts is served in the idle time its tardy booking left
// behind. Without the hole-serving rule, scheduler noise would queue
// microsecond-scale flag updates behind unrelated future bulk traffic and
// distort every synchronization latency.
func (p *Port) BookNIC(arrival timing.Time, xfer int64) timing.Time {
	a := int64(arrival)
	switch {
	case a >= p.nicBusy:
		// NIC idle at arrival: start a fresh busy interval.
		p.nicStart, p.nicBusy = a, a+xfer
	case a+xfer <= p.nicStart:
		// Entirely before the booked interval: the NIC was idle then.
		return timing.Time(a + xfer)
	default:
		// Overlaps the busy interval: queue behind it.
		p.nicBusy += xfer
	}
	return timing.Time(p.nicBusy)
}
