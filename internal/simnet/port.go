package simnet

import (
	"runtime"
	"sync/atomic"

	"fompi/internal/timing"
)

// Port is one rank's target-side arrival state: the doorbell generation,
// the lock that serializes NIC booking and AMO stamp chains, and the NIC
// busy interval — everything an operation landing in the rank's memory must
// touch, behind one word. It lives where the rank's memory lives (the
// fabric's node in process, the rank's arena slot on the shared-memory
// backends, the owner's World on the wire backend), so every process that
// can address the memory addresses the same port; the three fields are the
// shared-memory layout.
//
// word is generation<<genShift | waiters<<1 | lock bit. Acquire is one CAS
// setting the bit; release is one atomic add that clears it and, for a
// write, carries into the generation: genOne-1 rings, -1 does not. A ring
// from outside the lock adds genOne. A door waiter adds waiterOne on entry —
// reading the generation from that same add — and subtracts it on exit.
// Every transition is an add or a CAS on the whole word, never a store, so a
// ring concurrent with a held lock or an arriving waiter is not lost, the
// bit is neither dropped nor leaked, and a ring's own add tells it whether
// anyone waits: either the waiter's add came first and the ring sees it, or
// the ring's came first and the waiter reads the new generation. The NIC
// interval is plain memory guarded by the lock.
//
// Where they are parked, and waking them, is the door's business
// (ParkHook.DoorWait): the port only moves the generation they re-check and
// counts them.
type Port struct {
	word     uint64
	nicStart int64 // NIC busy interval [nicStart, nicBusy) in virtual time
	nicBusy  int64
}

// The port word's fields. The waiter count must never carry into the
// generation, and cannot: a waiter is counted once while it waits, which
// bounds a port's count by one per rank in process (the largest world run is
// p = 4096, and NewFabric refuses more than maxWaiters ranks), and in a
// process world by one per host-mate plus, on the owner's own port, the rank
// itself and one DOORWAIT handler per peer (≤ 2 × mprun.MaxRanks = 2048) —
// far below the field's maximum, maxWaiters = 2^16 − 1.
const (
	waiterOne   = 1 << 1
	genShift    = 17
	genOne      = 1 << genShift
	waiterField = genOne - waiterOne
	maxWaiters  = waiterField / waiterOne
)

// Lock acquires the port. Critical sections are a NIC booking and a few
// stamp records, so contention is resolved by spinning.
func (p *Port) Lock() {
	// Inlinable uncontended path, as in sync.Mutex: expect the word as it
	// reads now but unlocked.
	if w := atomic.LoadUint64(&p.word) &^ 1; !atomic.CompareAndSwapUint64(&p.word, w, w|1) {
		p.lockSlow()
	}
}

func (p *Port) lockSlow() {
	for {
		w := atomic.LoadUint64(&p.word)
		if w&1 != 0 {
			runtime.Gosched()
		} else if atomic.CompareAndSwapUint64(&p.word, w, w|1) {
			return
		}
	}
}

// Unlock releases the port without ringing: reads, and the wire owner's
// writes, whose ring arrives separately as the frame's flag.
func (p *Port) Unlock() { atomic.AddUint64(&p.word, ^uint64(0)) }

// UnlockRing releases the port and advances the generation in the same add,
// and reports whether that add found waiters: only then does the caller wake
// them (ParkHook.DoorWake).
func (p *Port) UnlockRing() (waiters bool) {
	mDoorRings.Inc()
	return atomic.AddUint64(&p.word, genOne-1)&waiterField != 0
}

// Ring advances the generation from outside the lock and reports whether
// the add found waiters, as UnlockRing does.
func (p *Port) Ring() (waiters bool) {
	mDoorRings.Inc()
	return atomic.AddUint64(&p.word, genOne)&waiterField != 0
}

// Gen samples the doorbell generation.
func (p *Port) Gen() uint64 { return atomic.LoadUint64(&p.word) >> genShift }

// enter counts a door waiter in and returns the generation its add found.
func (p *Port) enter() uint64 { return atomic.AddUint64(&p.word, waiterOne) >> genShift }

// leave counts a door waiter out.
func (p *Port) leave() { atomic.AddUint64(&p.word, ^uint64(waiterOne-1)) }

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
