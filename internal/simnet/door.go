package simnet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fompi/internal/telemetry"
)

// The door metrics: registered here and nowhere else, whichever backend's
// hook parks the waiter. door.pokes counts pokes a hook delivered — on the
// arena, the FUTEX_WAKE a write to a parked target pays.
var (
	mDoorParks  = telemetry.NewCounter("door.parks")
	mDoorParkNs = telemetry.NewHistogram("door.park_ns")
	mDoorPokes  = telemetry.NewCounter("door.pokes")
)

// DoorSlice bounds one Wait, and is the parked waiter's heartbeat: after that
// much sleep it looks at the generation and the abort state on its own and
// returns, rung or not, and the caller re-checks its predicate. That is what
// recovers a poke the hook dropped, rare on every backend, hence long.
const DoorSlice = 100 * time.Millisecond

// ParkHook is all a backend supplies to the two disciplines that put a rank
// to sleep, the door and Pacer: how a slot sleeps, how a sleeping slot is
// reached, and whether the world still stands. An n-rank world has 2n slots.
// Slot r is rank r's door: every goroutine waiting on r's port sleeps under
// it, whoever it is, so a ring on r is one poke of slot r. Slot n+r is where
// rank r sleeps pace-blocked (Pacer), apart from its door, so a ring never
// ends a pace park.
type ParkHook struct {
	// Seq returns slot's poke sequence. A sleeper samples it before the last
	// look at what it waits for and hands it to Park, so a poke that lands
	// between that look and the sleep, whoever else it woke, still ends the
	// sleep.
	Seq func(slot int) uint64
	// Park blocks the caller under slot for at most d, or not at all if the
	// slot's sequence is no longer seq, and reports whether something other
	// than the timeout ended the sleep (a Poke, or any wakeup that shares its
	// channel). Only timeouts count as heartbeats.
	Park func(slot int, seq uint64, d time.Duration) (poked bool)
	// Poke wakes every goroutine parked under slot and reports whether a
	// signal was delivered.
	Poke func(slot int) bool
	// Aborted returns nil while the world stands and otherwise the value
	// blocked waiters unwind with: ErrAborted, or an *ErrPeerFailed naming
	// the rank whose death took the world down.
	Aborted func() error
	// Refresh, when set, re-reads rank's clock from where it is published
	// and Observes it: the table of a backend whose ranks share no memory
	// holds last-known clocks. Nil where the table is the shared truth. Only
	// the Pacer calls it.
	Refresh func(rank int)
}

// DoorWake pokes watched's door slot: every goroutine waiting on its port. A
// writer calls it after the ring that advanced the port's generation
// reported waiters (Port.Ring, Port.UnlockRing), and not otherwise.
func (h ParkHook) DoorWake(watched int) {
	if h.Poke(watched) {
		mDoorPokes.Inc()
	}
}

// DoorWait is the doorbell's waiter discipline (DESIGN.md §6.1): it blocks
// the caller, parked under watched's door slot, until p — watched's port —
// has a generation other than gen, and returns it. The waiter counts itself
// into the port before it looks; a writer rings, reads the count and pokes
// the slot only if it is nonzero (see Port for why no wakeup is lost). A
// waiter that finds a LockRing hold never parks: it waits the hold out
// awake, as a contended Lock does, then reads the released generation. A
// plain Lock sets no ring bit, so a waiter behind a port held for good parks
// and still unwinds. Sleepers are keyed on the rank they wait on, as a futex
// keys them on the word, so the door keeps no state of its own. DoorWait may
// return gen unchanged, after DoorSlice at the latest; callers re-check
// their predicate after every return. In a torn-down world it panics with
// the hook's abort value.
func (h ParkHook) DoorWait(p *Port, watched int, gen uint64) uint64 {
	g := p.Gen()
	if g != gen {
		return g // already rung: no count, no sleep
	}
	p.enter()
	var parkStart time.Time
	var abort error
	for beat, ringing := false, false; ; {
		seq := h.Seq(watched)
		if g, ringing = p.look(); g != gen {
			break
		}
		if abort = h.Aborted(); abort != nil || beat {
			break // torn down, or the slice is over: the caller looks again
		}
		if ringing {
			runtime.Gosched() // a write in flight rings in its release
			continue
		}
		if parkStart.IsZero() && telemetry.On() {
			parkStart = time.Now()
			mDoorParks.Inc()
		}
		beat = !h.Park(watched, seq, DoorSlice)
	}
	p.leave()
	if !parkStart.IsZero() {
		mDoorParkNs.Record(uint64(time.Since(parkStart)))
	}
	if abort != nil {
		panic(abort)
	}
	return g
}

// Parker is the ParkHook of a world whose pokes all come from inside the
// process — the fabric, and a wire rank's own door and pacer: a mutex and a
// condition variable per slot, which is what makes a park and its wake cost a
// goroutine switch and little else, plus a timer per slot, made at its first
// park, that only ever broadcasts. A sleeper judges a wakeup by its own
// deadline and the slot's poke sequence, so a timer that fires late or for
// someone else is a spurious wakeup and nothing more.
type Parker struct {
	aborted atomic.Bool
	slots   []parkSlot
}

type parkSlot struct {
	mu     sync.Mutex
	cond   sync.Cond
	pokes  atomic.Uint64 // pokes so far; advanced under mu
	timer  *time.Timer
	wakeAt time.Duration // when timer fires, from parkEpoch; 0: not armed
}

// parkEpoch is what park deadlines are offsets from: time.Since reads the
// monotonic clock alone.
var parkEpoch = time.Now()

// NewParker returns the parker of an n-rank world: 2n slots, door and pace
// (see ParkHook).
func NewParker(n int) *Parker {
	k := &Parker{slots: make([]parkSlot, 2*n)}
	for i := range k.slots {
		k.slots[i].cond.L = &k.slots[i].mu
	}
	return k
}

// Hook returns the parker as a ParkHook over the given abort state.
func (k *Parker) Hook(aborted func() error) ParkHook {
	return ParkHook{Seq: k.Seq, Park: k.Park, Poke: k.Poke, Aborted: aborted}
}

// Seq returns slot's poke sequence.
func (k *Parker) Seq(slot int) uint64 { return k.slots[slot].pokes.Load() }

// Park sleeps the caller under slot until its poke sequence leaves seq, the
// parker aborts, or d has passed.
func (k *Parker) Park(slot int, seq uint64, d time.Duration) bool {
	s := &k.slots[slot]
	s.mu.Lock()
	defer s.mu.Unlock()
	deadline := time.Since(parkEpoch) + d
	for left := d; left > 0 && s.pokes.Load() == seq && !k.aborted.Load(); left = deadline - time.Since(parkEpoch) {
		if s.wakeAt == 0 || deadline < s.wakeAt {
			s.wakeAt = deadline
			if s.timer == nil {
				s.timer = time.AfterFunc(left, s.beat)
			} else {
				s.timer.Reset(left)
			}
		}
		s.cond.Wait() // a poke, the timer, or a wakeup meant for another
	}
	return s.pokes.Load() != seq
}

// beat is the slot's timer: it wakes the sleepers to look at their clocks.
func (s *parkSlot) beat() {
	s.mu.Lock()
	s.wakeAt = 0
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Poke advances slot's sequence and wakes every goroutine parked under it.
func (k *Parker) Poke(slot int) bool {
	s := &k.slots[slot]
	s.mu.Lock()
	s.pokes.Add(1)
	s.cond.Broadcast()
	s.mu.Unlock()
	return true
}

// Stop disarms every slot's heartbeat timer. The world that owns the parker
// calls it once nobody parks any more: an armed timer would otherwise fire
// into a dead world later, on a goroutine of its own, and keep the parker
// reachable until it did. A park after Stop arms its slot's timer again.
func (k *Parker) Stop() {
	for i := range k.slots {
		s := &k.slots[i]
		s.mu.Lock()
		if s.timer != nil {
			s.timer.Stop()
			s.wakeAt = 0
		}
		s.mu.Unlock()
	}
}

// reset returns a parker nobody parks on to its fresh state: no abort and
// every slot's sequence at 0. A slot keeps its timer, which Stop disarmed, so
// a reused world's first park re-arms it instead of making one.
func (k *Parker) reset() {
	k.aborted.Store(false)
	for i := range k.slots {
		k.slots[i].pokes.Store(0)
	}
}

// Abort ends every park, now and from now on: the sleepers find the world
// torn down through their hook's Aborted.
func (k *Parker) Abort() {
	k.aborted.Store(true)
	for i := range k.slots {
		s := &k.slots[i]
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}
