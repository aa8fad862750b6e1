package simnet

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"fompi/internal/telemetry"
)

// The door metrics: registered here and nowhere else, whichever backend's
// hook parks the waiter. door.pokes counts pokes a hook delivered — on the
// shared-memory backends, the system call a write to a parked target pays.
var (
	mDoorParks  = telemetry.NewCounter("door.parks")
	mDoorParkNs = telemetry.NewHistogram("door.park_ns")
	mDoorPokes  = telemetry.NewCounter("door.pokes")
)

// DoorSlice bounds one Wait, and is the parked waiter's heartbeat: after that
// much sleep it looks at the generation and the abort state on its own and
// returns, rung or not, and the caller re-checks its predicate. That is what
// recovers a poke the hook dropped, and a ring that travelled outside the
// memory it announces and was lost with its connection (the wire's RING
// frame: the data still lands). Both are rare on every backend, hence long.
// A hook that can lose neither (ParkHook.Lossless) has nothing a timeout
// could recover: its waiters sleep until poked or aborted.
const DoorSlice = 100 * time.Millisecond

// ParkHook is all a backend supplies to the two disciplines that put a rank
// to sleep, Pacer and Door: how a slot sleeps, how a sleeping slot is
// reached, and whether the world still stands. A slot is a rank, or on a
// backend whose ranks are processes, whatever goroutines of the rank's
// process park under its index; a pace park and a door park of one slot may
// receive each other's pokes, which both treat as spurious.
type ParkHook struct {
	// Park blocks the caller under slot for at most d (0: no limit) and
	// reports whether something other than the timeout ended the sleep (a
	// Poke, or any wakeup that shares its channel). Only timeouts count as
	// heartbeats.
	Park func(slot int, d time.Duration) (poked bool)
	// Poke wakes every goroutine parked under slot, or the next to park
	// there, and reports whether a signal was delivered.
	Poke func(slot int) bool
	// Aborted returns nil while the world stands and otherwise the value
	// blocked waiters unwind with: ErrAborted, or an *ErrPeerFailed naming
	// the rank whose death took the world down.
	Aborted func() error
	// Lossless says that pokes, rings and aborts all travel through this
	// process's memory, so that none can be lost on the way to a sleeper: the
	// in-process fabric's hook. The Door then parks without a timeout (d = 0).
	Lossless bool
	// Refresh, when set, re-reads rank's clock from where it is published
	// and Observes it: the table of a backend whose ranks share no memory
	// holds last-known clocks. Nil where the table is the shared truth. Only
	// the Pacer calls it.
	Refresh func(rank int)
}

// Door is the doorbell's waiter discipline (DESIGN.md §6.1): who is parked
// on which rank's port generation, and how a writer that advanced it reaches
// them. Its shared state is one bitset per watched rank — bit s of row r is
// set while slot s waits on r — operated on with sync/atomic, so the slots
// may be goroutines over a heap table or processes over one mapping; each
// process builds its own Door over the shared words and sets only the bits
// of the slots it parks.
type Door struct {
	words int      // 64-bit words per row: ceil(n/64)
	wait  []uint64 // n rows
	regs  []doorSlot
	hook  ParkHook
}

// doorSlot counts this process's registrations under one slot beyond the
// bit itself: two goroutines waiting on the same rank under the same slot
// (a service handler beside the rank it serves, a resumed wire wait beside
// its stale predecessor) share the bit, and it stays set until both left.
type doorSlot struct {
	mu    sync.Mutex
	extra map[int]int // watched rank -> registrations beyond the first
}

// DoorTableWords returns the length of the uint64 slab a Door for n ranks
// lays its bitsets over.
func DoorTableWords(n int) int { return n * ((n + 63) / 64) }

// NewDoor returns the door of an n-rank world. slab is DoorTableWords(n)
// zeroed words that every process of the world maps, or nil for a world
// whose table lives on this process's heap.
func NewDoor(n int, slab []uint64, hook ParkHook) *Door {
	if slab == nil {
		slab = make([]uint64, DoorTableWords(n))
	}
	return &Door{words: (n + 63) / 64, wait: slab, regs: make([]doorSlot, n), hook: hook}
}

// Wake pokes every slot registered on watched's row, after its port's
// generation advanced: one load per 64 ranks when nobody is parked.
func (d *Door) Wake(watched int) {
	row := d.wait[watched*d.words:][:d.words]
	for i := range row {
		for mask := atomic.LoadUint64(&row[i]); mask != 0; mask &= mask - 1 {
			if d.hook.Poke(i*64 + bits.TrailingZeros64(mask)) {
				mDoorPokes.Inc()
			}
		}
	}
}

// Wait blocks the caller, parked under slot, until p — watched's port — has
// a generation other than gen, and returns it. The waiter sets its bit and
// then re-checks the generation; the writer advances the generation and then
// loads the row: both are sequentially consistent, so one of them sees the
// other and no wakeup is lost. Wait may return gen unchanged, after DoorSlice
// at the latest unless the hook is lossless; callers re-check their predicate
// after every return. In a torn-down world it panics with the hook's abort
// value.
func (d *Door) Wait(p *Port, watched, slot int, gen uint64) uint64 {
	g := p.Gen()
	if g != gen {
		return g // already rung: no registration, no sleep
	}
	// Register: set the slot's bit on watched's row, or count one more
	// registration behind a bit a goroutine of this process already set. A
	// slot's bits are written by its own process only, under the slot's lock.
	word, bit := &d.wait[watched*d.words+slot>>6], uint64(1)<<(slot&63)
	s := &d.regs[slot]
	s.mu.Lock()
	if atomic.LoadUint64(word)&bit == 0 {
		atomic.OrUint64(word, bit)
	} else {
		if s.extra == nil {
			s.extra = map[int]int{}
		}
		s.extra[watched]++
	}
	s.mu.Unlock()
	slice := DoorSlice
	if d.hook.Lossless {
		slice = 0
	}
	var parkStart time.Time
	var abort error
	for beat := false; ; {
		if g = p.Gen(); g != gen {
			break
		}
		if abort = d.hook.Aborted(); abort != nil || beat {
			break // torn down, or the slice is over: the caller looks again
		}
		if parkStart.IsZero() && telemetry.On() {
			parkStart = time.Now()
			mDoorParks.Inc()
		}
		beat = !d.hook.Park(slot, slice)
	}
	// Unregister: the last registration takes the bit with it.
	s.mu.Lock()
	if len(s.extra) != 0 && s.extra[watched] > 0 {
		s.extra[watched]--
	} else {
		atomic.AndUint64(word, ^bit)
	}
	s.mu.Unlock()
	if !parkStart.IsZero() {
		mDoorParkNs.Record(uint64(time.Since(parkStart)))
	}
	if abort != nil {
		panic(abort)
	}
	return g
}

// Parker is the ParkHook of a world whose waiters are goroutines of this
// process: a mutex and a condition variable per slot, which is what makes a
// park and its wake cost a goroutine switch and little else, plus a timer per
// slot, made at its first timed park, that only ever broadcasts. A sleeper
// judges a wakeup by its own deadline and its own view of the poke count, so
// a timer that fires late or for someone else is a spurious wakeup and
// nothing more.
type Parker struct {
	aborted atomic.Bool
	slots   []parkSlot
}

type parkSlot struct {
	mu      sync.Mutex
	cond    sync.Cond
	pokes   uint64 // pokes so far
	parked  int    // goroutines inside Park
	pending bool   // the last poke found nobody parked: the next Park takes it
	timer   *time.Timer
	wakeAt  time.Time // when timer fires; zero: not armed
}

// NewParker returns a parker of n slots.
func NewParker(n int) *Parker {
	k := &Parker{slots: make([]parkSlot, n)}
	for i := range k.slots {
		k.slots[i].cond.L = &k.slots[i].mu
	}
	return k
}

// Hook returns the parker as a ParkHook over the given abort state.
func (k *Parker) Hook(aborted func() error) ParkHook {
	return ParkHook{Park: k.Park, Poke: k.Poke, Aborted: aborted}
}

// Park sleeps the caller under slot for at most d, or with d = 0 until it is
// poked or the parker aborts.
func (k *Parker) Park(slot int, d time.Duration) bool {
	s := &k.slots[slot]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending {
		s.pending = false
		return true
	}
	seq := s.pokes
	s.parked++
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	for ; s.pokes == seq && !k.aborted.Load(); s.cond.Wait() {
		if d == 0 {
			continue
		}
		left := time.Until(deadline)
		if left <= 0 {
			break
		}
		if s.wakeAt.IsZero() || deadline.Before(s.wakeAt) {
			s.wakeAt = deadline
			if s.timer == nil {
				s.timer = time.AfterFunc(left, s.beat)
			} else {
				s.timer.Reset(left)
			}
		}
	}
	s.parked--
	return s.pokes != seq
}

// beat is the slot's timer: it wakes the sleepers to look at their clocks.
func (s *parkSlot) beat() {
	s.mu.Lock()
	s.wakeAt = time.Time{}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Poke wakes every goroutine parked under slot; with nobody there it leaves
// the poke for the next to park, and reports false if one was already left.
func (k *Parker) Poke(slot int) bool {
	s := &k.slots[slot]
	s.mu.Lock()
	delivered := s.parked > 0 || !s.pending
	s.pokes++
	s.pending = s.parked == 0
	s.cond.Broadcast()
	s.mu.Unlock()
	return delivered
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
