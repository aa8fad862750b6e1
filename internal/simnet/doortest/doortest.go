// Package doortest is the behavioural test of simnet.Door that every home of
// its table runs: a heap table over an instrumented hook, the in-process
// fabric, and mprun over two views of one mapped arena. The cases use the
// backend's real hook — real sleeps, real pokes — and only Door's exported
// surface plus its door.* metrics, so they pin what the waiter discipline
// promises whatever parks the waiter: no lost wakeup, no poke without a
// registration, recovery from a dropped poke, a typed unwind on abort, and
// two goroutines sharing a slot both registered and both reached.
package doortest

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fompi/internal/simnet"
	"fompi/internal/telemetry"
)

// View is one process's side of a world: its Door and its mapping of the
// ranks' ports.
type View struct {
	Door *simnet.Door
	Port func(rank int) *simnet.Port
}

// World is one door under test. Waiters park through Waiter, under the slot
// the world was made for; writers ring through Writer. The two are the same
// view in process and two processes' views of one table on mprun.
type World struct {
	Waiter, Writer View
	// Abort tears the world down; Blamed is the rank parked waiters must then
	// name in an *ErrPeerFailed, or -1 for the bare ErrAborted.
	Abort  func()
	Blamed int
	// DropPoke makes the hook swallow the next poke it is asked to deliver;
	// nil where the backend has no way to lose one on demand.
	DropPoke func()
}

// Make builds a fresh n-rank world whose waiters park under slot.
type Make func(t *testing.T, n, slot int) World

// Run runs every case against worlds from mk.
func Run(t *testing.T, mk Make) {
	defer telemetry.SetEnabled(telemetry.On())
	telemetry.SetEnabled(true)
	for _, c := range []struct {
		name string
		run  func(*testing.T, Make)
	}{
		{"NoLostWakeup", noLostWakeup},
		{"WakePokesRegisteredOnly", wakePokesRegisteredOnly},
		{"DroppedPokeRecovered", droppedPokeRecovered},
		{"AbortBehindHeldPort", abortBehindHeldPort},
		{"SpuriousReturnLeavesBitClear", spuriousReturnLeavesBitClear},
		{"SharedSlotBothReached", sharedSlotBothReached},
		{"SharedSlotCountedRegistration", sharedSlotCountedRegistration},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, mk) })
	}
}

func counter(name string) uint64 { return telemetry.Capture(0).Counters[name] }

// ring advances watched's generation through the writer's view and wakes its
// waiters if the ring found any, as Transport.RingDoorbell does.
func (w World) ring(watched int) {
	if w.Writer.Port(watched).Ring() {
		w.Writer.Door.Wake(watched)
	}
}

// waitAsync parks a waiter on watched at generation gen and delivers what
// Wait returned, or the value it panicked with.
func (w World) waitAsync(watched, slot int, gen uint64) <-chan any {
	out := make(chan any, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				out <- r
			}
		}()
		out <- w.Waiter.Door.Wait(w.Waiter.Port(watched), watched, slot, gen)
	}()
	return out
}

// awaitParks blocks until door.parks has risen by n since parks0: n waiters
// have registered and are in (or about to enter) the hook's Park.
func awaitParks(t *testing.T, parks0 uint64, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); counter("door.parks") < parks0+uint64(n); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters parked", counter("door.parks")-parks0, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func mustReturn(t *testing.T, out <-chan any, within time.Duration, why string) any {
	t.Helper()
	select {
	case v := <-out:
		return v
	case <-time.After(within):
		t.Fatalf("waiter still parked %s", why)
		return nil
	}
}

// noLostWakeup is the lost-wakeup stress: each round the waiter samples the
// generation and parks until the round's flag shows, while the writer stores
// the flag under the port, rings in the release and wakes only if the
// release reported waiters. Every interleaving of "check, register, park"
// against "advance, look for waiters" must end with the waiter returning —
// and promptly: a wakeup recovered by the heartbeat would pass a liveness
// check, so a round that lasts half a slice counts as lost. A healthy run
// sees a handful at most, from a host that descheduled the waiter that long.
func noLostWakeup(t *testing.T, mk Make) {
	rounds := uint64(100000)
	if testing.Short() {
		rounds = 20000
	}
	slowMax := int64(rounds / 1000)
	w := mk(t, 2, 1)
	var flag, ack atomic.Uint64
	var slow atomic.Int64
	done, wrote := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		p := w.Waiter.Port(0)
		for r := uint64(1); r <= rounds; r++ {
			gen, t0 := p.Gen(), time.Now()
			for flag.Load() < r {
				gen = w.Waiter.Door.Wait(p, 0, 1, gen)
			}
			if time.Since(t0) >= simnet.DoorSlice/2 && slow.Add(1) > slowMax {
				return
			}
			ack.Store(r)
		}
	}()
	go func() {
		defer close(wrote)
		p := w.Writer.Port(0)
		for r := uint64(1); r <= rounds; r++ {
			for ack.Load() != r-1 {
				select {
				case <-done:
					return // the waiter gave up
				default:
					runtime.Gosched()
				}
			}
			p.Lock()
			flag.Store(r)
			if p.UnlockRing() {
				w.Writer.Door.Wake(0)
			}
		}
	}()
	// Were one round in fifty never to return before its heartbeat, the run
	// would outlast this bound.
	bound := time.Duration(rounds/50) * simnet.DoorSlice
	select {
	case <-done:
	case <-time.After(bound):
		t.Fatalf("waiter at round %d of %d after %v: wakeups are being lost", ack.Load()+1, rounds, bound)
	}
	// The last round's Wake may still be under way: it reads the world's
	// table and pokes, which on mprun are words of a mapping the test's
	// cleanup unmaps.
	<-wrote
	if n := slow.Load(); n > slowMax {
		t.Fatalf("%d rounds by round %d of %d lasted half a slice or more: wakeups are being lost (left to the heartbeat)", n, ack.Load()+1, rounds)
	}
}

// wakePokesRegisteredOnly spans three bitset words (64 + 64 + 2 ranks): a
// Wake with nobody parked, or on a row nobody watches, delivers no poke; a
// Wake on the watched row delivers exactly one, to the registered slot; and a
// waiter that left took its bit with it.
func wakePokesRegisteredOnly(t *testing.T, mk Make) {
	const n, slot, watched = 130, 70, 129
	w := mk(t, n, slot)
	pokes0 := counter("door.pokes")
	for r := 0; r < n; r++ {
		w.Writer.Door.Wake(r)
	}
	if got := counter("door.pokes") - pokes0; got != 0 {
		t.Fatalf("%d pokes delivered with nobody parked", got)
	}
	parks0 := counter("door.parks")
	gen := w.Waiter.Port(watched).Gen()
	out := w.waitAsync(watched, slot, gen)
	awaitParks(t, parks0, 1)
	for r := 0; r < n; r++ {
		if r != watched {
			w.Writer.Door.Wake(r)
		}
	}
	if got := counter("door.pokes") - pokes0; got != 0 {
		t.Fatalf("%d pokes delivered by wakes on rows the waiter does not watch", got)
	}
	w.Writer.Door.Wake(watched) // no ring: the waiter wakes, finds the generation unchanged, parks again
	if got := counter("door.pokes") - pokes0; got != 1 {
		t.Fatalf("a wake on the watched row delivered %d pokes, want 1", got)
	}
	select {
	case v := <-out:
		t.Fatalf("a poke without a ring ended the wait (%v)", v)
	case <-time.After(simnet.DoorSlice / 10):
	}
	w.ring(watched)
	if v := mustReturn(t, out, 10*time.Second, "after the ring"); v != gen+1 {
		t.Fatalf("waiter returned %v, want generation %d", v, gen+1)
	}
	pokes1 := counter("door.pokes")
	w.Writer.Door.Wake(watched)
	if got := counter("door.pokes") - pokes1; got != 0 {
		t.Fatalf("%d pokes delivered after the waiter left: its bit outlived it", got)
	}
}

// droppedPokeRecovered: the ring's poke is swallowed, so only the waiter's
// own heartbeat can notice the new generation, within one slice.
func droppedPokeRecovered(t *testing.T, mk Make) {
	w := mk(t, 4, 2)
	if w.DropPoke == nil {
		t.Skip("this backend cannot lose a poke on demand")
	}
	parks0 := counter("door.parks")
	gen := w.Waiter.Port(0).Gen()
	out := w.waitAsync(0, 2, gen)
	awaitParks(t, parks0, 1)
	w.DropPoke()
	t0 := time.Now()
	w.ring(0)
	if v := mustReturn(t, out, 10*time.Second, "after a ring whose poke was dropped"); v != gen+1 {
		t.Fatalf("waiter returned %v, want generation %d", v, gen+1)
	}
	if d := time.Since(t0); d > 2*simnet.DoorSlice {
		t.Fatalf("a dropped poke took %v to recover, more than a slice (%v)", d, simnet.DoorSlice)
	}
}

// abortBehindHeldPort parks a waiter on a rank whose port is held and never
// released: nothing about a wait takes the port, so the abort still reaches
// the waiter — at once, not at its heartbeat — and it unwinds with the
// backend's typed value.
func abortBehindHeldPort(t *testing.T, mk Make) {
	w := mk(t, 4, 1)
	w.Writer.Port(3).Lock()
	parks0 := counter("door.parks")
	out := w.waitAsync(3, 1, w.Waiter.Port(3).Gen())
	awaitParks(t, parks0, 1)
	t0 := time.Now()
	w.Abort()
	v := mustReturn(t, out, 5*time.Second, "after the abort, behind a held port")
	if d := time.Since(t0); d > simnet.DoorSlice/2 {
		t.Fatalf("the abort took %v to reach the parked waiter: it was left to the heartbeat (%v)", d, simnet.DoorSlice)
	}
	err, ok := v.(error)
	if !ok || !simnet.IsAbortPanic(v) || !errors.Is(err, simnet.ErrAborted) {
		t.Fatalf("waiter unwound with %v, want the abort panic", v)
	}
	var pf *simnet.ErrPeerFailed
	if got := errors.As(err, &pf); got != (w.Blamed >= 0) || got && pf.Rank != w.Blamed {
		t.Fatalf("waiter unwound with %v, want rank %d blamed (-1: nobody)", v, w.Blamed)
	}
}

// spuriousReturnLeavesBitClear: with no ring at all the wait ends at the
// slice with the generation unchanged, and the waiter's bit with it.
func spuriousReturnLeavesBitClear(t *testing.T, mk Make) {
	w := mk(t, 4, 3)
	gen := w.Waiter.Port(1).Gen()
	t0 := time.Now()
	out := w.waitAsync(1, 3, gen)
	if v := mustReturn(t, out, 10*time.Second, "a slice after parking, with no ring"); v != gen {
		t.Fatalf("waiter returned %v with no ring, want the unchanged generation %d", v, gen)
	}
	if d := time.Since(t0); d < simnet.DoorSlice*9/10 {
		t.Fatalf("the wait ended after %v with no ring, before the slice (%v)", d, simnet.DoorSlice)
	}
	pokes0 := counter("door.pokes")
	w.Writer.Door.Wake(1)
	if got := counter("door.pokes") - pokes0; got != 0 {
		t.Fatalf("%d pokes delivered after a spurious return: the bit stayed set", got)
	}
}

// sharedSlotBothReached parks two goroutines of one process under one slot —
// on the hybrid backend, the rank in WaitLocal and a service handler holding
// an off-host DOORWAIT — and rings once, well before their slice ends: one
// poke must reach both, not one of them and the other's heartbeat. Wall-clock
// on a shared host, so an attempt that is slow for the first waiter too is
// repeated; a poke that reaches one waiter only is slow every time.
func sharedSlotBothReached(t *testing.T, mk Make) {
	// A ring 40 ms into the wait that misses a waiter leaves it asleep for
	// 60 ms more.
	const ringAt, prompt = simnet.DoorSlice * 4 / 10, simnet.DoorSlice * 2 / 10
	var late [2]time.Duration
	for try := 0; try < 4; try++ {
		w := mk(t, 4, 2)
		parks0 := counter("door.parks")
		gen := w.Waiter.Port(2).Gen()
		t0 := time.Now()
		a, b := w.waitAsync(2, 2, gen), w.waitAsync(2, 2, gen)
		awaitParks(t, parks0, 2)
		time.Sleep(time.Until(t0.Add(ringAt)))
		rung := time.Now()
		w.ring(2)
		for i, out := range []<-chan any{a, b} {
			if v := mustReturn(t, out, 10*time.Second, "after the ring"); v != gen+1 {
				t.Fatalf("waiter returned %v, want generation %d", v, gen+1)
			}
			late[i] = time.Since(rung)
		}
		if late[0] < prompt && late[1] < prompt {
			return
		}
	}
	t.Fatalf("two waiters under one slot returned %v and %v after one ring: the poke reached one of them", late[0], late[1])
}

// sharedSlotCountedRegistration: the second of two goroutines waiting under a
// slot on its own rank parks most of a slice after the first. When the first gives up at its
// slice, the registration they share must stay: a wake still finds the bit,
// and the ring still ends the second wait.
func sharedSlotCountedRegistration(t *testing.T, mk Make) {
	w := mk(t, 4, 2)
	parks0 := counter("door.parks")
	gen := w.Waiter.Port(2).Gen()
	a := w.waitAsync(2, 2, gen)
	awaitParks(t, parks0, 1)
	time.Sleep(simnet.DoorSlice * 7 / 10)
	b := w.waitAsync(2, 2, gen)
	awaitParks(t, parks0, 2)
	if v := mustReturn(t, a, 10*time.Second, "a slice after parking"); v != gen {
		t.Fatalf("first waiter returned %v with no ring, want the unchanged generation %d", v, gen)
	}
	select {
	case v := <-b:
		t.Fatalf("second waiter left with the first (%v), a third of the way into its slice", v)
	default:
	}
	pokes0 := counter("door.pokes")
	w.Writer.Door.Wake(2)
	if got := counter("door.pokes") - pokes0; got != 1 {
		t.Fatalf("a wake delivered %d pokes after the first of two waiters under one slot left, want 1: the leaver took the shared bit", got)
	}
	w.ring(2)
	if v := mustReturn(t, b, 10*time.Second, "after the ring"); v != gen+1 {
		t.Fatalf("second waiter returned %v, want generation %d", v, gen+1)
	}
	pokes1 := counter("door.pokes")
	w.Writer.Door.Wake(2)
	if got := counter("door.pokes") - pokes1; got != 0 {
		t.Fatalf("%d pokes delivered after both waiters left", got)
	}
}
