// Package doortest is the behavioural test of the doorbell's waiter
// discipline, simnet.ParkHook's DoorWait and DoorWake, that every backend's
// hook runs: an instrumented parker, the in-process fabric, and mprun over
// two views of one mapped arena. The cases use the backend's real hook — real
// sleeps, real pokes — and only the exported surface plus the door.* metrics,
// so they pin what the discipline promises whatever parks the waiter: no lost
// wakeup, no poke without a waiter counted in the port word, recovery from a
// dropped poke, a typed unwind on abort, two goroutines waiting on one rank
// both counted and both reached, and a ring that never ends a pace park.
package doortest

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fompi/internal/simnet"
	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

// View is one process's side of a world: its hook and its mapping of the
// ranks' ports.
type View struct {
	Hook simnet.ParkHook
	Port func(rank int) *simnet.Port
}

// World is one door under test. Waiters park through Waiter; writers ring
// through Writer. The two are the same view in process and two processes'
// views of one arena on mprun.
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

// Make builds a fresh n-rank world.
type Make func(t *testing.T, n int) World

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
		{"RingSparesPacePark", ringSparesPacePark},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, mk) })
	}
}

func counter(name string) uint64 { return telemetry.Capture(0).Counters[name] }

// ring advances watched's generation through the writer's view from outside
// any write (Port.Ring) and wakes its waiters if the ring found any, and
// reports whether it did: whether the port word counted a waiter.
func (w World) ring(watched int) (waiters bool) {
	if waiters = w.Writer.Port(watched).Ring(); waiters {
		w.Writer.Hook.DoorWake(watched)
	}
	return waiters
}

// waitAsync parks a waiter on watched at generation gen and delivers what
// DoorWait returned, or the value it panicked with.
func (w World) waitAsync(watched int, gen uint64) <-chan any {
	out := make(chan any, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				out <- r
			}
		}()
		out <- w.Waiter.Hook.DoorWait(w.Waiter.Port(watched), watched, gen)
	}()
	return out
}

// awaitParks blocks until door.parks has risen by n since parks0: n waiters
// are counted in their port and are in (or about to enter) the hook's Park.
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
// release reported waiters. Every interleaving of "check, count in, park"
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
	w := mk(t, 2)
	var flag, ack atomic.Uint64
	var slow atomic.Int64
	done, wrote := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		p := w.Waiter.Port(0)
		for r := uint64(1); r <= rounds; r++ {
			gen, t0 := p.Gen(), time.Now()
			for flag.Load() < r {
				gen = w.Waiter.Hook.DoorWait(p, 0, gen)
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
			p.LockRing()
			flag.Store(r)
			if p.UnlockRing() {
				w.Writer.Hook.DoorWake(0)
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
	// The last round's wake may still be under way: it pokes a word that on
	// mprun belongs to a mapping the test's cleanup unmaps.
	<-wrote
	if n := slow.Load(); n > slowMax {
		t.Fatalf("%d rounds by round %d of %d lasted half a slice or more: wakeups are being lost (left to the heartbeat)", n, ack.Load()+1, rounds)
	}
}

// wakePokesRegisteredOnly: a poke goes out only where the port word counts a
// waiter. With one parked, a ring on another rank neither finds it nor ends
// its wait, a bare poke of its rank wakes it without ending the wait, and a
// ring on its rank finds it and delivers exactly one poke, which ends the
// wait; once it has left, its rank's ring finds nobody.
func wakePokesRegisteredOnly(t *testing.T, mk Make) {
	const n, watched = 4, 3
	w := mk(t, n)
	parks0 := counter("door.parks")
	gen := w.Waiter.Port(watched).Gen()
	out := w.waitAsync(watched, gen)
	awaitParks(t, parks0, 1)
	for r := 0; r < n; r++ {
		if r != watched && w.ring(r) {
			t.Fatalf("a ring on rank %d found the waiter on rank %d", r, watched)
		}
	}
	w.Writer.Hook.DoorWake(watched) // no ring: the waiter wakes, finds the generation unchanged, parks again
	select {
	case v := <-out:
		t.Fatalf("a poke without a ring ended the wait (%v)", v)
	case <-time.After(simnet.DoorSlice / 10):
	}
	pokes0 := counter("door.pokes")
	if !w.ring(watched) {
		t.Fatal("a ring on the watched rank found no waiter")
	}
	if got := counter("door.pokes") - pokes0; got != 1 {
		t.Fatalf("a ring on the watched rank delivered %d pokes, want 1", got)
	}
	if v := mustReturn(t, out, 10*time.Second, "after the ring"); v != gen+1 {
		t.Fatalf("waiter returned %v, want generation %d", v, gen+1)
	}
	if w.ring(watched) {
		t.Fatal("a ring found a waiter after it left: its count outlived it")
	}
}

// droppedPokeRecovered: the ring's poke is swallowed, so only the waiter's
// own heartbeat can notice the new generation, within one slice.
func droppedPokeRecovered(t *testing.T, mk Make) {
	w := mk(t, 4)
	if w.DropPoke == nil {
		t.Skip("this backend cannot lose a poke on demand")
	}
	parks0 := counter("door.parks")
	gen := w.Waiter.Port(0).Gen()
	out := w.waitAsync(0, gen)
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
	w := mk(t, 4)
	w.Writer.Port(3).Lock()
	parks0 := counter("door.parks")
	out := w.waitAsync(3, w.Waiter.Port(3).Gen())
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
// slice with the generation unchanged, and takes its count out of the port
// word: the next ring finds nobody and delivers no poke.
func spuriousReturnLeavesBitClear(t *testing.T, mk Make) {
	w := mk(t, 4)
	gen := w.Waiter.Port(1).Gen()
	t0 := time.Now()
	out := w.waitAsync(1, gen)
	if v := mustReturn(t, out, 10*time.Second, "a slice after parking, with no ring"); v != gen {
		t.Fatalf("waiter returned %v with no ring, want the unchanged generation %d", v, gen)
	}
	if d := time.Since(t0); d < simnet.DoorSlice*9/10 {
		t.Fatalf("the wait ended after %v with no ring, before the slice (%v)", d, simnet.DoorSlice)
	}
	if w.ring(1) {
		t.Fatal("a ring after a spurious return found a waiter: the count stayed")
	}
}

// sharedSlotBothReached parks two goroutines of one process on one rank —
// under one slot, the rank's door: on the hybrid backend, the rank in
// WaitLocal and a service handler holding an off-host DOORWAIT — and rings
// once, well before their slice ends: one poke must reach both, not one of
// them and the other's heartbeat. Wall-clock on a shared host, so an attempt
// that is slow for the first waiter too is repeated; a poke that reaches one
// waiter only is slow every time.
func sharedSlotBothReached(t *testing.T, mk Make) {
	// A ring 40 ms into the wait that misses a waiter leaves it asleep for
	// 60 ms more.
	const ringAt, prompt = simnet.DoorSlice * 4 / 10, simnet.DoorSlice * 2 / 10
	var late [2]time.Duration
	for try := 0; try < 4; try++ {
		w := mk(t, 4)
		parks0 := counter("door.parks")
		gen := w.Waiter.Port(2).Gen()
		t0 := time.Now()
		a, b := w.waitAsync(2, gen), w.waitAsync(2, gen)
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

// sharedSlotCountedRegistration: the second of two goroutines waiting on one
// rank parks most of a slice after the first. When the first gives up at its
// slice, it takes only its own count out of the port word: a ring still
// finds the second, delivers one poke and ends its wait, and once both have
// left a ring finds nobody.
func sharedSlotCountedRegistration(t *testing.T, mk Make) {
	w := mk(t, 4)
	parks0 := counter("door.parks")
	gen := w.Waiter.Port(2).Gen()
	a := w.waitAsync(2, gen)
	awaitParks(t, parks0, 1)
	time.Sleep(simnet.DoorSlice * 7 / 10)
	b := w.waitAsync(2, gen)
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
	if !w.ring(2) {
		t.Fatal("a ring found no waiter after the first of two left: the leaver took the other's count")
	}
	if got := counter("door.pokes") - pokes0; got != 1 {
		t.Fatalf("a ring with one waiter left delivered %d pokes, want 1", got)
	}
	if v := mustReturn(t, b, 10*time.Second, "after the ring"); v != gen+1 {
		t.Fatalf("second waiter returned %v, want generation %d", v, gen+1)
	}
	if w.ring(2) {
		t.Fatal("a ring found a waiter after both left")
	}
}

// ringSparesPacePark: rank r is pace-parked — its clock far past the window
// while the others stand still, so it parks until the stall valve lets it
// go, and parks again — while another rank waits at r's door. Each ring on r
// ends the door wait, and no pace park ever reports a poke: the door and the
// pacer sleep under different slots of one hook. The pacer's tables are this
// process's own; its parks go through the waiter's hook, the backend's.
func ringSparesPacePark(t *testing.T, mk Make) {
	const n, r, rounds = 4, 2, 10
	const far = timing.Time(1) << 40
	w := mk(t, n)
	hook := w.Waiter.Hook
	park := hook.Park
	var poked atomic.Int64
	hook.Park = func(slot int, seq uint64, d time.Duration) bool {
		got := park(slot, seq, d)
		if got {
			poked.Add(1)
		}
		return got
	}
	pacer := simnet.NewPacer(1000, n, nil, hook)
	var pacing atomic.Bool
	pacing.Store(true)
	parks0 := counter("pace.parks")
	paced := make(chan struct{})
	go func() {
		defer close(paced)
		for pacing.Load() {
			pacer.Pace(r, far)
		}
	}()
	// Stop the loop, releasing r, before the world's cleanup: on mprun it
	// unmaps the word r sleeps on.
	defer func() {
		pacing.Store(false)
		for q := 0; q < n; q++ {
			if q != r {
				pacer.Publish(q, 2*far)
			}
		}
		<-paced
	}()
	for deadline := time.Now().Add(10 * time.Second); counter("pace.parks") == parks0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never pace-parked", r)
		}
	}
	for i := 0; i < rounds; i++ {
		parks0 := counter("door.parks")
		gen := w.Waiter.Port(r).Gen()
		out := w.waitAsync(r, gen)
		awaitParks(t, parks0, 1)
		rung := w.ring(r)
		if v := mustReturn(t, out, 10*time.Second, "after the ring"); v != gen+1 {
			t.Fatalf("door waiter returned %v, want generation %d", v, gen+1)
		}
		if !rung {
			t.Fatal("a ring on r found no door waiter")
		}
	}
	time.Sleep(10 * time.Millisecond) // a poke the last ring misdelivered has returned its park
	if spurious := poked.Load(); spurious != 0 {
		t.Fatalf("%d pace parks of rank %d returned poked across %d rings on its door", spurious, r, rounds)
	}
}
