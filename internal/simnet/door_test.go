package simnet

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// waiters returns the waiter count p's wait word holds.
func waiters(p *Port) uint64 { return atomic.LoadUint64(&p.wait) & maxWaiters }

// TestDoorSlice pins the one heartbeat/slice rule over a scripted hook: a
// wait with no ring is one park of DoorSlice, under the watched rank's slot,
// and then returns the unchanged generation with its count gone from the
// wait word. A poked return is not a heartbeat: the waiter parks again for a
// whole slice.
func TestDoorSlice(t *testing.T) {
	for _, c := range []struct {
		name   string
		onPark func(int) bool
		want   []time.Duration
	}{
		{"timeout", nil, []time.Duration{DoorSlice}},
		{"pokes are not heartbeats", func(n int) bool { return n <= 2 }, []time.Duration{DoorSlice, DoorSlice, DoorSlice}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fk := fakePace{onPark: c.onPark}
			var p Port
			if g := fk.hook().DoorWait(&p, 129, 0); g != 0 {
				t.Fatalf("DoorWait returned generation %d with no ring, want 0", g)
			}
			if !reflect.DeepEqual(fk.parks, c.want) {
				t.Fatalf("parked for %v, want %v", fk.parks, c.want)
			}
			if !reflect.DeepEqual(fk.parkSlots, slices.Repeat([]int{129}, len(c.want))) {
				t.Fatalf("parked under slots %v, want the watched rank's, 129", fk.parkSlots)
			}
			if n := waiters(&p); n != 0 {
				t.Fatalf("the port counts %d waiters after the waiter left", n)
			}
		})
	}
}

// TestDoorRegistersBeforeParking: by the time the hook parks the waiter, the
// wait word counts it, so a ring on its port reports a waiter and the wake
// pokes the watched rank's slot — while a ring on another port reports none.
func TestDoorRegistersBeforeParking(t *testing.T) {
	var fk fakePace
	var p, other Port
	fk.pokeHit = true
	hook := fk.hook()
	fk.onPark = func(n int) bool {
		if c := waiters(&p); c != 1 {
			t.Errorf("the port counts %d waiters while one is parked, want 1", c)
		}
		if other.Ring() {
			t.Error("a ring on another port reported a waiter")
		}
		if p.Ring() {
			hook.DoorWake(129)
		} else {
			t.Error("a ring on the watched port reported no waiter")
		}
		return true
	}
	if g := hook.DoorWait(&p, 129, 0); g != 1 {
		t.Fatalf("DoorWait returned generation %d after the ring, want 1", g)
	}
	if !reflect.DeepEqual(fk.pokes, []int{129}) || len(fk.parks) != 1 {
		t.Fatalf("poked %v over %d parks, want slot 129 once in one park", fk.pokes, len(fk.parks))
	}
}

// TestDoorAbortedNeverParks: a wait in a torn-down world unwinds with the
// hook's value before it sleeps, and leaves no count behind.
func TestDoorAbortedNeverParks(t *testing.T) {
	fk := fakePace{aborted: true}
	var p Port
	func() {
		defer func() {
			if r := recover(); r != ErrAborted {
				t.Errorf("DoorWait unwound with %v, want ErrAborted", r)
			}
		}()
		fk.hook().DoorWait(&p, 2, 0)
	}()
	if len(fk.parks) != 0 || atomic.LoadUint64(&p.word) != 0 || atomic.LoadUint64(&p.wait) != 0 {
		t.Fatalf("parked %d times, port words %#x, %#x, in an aborted world", len(fk.parks), p.word, p.wait)
	}
}

// TestDoorWaitsOutInFlightWrite: a waiter that arrives while a write holds
// the port to ring in its release — after the writer's CAS, so the writer
// counted nobody and will poke nobody — must not park: it finds the ring bit,
// waits the hold out awake, and returns the released generation. The hook
// counts the waiter's looks, so what is checked is what the waiter did, not
// how soon the scheduler ran it: it looks at the held port again and again,
// counted in, never parks, and returns the generation the release rang. A
// waiter that sleeps the hold out parks, which the scripted hook records.
func TestDoorWaitsOutInFlightWrite(t *testing.T) {
	var fk fakePace
	var p Port
	var looks atomic.Int32
	h := fk.hook()
	aborted := h.Aborted // called once per look, after it
	h.Aborted = func() error { looks.Add(1); return aborted() }
	gen := p.Gen()
	p.LockRing()
	if waiters(&p) != 0 {
		t.Fatal("a waiter is counted before any waits")
	}
	out := make(chan uint64, 1)
	go func() { out <- h.DoorWait(&p, 1, gen) }()
	for deadline := time.Now().Add(10 * time.Second); looks.Load() < 3 && len(out) == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			p.UnlockRing()
			t.Fatal("the waiter never looked at the held port")
		}
	}
	if n := waiters(&p); n != 1 && len(out) == 0 {
		p.UnlockRing()
		t.Fatalf("the port counts %d waiters while one waits", n)
	}
	p.UnlockRing() // no poke: the waiter came in after the CAS and must need none
	select {
	case g := <-out:
		if g != gen+1 || len(fk.parks) != 0 {
			t.Fatalf("DoorWait returned generation %d after %d parks, want %d without parking", g, len(fk.parks), gen+1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter never returned after the write's release")
	}
	if n := waiters(&p); n != 0 {
		t.Fatalf("the port counts %d waiters after the waiter left", n)
	}
}

// TestDoorPokeBetweenRecheckAndPark: a ring whose poke lands after a waiter's
// last look at the generation and before it sleeps — and finds another
// goroutine already asleep under the slot, so that nothing is left over for
// the latecomer — still ends both waits at once: the latecomer parks with the
// sequence it sampled before it looked.
func TestDoorPokeBetweenRecheckAndPark(t *testing.T) {
	k := NewParker(4)
	var p Port
	var parks, looks atomic.Int32
	// Aborted is what a waiter calls between its last look at the generation
	// and its park: the second waiter's call is where the ring lands.
	hook := k.Hook(func() error {
		if looks.Add(1) == 2 && p.Ring() {
			k.Poke(2)
		}
		return nil
	})
	hook.Park = func(slot int, seq uint64, dur time.Duration) bool {
		parks.Add(1)
		return k.Park(slot, seq, dur)
	}
	out := make(chan uint64, 2)
	go func() { out <- hook.DoorWait(&p, 2, 0) }()
	for deadline := time.Now().Add(10 * time.Second); parks.Load() < 1; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first waiter never parked")
		}
	}
	time.Sleep(5 * time.Millisecond) // let it fall asleep
	t0 := time.Now()
	go func() { out <- hook.DoorWait(&p, 2, 0) }()
	for i := 0; i < 2; i++ {
		select {
		case g := <-out:
			if g != 1 {
				t.Fatalf("DoorWait returned generation %d after the ring, want 1", g)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a waiter never returned")
		}
	}
	if took := time.Since(t0); took > DoorSlice/2 {
		t.Fatalf("the waits ended %v after the ring: a waiter slept through a poke that landed before its park", took)
	}
}

// parkAll parks n goroutines under slot at its current sequence and gives
// them time to fall asleep; done carries what each Park returned.
func parkAll(k *Parker, slot, n int, d time.Duration) (done chan bool) {
	done = make(chan bool, n)
	seq := k.Seq(slot)
	for i := 0; i < n; i++ {
		go func() { done <- k.Park(slot, seq, d) }()
	}
	time.Sleep(20 * time.Millisecond)
	return done
}

func allPoked(t *testing.T, done chan bool, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case poked := <-done:
			if !poked {
				t.Fatal("a parked goroutine timed out instead of being poked")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("one poke woke %d of %d goroutines parked under one slot", i, n)
		}
	}
}

// TestParkerPokeReachesAll parks three goroutines under one slot — a rank's
// door, where the rank, a host-mate and a service handler may all wait on
// its port — and pokes once: every one of them is woken, none by its timer. A park whose
// sequence a poke has already left does not sleep; one at the current
// sequence does, to its deadline.
func TestParkerPokeReachesAll(t *testing.T) {
	k := NewParker(2)
	done := parkAll(k, 1, 3, 30*time.Second)
	k.Poke(1)
	allPoked(t, done, 3)
	seq := k.Seq(0)
	k.Poke(0)
	if !k.Park(0, seq, 30*time.Second) {
		t.Fatal("a park at a sequence a poke had already left went to sleep")
	}
	if k.Park(0, k.Seq(0), time.Millisecond) {
		t.Fatal("park at the current sequence did not time out")
	}
}

// TestParkerStopDisarms: a park poked long before its deadline leaves its
// slot's heartbeat armed; Stop disarms it, so it never fires into a world
// that has ended.
func TestParkerStopDisarms(t *testing.T) {
	k := NewParker(2)
	s := &k.slots[1]
	armed := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.wakeAt != 0
	}
	done := make(chan bool, 1)
	seq := k.Seq(1)
	go func() { done <- k.Park(1, seq, 30*time.Second) }()
	for deadline := time.Now().Add(10 * time.Second); !armed(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("a park never armed its slot's heartbeat")
		}
	}
	k.Poke(1)
	allPoked(t, done, 1)
	if !armed() {
		t.Fatal("a park poked before its deadline left no heartbeat armed")
	}
	k.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wakeAt != 0 || s.timer.Stop() {
		t.Fatal("Stop left the slot's heartbeat armed")
	}
}
