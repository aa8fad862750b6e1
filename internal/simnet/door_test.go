package simnet

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoorSlice pins the one heartbeat/slice rule over a scripted hook: a
// wait with no ring is one park of DoorSlice and then returns the unchanged
// generation with its registration gone. A poked return is not a heartbeat:
// the waiter parks again for a whole slice.
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
			d := NewDoor(130, nil, fk.hook())
			var p Port
			if g := d.Wait(&p, 129, 70, 0); g != 0 {
				t.Fatalf("Wait returned generation %d with no ring, want 0", g)
			}
			if !reflect.DeepEqual(fk.parks, c.want) {
				t.Fatalf("parked for %v, want %v", fk.parks, c.want)
			}
			for i, w := range d.wait {
				if w != 0 {
					t.Fatalf("bitset word %d is %#x after the waiter left", i, w)
				}
			}
		})
	}
}

// TestDoorRegistersBeforeParking: by the time the hook parks the waiter, its
// bit — slot 70 of row 129: word 1 of a three-word row — is set and a Wake on
// that row, and on no other, pokes that slot.
func TestDoorRegistersBeforeParking(t *testing.T) {
	var fk fakePace
	var d *Door
	var p Port
	fk.pokeHit = true
	fk.onPark = func(n int) bool {
		if w := d.wait[129*3+1]; w != 1<<(70-64) {
			t.Errorf("row 129 word 1 is %#x while slot 70 is parked, want bit 6", w)
		}
		d.Wake(128)
		d.Wake(129)
		p.Ring()
		return true
	}
	d = NewDoor(130, nil, fk.hook())
	if g := d.Wait(&p, 129, 70, 0); g != 1 {
		t.Fatalf("Wait returned generation %d after the ring, want 1", g)
	}
	if !reflect.DeepEqual(fk.pokes, []int{70}) || len(fk.parks) != 1 {
		t.Fatalf("poked %v over %d parks, want slot 70 once in one park", fk.pokes, len(fk.parks))
	}
}

// TestDoorAbortedNeverParks: a wait in a torn-down world unwinds with the
// hook's value before it sleeps, and leaves no registration behind.
func TestDoorAbortedNeverParks(t *testing.T) {
	fk := fakePace{aborted: true}
	d := NewDoor(4, nil, fk.hook())
	var p Port
	func() {
		defer func() {
			if r := recover(); r != ErrAborted {
				t.Errorf("Wait unwound with %v, want ErrAborted", r)
			}
		}()
		d.Wait(&p, 2, 1, 0)
	}()
	if len(fk.parks) != 0 || d.wait[2] != 0 {
		t.Fatalf("parked %d times, row %#x, in an aborted world", len(fk.parks), d.wait[2])
	}
}

// TestParkerPokeReachesAll parks three goroutines under one slot — a rank's
// pace park, its doorbell wait and a service handler's may share one — and
// pokes once: every one of them is woken, none by its timer. A poke with
// nobody parked is kept for the next to park.
func TestParkerPokeReachesAll(t *testing.T) {
	k := NewParker(2)
	var woken atomic.Int32
	done := make(chan bool, 3)
	for i := 0; i < 3; i++ {
		go func() {
			poked := k.Park(1, 30*time.Second)
			woken.Add(1)
			done <- poked
		}()
	}
	parked := func() int {
		k.slots[1].mu.Lock()
		defer k.slots[1].mu.Unlock()
		return k.slots[1].parked
	}
	for deadline := time.Now().Add(10 * time.Second); parked() < 3; {
		if time.Now().After(deadline) {
			t.Fatal("the three goroutines never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !k.Poke(1) {
		t.Fatal("Poke reported no signal delivered with three goroutines parked")
	}
	for i := 0; i < 3; i++ {
		select {
		case poked := <-done:
			if !poked {
				t.Fatal("a parked goroutine timed out instead of being poked")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("one poke woke %d of 3 goroutines parked under one slot", woken.Load())
		}
	}
	if !k.Poke(0) || !k.Park(0, 30*time.Second) {
		t.Fatal("a poke with nobody parked was not kept for the next park")
	}
	if k.Park(0, time.Millisecond) {
		t.Fatal("park with nothing pending did not time out")
	}
}
