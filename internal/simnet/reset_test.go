package simnet

import (
	"testing"
	"time"
)

// TestFabricResetIsNew: Reset takes a fabric that served a world back to the
// state NewFabric leaves one in — every port zero (generation, NIC interval,
// waiter count), every directory empty with keys from 0 again, no abort, no
// pacer, no endpoint handed out, every parker slot unpoked — and a region the
// world left registered loses its liveness. A parker slot keeps its stopped
// timer, and the next park re-arms that one.
func TestFabricResetIsNew(t *testing.T) {
	const n = 2
	f := NewFabric(n, 1)
	f.SetPacing(1000)
	a, b := f.Endpoint(0, FoMPI()), f.Endpoint(1, FoMPI())
	left := b.Register(64)
	a.Compute(1_000_000)
	a.Put(left.Base(), make([]byte, 64))
	f.RingDoorbell(0)
	f.Port(1).enter()
	k := f.Parker()
	k.Park(1, k.Seq(1), time.Millisecond)
	k.Poke(n + 1)
	timer := k.slots[1].timer
	if timer == nil {
		t.Fatal("a park made no timer")
	}
	f.Abort(1)
	k.Stop()

	f.Reset()
	for r := range n {
		if p := &f.nodes[r].port; p.word != 0 || p.wait != 0 || p.nicStart != 0 || p.nicBusy != 0 {
			t.Errorf("rank %d's port after Reset: word %#x wait %#x NIC [%d, %d), want all zero", r, p.word, p.wait, p.nicStart, p.nicBusy)
		}
		if d := &f.nodes[r].dir; d.used != 0 || len(d.free) != 0 || &d.table()[0] != &d.first[0] || d.Get(left.Key()) != nil {
			t.Errorf("rank %d's directory after Reset: %d slots used, %d free, its own table %v, key %d live %v",
				r, d.used, len(d.free), &d.table()[0] == &d.first[0], left.Key(), d.Get(left.Key()) != nil)
		}
	}
	if left.liveAs(left.Key()) {
		t.Error("a region left registered is still live after Reset")
	}
	if f.Aborted() || f.abortErr() != nil || f.Pacer() != nil || f.endpointsOut.Load() {
		t.Errorf("after Reset: aborted %v (%v), pacer %v, endpoints out %v", f.Aborted(), f.abortErr(), f.Pacer(), f.endpointsOut.Load())
	}
	for i := range k.slots {
		if s := &k.slots[i]; s.pokes.Load() != 0 || s.wakeAt != 0 {
			t.Errorf("parker slot %d after Reset: %d pokes, wake at %v", i, s.pokes.Load(), s.wakeAt)
		}
	}
	if k.aborted.Load() {
		t.Error("the parker is still aborted after Reset")
	}

	if poked := k.Park(1, k.Seq(1), time.Millisecond); poked || k.slots[1].timer != timer {
		t.Errorf("a park after Reset: poked %v, same timer %v; want a timeout on the kept timer", poked, k.slots[1].timer == timer)
	}
	k.Stop()
	if reg := f.Endpoint(1, FoMPI()).Register(64); reg.Key() != 0 {
		t.Errorf("the first registration after Reset got key %d, want 0", reg.Key())
	}
}
