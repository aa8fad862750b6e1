package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fompi/internal/timing"
)

// faultOf runs fn and returns the message it panicked with ("" if it
// returned).
func faultOf(fn func()) (msg string) {
	defer func() {
		if e := recover(); e != nil {
			msg = fmt.Sprint(e)
		}
	}()
	fn()
	return ""
}

const unregisteredMsg = "access to unregistered region"

// TestEndpointInitIdentical holds the two ways of making an endpoint to one
// initialiser: a slab endpoint and a NewEndpoint endpoint of the same rank
// must agree in every field, cached topology and empty routes included.
func TestEndpointInitIdentical(t *testing.T) {
	f := NewFabric(6, 2)
	f.SetPacing(500)
	cm := FoMPI()
	slab := f.Endpoints(nil, cm)
	for r := range slab {
		if single := NewEndpoint(f, r, cm); !reflect.DeepEqual(*single, slab[r]) {
			t.Fatalf("rank %d: slab endpoint %+v differs from NewEndpoint's %+v", r, slab[r], *single)
		}
	}
	if ep := &slab[3]; ep.rpn != 2 || ep.node != 1 || ep.pacer != f.Pacer() || ep.pacer == nil {
		t.Fatalf("rank 3 cached rpn=%d node=%d pacer=%p, want 2, 1, the fabric's %p", ep.rpn, ep.node, ep.pacer, f.Pacer())
	}

	// A slab handed back after use comes out as fresh as a new one: clock,
	// NIC, routes and counters all zero, and the cache the reset fabric's
	// new pacing window gives.
	reg := slab[1].Register(64)
	slab[0].Put(reg.Base(), make([]byte, 8))
	f.Reset()
	f.SetPacing(0)
	reused := f.Endpoints(slab, cm)
	if &reused[0] != &slab[0] {
		t.Fatal("Endpoints reallocated a slab that holds one endpoint per rank")
	}
	for r := range reused {
		if single := NewEndpoint(f, r, cm); !reflect.DeepEqual(*single, reused[r]) {
			t.Fatalf("rank %d: reused endpoint %+v differs from NewEndpoint's %+v", r, reused[r], *single)
		}
	}
}

// TestSetPacingAfterEndpointPanics pins the ordering the cached pacer
// imposes: the window is set before the first endpoint exists.
func TestSetPacingAfterEndpointPanics(t *testing.T) {
	f := NewFabric(2, 1)
	f.SetPacing(100) // before any endpoint: fine, and repeatable
	f.SetPacing(0)
	f.Endpoint(0, FoMPI())
	if msg := faultOf(func() { f.SetPacing(100) }); !strings.Contains(msg, "SetPacing after an endpoint was created") {
		t.Fatalf("SetPacing after Endpoint panicked with %q, want the ordering message", msg)
	}
	g := NewFabric(2, 1)
	g.Endpoints(nil, FoMPI())
	if faultOf(func() { g.SetPacing(100) }) == "" {
		t.Fatal("SetPacing after Endpoints did not panic")
	}
}

// warm drives one put, get and fetch-add at a so the route is resident, and
// checks the second round was served from the memo.
func warm(t *testing.T, ep *Endpoint, a Addr) {
	t.Helper()
	buf := make([]byte, 8)
	for i := 0; i < 2; i++ {
		before := ep.Counters().RouteMisses
		ep.Put(a, buf)
		ep.Get(buf, a)
		ep.FetchAdd(a, 1)
		if got := ep.Counters().RouteMisses - before; i == 1 && got != 0 {
			t.Fatalf("warm round missed the route memo %d times", got)
		}
	}
}

// TestUnregisterFaultsWarm is TestUnregisterFaults through a resident route:
// every operation class faults on the first access after the owner's
// Unregister, and the bytes stay as the owner left them.
func TestUnregisterFaultsWarm(t *testing.T) {
	for _, ppn := range []int{1, 2} {
		_, e0, e1 := newPair(t, ppn)
		reg := e1.Register(64)
		a := reg.Base()
		warm(t, e0, a)
		e1.Unregister(reg)
		for i := range reg.Bytes() {
			reg.Bytes()[i] = 0xA5
		}
		word := make([]byte, 8)
		ops := map[string]func(){
			"put":      func() { e0.Put(a, word) },
			"get":      func() { e0.Get(word, a) },
			"fetchadd": func() { e0.FetchAdd(a, 1) },
			"storew":   func() { e0.StoreW(a, 7) },
			"loadw":    func() { e0.LoadW(a) },
		}
		for name, op := range ops {
			if msg := faultOf(op); !strings.Contains(msg, unregisteredMsg) {
				t.Errorf("ppn %d: %s through a warm route after Unregister: %q, want a fault", ppn, name, msg)
			}
		}
		for i, b := range reg.Bytes() {
			if b != 0xA5 {
				t.Fatalf("ppn %d: byte %d written through a retired registration", ppn, i)
			}
		}
	}
}

// TestRouteReregisteredStruct re-registers one Region struct under a new key
// (RegisterBufStampsInto into slab state does): the live-again handle must
// not serve the route filled under its old key.
func TestRouteReregisteredStruct(t *testing.T) {
	_, e0, e1 := newPair(t, 1)
	var reg Region
	e1.RegisterBufStampsInto(&reg, make([]byte, 64), timing.NewStamps(64))
	old := reg.Base()
	warm(t, e0, old)
	e1.Unregister(&reg)
	e1.RegisterBufStampsInto(&reg, make([]byte, 64), timing.NewStamps(64))
	if reg.Key() == old.Key {
		t.Fatalf("key %d reused", old.Key)
	}
	if msg := faultOf(func() { e0.StoreW(old, 1) }); !strings.Contains(msg, unregisteredMsg) {
		t.Fatalf("old address of a re-registered struct: %q, want a fault", msg)
	}
	e0.StoreW(reg.Base(), 42)
	if got := reg.LocalWord(0); got != 42 {
		t.Fatalf("new address resolved to word %d, want 42", got)
	}
}

// TestRouteServesRegionRegisteredBetweenOps checks the memo serves the
// current table: a region its owner registers between two of a requester's
// operations is reached by the next one, and the first region keeps its
// write.
func TestRouteServesRegionRegisteredBetweenOps(t *testing.T) {
	for _, ppn := range []int{1, 2} {
		_, e0, e1 := newPair(t, ppn)
		old := e1.Register(64)
		e0.StoreW(old.Base(), 1)
		fresh := e1.Register(64)
		e0.StoreW(fresh.Base().Add(8), 9)
		if got := fresh.LocalWord(8); got != 9 {
			t.Fatalf("ppn %d: write through a region registered between two ops = %d, want 9", ppn, got)
		}
		if got := old.LocalWord(0); got != 1 {
			t.Fatalf("ppn %d: first region's word = %d, want 1", ppn, got)
		}
	}
}

// routeWorld is a deterministic fixture with more (rank, key) pairs than the
// route memo has slots, each region carrying a notification ring, driven
// from rank 0 on the test goroutine.
type routeWorld struct {
	ep   *Endpoint
	regs []*Region
}

const (
	routeRegBytes = 4096
	routeRingOff  = 2048
	routeRingCap  = 128
)

func newRouteWorld() *routeWorld {
	const ranks, perRank = 4, 3 * routeSlots / 4 // 36 pairs behind 16 slots
	f := NewFabric(ranks, 2)
	w := &routeWorld{ep: f.Endpoint(0, FoMPI())}
	for r := 1; r < ranks; r++ {
		owner := f.Endpoint(r, FoMPI())
		for i := 0; i < perRank; i++ {
			reg := owner.Register(routeRegBytes)
			BindNotifyRing(reg, routeRingOff, routeRingCap)
			w.regs = append(w.regs, reg)
		}
	}
	return w
}

// run issues n seeded random operations; with bypass every operation finds
// the memo empty.
func (w *routeWorld) run(seed int64, n int, bypass bool) {
	rng := rand.New(rand.NewSource(seed))
	ep := w.ep
	buf := make([]byte, 256)
	for i := range buf {
		buf[i] = byte(i*13 + 1)
	}
	for i := 0; i < n; i++ {
		reg := w.regs[rng.Intn(len(w.regs))]
		a := reg.Base().Add(8 * rng.Intn(routeRingOff/8-32))
		size := 8 * (1 + rng.Intn(32))
		if bypass {
			ep.routes = [routeSlots]route{}
		}
		switch rng.Intn(7) {
		case 0:
			ep.PutNBI(a, buf[:size])
		case 1:
			ep.GetNBI(buf[:size], a)
		case 2:
			_, h := ep.FetchOpNB(a, AmoSum, rng.Uint64()>>1)
			ep.Wait(h)
		case 3:
			ep.CompareSwap(a, 0, rng.Uint64())
		case 4:
			ep.StoreW(a, rng.Uint64())
		case 5:
			ep.Notify(reg.Base().Add(routeRingOff), uint64(i))
		case 6:
			ep.PutNotify(a, buf[:size], reg.Base().Add(routeRingOff), uint64(i))
		}
	}
	ep.Gsync()
}

// TestRouteMemoEquivalence is the memo's fixed point: a random sequence over
// more targets than it holds, so slots are lost and refilled throughout,
// agrees bit for bit — clock, counters, stamps, bytes — with the same
// sequence resolved through the transport every time.
func TestRouteMemoEquivalence(t *testing.T) {
	const ops = 3000
	for seed := int64(1); seed <= 5; seed++ {
		memo, plain := newRouteWorld(), newRouteWorld()
		memo.run(seed, ops, false)
		plain.run(seed, ops, true)
		if memo.ep.Now() != plain.ep.Now() {
			t.Fatalf("seed %d: clock with memo %d, without %d", seed, memo.ep.Now(), plain.ep.Now())
		}
		mc, pc := memo.ep.Counters(), plain.ep.Counters()
		if mc.RouteMisses <= int64(len(memo.regs)) || mc.RouteMisses >= pc.RouteMisses {
			t.Fatalf("seed %d: %d misses with the memo over %d targets, %d without: the sequence must lose slots to collisions and still hit",
				seed, mc.RouteMisses, len(memo.regs), pc.RouteMisses)
		}
		mc.RouteMisses, pc.RouteMisses = 0, 0
		if mc != pc {
			t.Fatalf("seed %d: counters with memo %+v, without %+v", seed, mc, pc)
		}
		for i, mr := range memo.regs {
			pr := plain.regs[i]
			for off := 0; off < routeRegBytes; off += 8 {
				if mr.StampMax(off, 8) != pr.StampMax(off, 8) {
					t.Fatalf("seed %d: stamp of region %d off %d with memo %d, without %d",
						seed, i, off, mr.StampMax(off, 8), pr.StampMax(off, 8))
				}
				if mr.LocalWord(off) != pr.LocalWord(off) {
					t.Fatalf("seed %d: word of region %d off %d diverged", seed, i, off)
				}
			}
		}
	}
}
