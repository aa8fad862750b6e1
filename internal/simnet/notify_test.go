package simnet

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fompi/internal/timing"
)

// notifyWorld builds a fabric of n ranks with one endpoint and one
// ring-backed region per rank.
func notifyWorld(t *testing.T, n, capacity int) (*Fabric, []*Endpoint, []*NotifyRing) {
	t.Helper()
	f := NewFabric(n, 1)
	eps := make([]*Endpoint, n)
	rings := make([]*NotifyRing, n)
	for r := 0; r < n; r++ {
		eps[r] = f.Endpoint(r, FoMPI())
		reg := eps[r].Register(NotifyRingBytes(capacity) + 1024)
		rings[r] = BindNotifyRing(reg, 0, capacity)
	}
	return f, eps, rings
}

func TestNotifyDeliverAndPop(t *testing.T) {
	_, eps, rings := notifyWorld(t, 2, 8)
	comp := eps[0].Notify(rings[1].Base(), 42)
	if comp <= 0 {
		t.Fatal("notification must advance virtual time")
	}
	if got := rings[1].Pending(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	w, ok := rings[1].TryPop(eps[1])
	if !ok || w != 42 {
		t.Fatalf("pop = (%d, %v), want (42, true)", w, ok)
	}
	if eps[1].Now() < comp {
		t.Errorf("consumer clock %d did not merge notification completion %d", eps[1].Now(), comp)
	}
	if _, ok := rings[1].TryPop(eps[1]); ok {
		t.Error("second pop must find an empty ring")
	}
}

func TestPutNotifyDataBeforeNotification(t *testing.T) {
	_, eps, rings := notifyWorld(t, 2, 8)
	dst := Addr{Rank: 1, Key: rings[1].reg.key, Off: NotifyRingBytes(8)}
	payload := []byte("notified") // 8 bytes
	comp := eps[0].PutNotify(dst, payload, rings[1].Base(), 7)
	w, ok := rings[1].TryPop(eps[1])
	if !ok || w != 7 {
		t.Fatalf("pop = (%d, %v), want (7, true)", w, ok)
	}
	// Consuming the notification must cover the data's completion stamp.
	dataStamp := rings[1].reg.StampMax(dst.Off, len(payload))
	if eps[1].Now() < dataStamp {
		t.Errorf("consumer clock %d below data stamp %d: data not causally visible", eps[1].Now(), dataStamp)
	}
	if comp < dataStamp {
		t.Errorf("notification completion %d precedes data completion %d", comp, dataStamp)
	}
	if got := string(rings[1].reg.Bytes()[dst.Off : dst.Off+8]); got != "notified" {
		t.Errorf("payload = %q", got)
	}
}

func TestGetNotifyNotifiesOwner(t *testing.T) {
	_, eps, rings := notifyWorld(t, 2, 8)
	src := Addr{Rank: 1, Key: rings[1].reg.key, Off: NotifyRingBytes(8)}
	copy(rings[1].reg.Bytes()[src.Off:], "ownerdat")
	dst := make([]byte, 8)
	eps[0].GetNotify(dst, src, rings[1].Base(), 9)
	if string(dst) != "ownerdat" {
		t.Fatalf("get payload = %q", dst)
	}
	if w, ok := rings[1].TryPop(eps[1]); !ok || w != 9 {
		t.Fatalf("owner pop = (%d, %v), want (9, true)", w, ok)
	}
}

func TestNotifyRingOverflowFaults(t *testing.T) {
	_, eps, rings := notifyWorld(t, 2, 4)
	for i := 0; i < 4; i++ {
		eps[0].Notify(rings[1].Base(), uint64(i))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("fifth notification into a capacity-4 ring must fault")
		}
	}()
	eps[0].Notify(rings[1].Base(), 99)
}

func TestNotifyUnboundRingFaults(t *testing.T) {
	f := NewFabric(2, 1)
	ep0 := f.Endpoint(0, FoMPI())
	ep1 := f.Endpoint(1, FoMPI())
	reg := ep1.Register(NotifyRingBytes(4)) // registered but never bound
	defer func() {
		if recover() == nil {
			t.Fatal("notification into an unbound ring must fault")
		}
	}()
	ep0.Notify(Addr{Rank: 1, Key: reg.Key()}, 1)
}

// TestNotifyCorruptCapacityFaults: a capacity word the program overwrote —
// here with a count whose byte size wraps — faults before the deposit takes
// the owner's port, which must be free afterwards (a slot store past the
// region used to panic holding it, and the next inter-node operation on the
// rank spun forever).
func TestNotifyCorruptCapacityFaults(t *testing.T) {
	f := NewFabric(2, 1)
	ep0 := f.Endpoint(0, FoMPI())
	ep1 := f.Endpoint(1, FoMPI())
	reg := ep1.Register(NotifyRingBytes(4))
	ring := BindNotifyRing(reg, 0, 4)
	reg.LocalWordStore(0, 100, 0)    // producer count
	reg.LocalWordStore(16, 1<<61, 0) // capacity: 24 + 8·2^61 wraps to 24
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "more than its region holds") {
				t.Fatalf("deposit into a ring of 2^61 slots: %s, want the capacity fault", msg)
			}
		}()
		ep0.Notify(ring.Base(), 1)
	}()
	ep0.StoreW(Addr{Rank: 1, Key: reg.Key(), Off: 32}, 7) // takes rank 1's port
	if got := reg.LocalWord(32); got != 7 {
		t.Fatalf("store after the fault read back %d, want 7", got)
	}
}

func TestNotifyReservedBitFaults(t *testing.T) {
	_, eps, rings := notifyWorld(t, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("word with bit 63 set must fault")
		}
	}()
	eps[0].Notify(rings[1].Base(), 1<<63)
}

func TestNotifyConcurrentProducers(t *testing.T) {
	const producers = 8
	const each = 32
	f, eps, rings := notifyWorld(t, producers+1, producers*each)
	ring := rings[producers].Base()
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				eps[pr].Notify(ring, uint64(pr*1000+i))
			}
		}(pr)
	}
	// Consume concurrently with production: every word arrives exactly once,
	// and per producer in order.
	got := make(map[uint64]bool, producers*each)
	next := make([]int, producers)
	consumer := eps[producers]
	for n := 0; n < producers*each; n++ {
		w := rings[producers].Pop(consumer)
		if got[w] {
			t.Fatalf("duplicate notification %d", w)
		}
		got[w] = true
		pr, i := int(w/1000), int(w%1000)
		if i != next[pr] {
			t.Fatalf("producer %d delivered out of order: got %d want %d", pr, i, next[pr])
		}
		next[pr]++
	}
	wg.Wait()
	if rings[producers].Pending() != 0 {
		t.Errorf("ring should be drained, %d pending", rings[producers].Pending())
	}
	_ = f
}

func TestNotifyStampMonotonePerProducer(t *testing.T) {
	_, eps, rings := notifyWorld(t, 2, 64)
	// A single producer's notifications complete in nondecreasing virtual
	// time, so the consumer's merged clock after each pop is monotone.
	var comps []timing.Time
	for i := 0; i < 20; i++ {
		comps = append(comps, eps[0].Notify(rings[1].Base(), uint64(i)))
	}
	for i := 1; i < len(comps); i++ {
		if comps[i] < comps[i-1] {
			t.Fatalf("completion %d (%d) earlier than %d (%d)", i, comps[i], i-1, comps[i-1])
		}
	}
	var prev timing.Time
	for i := 0; i < 20; i++ {
		w, ok := rings[1].TryPop(eps[1])
		if !ok || w != uint64(i) {
			t.Fatalf("pop %d = (%d, %v)", i, w, ok)
		}
		if eps[1].Now() < prev {
			t.Fatalf("consumer clock went backwards: %d after %d", eps[1].Now(), prev)
		}
		prev = eps[1].Now()
	}
}

func TestNotifyRingWraps(t *testing.T) {
	_, eps, rings := notifyWorld(t, 2, 3)
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			eps[0].Notify(rings[1].Base(), uint64(round*10+i))
		}
		for i := 0; i < 3; i++ {
			w, ok := rings[1].TryPop(eps[1])
			if !ok || w != uint64(round*10+i) {
				t.Fatalf("round %d pop %d = (%d, %v)", round, i, w, ok)
			}
		}
	}
}

func TestBindNotifyRingValidation(t *testing.T) {
	f := NewFabric(1, 1)
	ep := f.Endpoint(0, FoMPI())
	reg := ep.Register(64)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero capacity", func() { BindNotifyRing(reg, 0, 0) }},
		{"misaligned", func() { BindNotifyRing(ep.Register(128), 4, 2) }},
		{"too small", func() { BindNotifyRing(reg, 0, 1000) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: BindNotifyRing must fault", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// TestBindNotifyRingOverDirtyMemory: Bind over memory a previous tenant left
// all ones yields a zeroed header and slot array, the capacity it was given,
// no pending notification and a ring that delivers; the bytes around the ring
// keep what they held.
func TestBindNotifyRingOverDirtyMemory(t *testing.T) {
	const capacity, off = 5, 16
	f := NewFabric(2, 1)
	ep0 := f.Endpoint(0, FoMPI())
	ep1 := f.Endpoint(1, FoMPI())
	reg := ep1.Register(off + NotifyRingBytes(capacity) + 8)
	buf := reg.Bytes()
	for i := range buf {
		buf[i] = 0xFF
	}
	ring := BindNotifyRing(reg, off, capacity)
	for i := 0; i < NotifyRingBytes(capacity); i += 8 {
		want := uint64(0)
		if i == 16 {
			want = capacity
		}
		if got := reg.LocalWord(off + i); got != want {
			t.Errorf("ring word at +%d = %#x after Bind, want %#x", i, got, want)
		}
	}
	for _, i := range []int{0, off - 1, off + NotifyRingBytes(capacity)} {
		if buf[i] != 0xFF {
			t.Errorf("byte %d outside the ring = %#x, want it untouched", i, buf[i])
		}
	}
	if ring.Cap() != capacity || ring.Pending() != 0 {
		t.Fatalf("bound ring: cap %d pending %d, want %d and 0", ring.Cap(), ring.Pending(), capacity)
	}
	ep0.Notify(ring.Base(), 11)
	if w, ok := ring.TryPop(ep1); !ok || w != 11 {
		t.Fatalf("pop = (%d, %v), want (11, true)", w, ok)
	}
}

func TestNotifyRingBytes(t *testing.T) {
	for _, capacity := range []int{1, 7, 256} {
		want := 24 + capacity*8
		if got := NotifyRingBytes(capacity); got != want {
			t.Errorf("NotifyRingBytes(%d) = %d, want %d", capacity, got, want)
		}
	}
}

// TestNotifyAtAndFetchChargeNothing: the two carriers of a formula-priced
// layer move their bytes and stamp what they are told, and nothing else —
// the issuer's clock and operation counters stay put, no pace clock is
// published, and neither books the target's NIC. The ring's owner reads the
// word and the stamp back, and a full ring faults as any notification's does.
func TestNotifyAtAndFetchChargeNothing(t *testing.T) {
	f := NewFabric(2, 1) // inter-node: the path that books NICs
	f.SetPacing(1000)
	eps := make([]*Endpoint, 2)
	rings := make([]*NotifyRing, 2)
	for r := range eps {
		eps[r] = f.Endpoint(r, CrayMPI1())
		rings[r] = BindNotifyRing(eps[r].Register(NotifyRingBytes(2)+4096), 0, 2)
	}
	f.Endpoint(0, FoMPI()).Compute(777) // rank 0's published clock, ahead of eps[0]'s
	copy(rings[1].reg.Bytes()[1024:], "fetched bytes")
	before, ctr := eps[0].Now(), eps[0].Counters()
	eps[0].NotifyAt(rings[1].Base(), 77, 123_456)
	got := make([]byte, 2048)
	eps[0].Fetch(got, Addr{Rank: 1, Key: rings[1].reg.key, Off: 1024})
	if string(got[:13]) != "fetched bytes" {
		t.Fatalf("Fetch copied %q", got[:13])
	}
	after := eps[0].Counters()
	after.RouteMisses = ctr.RouteMisses // the route memo's own tally
	if eps[0].Now() != before || after != ctr || f.Pacer().Clock(0) != 777 {
		t.Fatalf("the carriers charged: clock %d→%d, counters %+v→%+v, published clock %d",
			before, eps[0].Now(), ctr, eps[0].Counters(), f.Pacer().Clock(0))
	}
	if p := f.Port(1); p.nicStart != 0 || p.nicBusy != 0 {
		t.Fatalf("the carriers booked rank 1's NIC for [%d, %d)", p.nicStart, p.nicBusy)
	}
	w, stamp, ok := rings[1].TryPopStamped(eps[1])
	if !ok || w != 77 || stamp != 123_456 {
		t.Fatalf("pop = (%d, %d, %v), want (77, 123456, true)", w, stamp, ok)
	}
	eps[0].NotifyAt(rings[1].Base(), 1, 0)
	eps[0].NotifyAt(rings[1].Base(), 2, 0)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "overflowed") {
			t.Fatalf("a third NotifyAt into a two-slot ring: %v, want the overflow fault", r)
		}
	}()
	eps[0].NotifyAt(rings[1].Base(), 3, 0)
}
