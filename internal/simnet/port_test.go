package simnet

import (
	"encoding/binary"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fompi/internal/timing"
)

// TestPortExclusionAndRings hammers one port from both sides of its lock:
// holders acquire and release with and without the ring (LockRing and
// UnlockRing, Lock and Unlock) while outsiders ring with plain adds on the
// wait word. Mutual exclusion must hold (the guarded counter is plain
// memory, so -race checks the lock's ordering too), each word must count
// exactly its own rings, and at rest both bits must be clear and no waiter
// counted — never lost to a concurrent ring, never leaked by a release.
func TestPortExclusionAndRings(t *testing.T) {
	const holders, outsiders, iters = 4, 3, 20000
	var p Port
	var inside, entries int // guarded by p
	var held, outside atomic.Uint64
	var wg sync.WaitGroup
	start := make(chan struct{}) // everyone must overlap to contend at all
	for h := 0; h < holders; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				ring := (i+h)%3 == 0
				if ring {
					p.LockRing()
				} else {
					p.Lock()
				}
				if inside++; inside != 1 {
					t.Errorf("%d holders inside the port", inside)
				}
				entries++
				p.BookNIC(timing.Time(i), 1)
				inside--
				if ring {
					held.Add(1)
					p.UnlockRing()
				} else {
					p.Unlock()
				}
			}
		}(h)
	}
	for o := 0; o < outsiders; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				outside.Add(1)
				p.Ring()
			}
		}()
	}
	close(start)
	wg.Wait()
	if entries != holders*iters {
		t.Errorf("%d critical sections ran, want %d", entries, holders*iters)
	}
	if got, want := p.Gen(), held.Load()+outside.Load(); got != want {
		t.Errorf("generation advanced by %d over %d rings", got, want)
	}
	w, wt := atomic.LoadUint64(&p.word), atomic.LoadUint64(&p.wait)
	if w&heldBits != 0 || w/holderRing != held.Load() || wt&maxWaiters != 0 || wt/outsideRing != outside.Load() {
		t.Errorf("port words %#x, %#x at rest (bits %b, holder rings %d, waiters %d, outside rings %d), want the bits clear, no waiters and %d + %d rings",
			w, wt, w&heldBits, w/holderRing, wt&maxWaiters, wt/outsideRing, held.Load(), outside.Load())
	}
}

// TestPortRingReportsWaiters: a ring, in the release of a LockRing hold or
// from outside the lock, reports waiters exactly while one is counted in — a
// door waiter parked on the port, here — and a plain release reports
// nothing.
func TestPortRingReportsWaiters(t *testing.T) {
	var p Port
	rings := func(want bool, when string) {
		t.Helper()
		if got := p.Ring(); got != want {
			t.Errorf("Ring reported waiters %v %s, want %v", got, when, want)
		}
		p.LockRing()
		if got := p.UnlockRing(); got != want {
			t.Errorf("UnlockRing reported waiters %v %s, want %v", got, when, want)
		}
		p.Lock()
		p.Unlock()
	}
	rings(false, "on a fresh port")
	var fk fakePace
	fk.onPark = func(n int) bool {
		rings(true, "with a waiter parked")
		return true
	}
	if g := fk.hook().DoorWait(&p, 0, p.Gen()); g != 4 {
		t.Fatalf("Wait returned generation %d after four rings, want 4", g)
	}
	rings(false, "after the waiter left")
	if w, wt := atomic.LoadUint64(&p.word), atomic.LoadUint64(&p.wait); w != 3*holderRing || wt != 3*outsideRing {
		t.Errorf("port words %#x, %#x after six rings and one wait, want three holder rings, three outside and nothing else", w, wt)
	}
}

// TestPortWaiterFieldBounded fills the wait word's waiter count to the
// field's maximum with outside rings before and after, and a ringing hold on
// top: the rings, the bits and the count each read exactly what was put in,
// so the count cannot carry into the outside rings at any count the layout
// admits.
func TestPortWaiterFieldBounded(t *testing.T) {
	var p Port
	p.Ring()
	p.Ring()
	for i := 0; i < maxWaiters; i++ {
		p.enter()
	}
	if !p.Ring() {
		t.Fatal("an outside ring with the waiter field full reported no waiters")
	}
	p.LockRing()
	if !p.UnlockRing() {
		t.Fatal("a ringing release with the waiter field full reported no waiters")
	}
	w, wt := atomic.LoadUint64(&p.word), atomic.LoadUint64(&p.wait)
	if w != holderRing || wt&maxWaiters != maxWaiters || wt/outsideRing != 3 || p.Gen() != 4 {
		t.Fatalf("port words %#x, %#x with %d waiters after 4 rings: bits %b, waiters %d, outside rings %d, generation %d",
			w, wt, maxWaiters, w&heldBits, wt&maxWaiters, wt/outsideRing, p.Gen())
	}
	for i := 0; i < maxWaiters; i++ {
		p.leave()
	}
	if wt := atomic.LoadUint64(&p.wait); wt != 3*outsideRing {
		t.Fatalf("wait word %#x after every waiter left, want three outside rings and nothing else", wt)
	}
}

// BenchmarkPortRead times one uncontended hold of a read — Lock, a NIC
// booking, Unlock — and BenchmarkPortWrite one of a write that rings in its
// release: LockRing, a booking, UnlockRing. Each is one locked instruction,
// the acquiring CAS, and allocates nothing.
func BenchmarkPortRead(b *testing.B) {
	var p Port
	portAllocFree(b, func() {
		p.Lock()
		p.BookNIC(0, 1)
		p.Unlock()
	})
	for i := 0; i < b.N; i++ {
		p.Lock()
		p.BookNIC(timing.Time(i), 1)
		p.Unlock()
	}
}

func BenchmarkPortWrite(b *testing.B) {
	var p Port
	portAllocFree(b, func() {
		p.LockRing()
		p.BookNIC(0, 1)
		p.UnlockRing()
	})
	for i := 0; i < b.N; i++ {
		p.LockRing()
		p.BookNIC(timing.Time(i), 1)
		p.UnlockRing()
	}
}

// portAllocFree fails b if hold allocates, and starts its timer.
func portAllocFree(b *testing.B, hold func()) {
	if avg := testing.AllocsPerRun(100, hold); avg > 0 {
		b.Fatalf("a port hold allocates %.2f objects, want 0", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
}

// TestAmoChainsSerializeOnPort runs the owner-side executor the way
// concurrent requesters drive it — two inter-node (NIC-booking) and one
// intra-node (no booking, still under the port), each alternating between
// one word in each of two regions of the same owner — and checks every
// word's chain exactly: ordered by the value each atomic fetched, landing
// stamps rise strictly and each link departs no earlier than its
// predecessor landed; counts are exact.
func TestAmoChainsSerializeOnPort(t *testing.T) {
	const perOrigin = 40000
	f := NewFabric(2, 1)
	owner := f.Endpoint(0, FoMPI())
	regs := [2]*Region{owner.Register(64), owner.Register(64)}
	type link struct {
		old        uint64
		land, base timing.Time
	}
	var mu sync.Mutex
	var chains [2][]link
	var wg sync.WaitGroup
	start := make(chan struct{})
	for o, reserve := range []bool{true, true, false} {
		wg.Add(1)
		go func(o int, reserve bool) {
			defer wg.Done()
			var mine [2][]link
			var one, fetched [8]byte
			binary.LittleEndian.PutUint64(one[:], 1)
			<-start
			clock, free := timing.Time(o), timing.Time(0)
			for i := 0; i < perOrigin; i++ {
				w := (i + o) % 2
				x := RegionExec{Reg: regs[w]}
				if i%2 == 0 {
					x.Ring = f
				}
				land, base, nf := x.Amo(AmoSum, 8, one[:], 0, fetched[:], clock, free, reserve, 240, 1)
				mine[w] = append(mine[w], link{binary.LittleEndian.Uint64(fetched[:]), land, base})
				clock, free = clock+100, nf
			}
			mu.Lock()
			for w := range mine {
				chains[w] = append(chains[w], mine[w]...)
			}
			mu.Unlock()
		}(o, reserve)
	}
	close(start)
	wg.Wait()
	for w, c := range chains {
		sort.Slice(c, func(i, j int) bool { return c[i].old < c[j].old })
		if got := regs[w].LocalWord(8); got != uint64(len(c)) {
			t.Errorf("region %d: word counts %d after %d atomics", w, got, len(c))
		}
		for k, l := range c {
			if l.old != uint64(k) {
				t.Fatalf("region %d: fetched values are not 0..n-1 (position %d holds %d)", w, k, l.old)
			}
			if k > 0 && (l.land <= c[k-1].land || l.base < c[k-1].land) {
				t.Fatalf("region %d: link %d (base %d, land %d) does not chain behind link %d (land %d)",
					w, k, l.base, l.land, k-1, c[k-1].land)
			}
		}
		if got, want := regs[w].StampMax(8, 8), c[len(c)-1].land; got != want {
			t.Errorf("region %d: word stamped %d at rest, want the last link's landing %d", w, got, want)
		}
	}
}

// TestAmoUnknownOpFaultsFree: an op code outside the atomic unit's set —
// which a corrupt wire frame can carry — faults a fetching word AMO and a
// chained one alike, by name, and so do operands that are not whole words
// and a fetch buffer of another length; the word entry (AmoWord) faults a
// bad op, a misaligned offset and an out-of-range one by name too; all
// before the port is taken: the word is untouched and the port word reads
// as it did.
func TestAmoUnknownOpFaultsFree(t *testing.T) {
	f := NewFabric(1, 1)
	reg := f.Endpoint(0, FoMPI()).Register(64)
	x := RegionExec{Reg: reg, Ring: f}
	before, waitBefore := atomic.LoadUint64(&reg.port.word), atomic.LoadUint64(&reg.port.wait)
	bad := AmoNoOp + 1
	word := faultOf(func() { x.Amo(bad, 8, make([]byte, 8), 0, make([]byte, 8), 0, 0, true, 240, 1) })
	chain := faultOf(func() { x.Amo(bad, 8, make([]byte, 16), 0, nil, 0, 0, true, 240, 1) })
	const want = "simnet: unknown AMO operator 7"
	if word != want || chain != want {
		t.Fatalf("unknown op faulted the word AMO with %q and the chained one with %q, want %q for both", word, chain, want)
	}
	for _, c := range []struct{ src, old []byte }{
		{make([]byte, 12), nil},
		{make([]byte, 8), make([]byte, 16)},
		{make([]byte, 16), make([]byte, 8)},
	} {
		if msg := faultOf(func() { x.Amo(AmoSum, 8, c.src, 0, c.old, 0, 0, true, 240, 1) }); !strings.Contains(msg, "want whole words") {
			t.Fatalf("an AMO of %d operand bytes fetching into %d faulted with %q, want the operand-shape fault", len(c.src), len(c.old), msg)
		}
	}
	for _, c := range []struct {
		op   AmoOp
		off  int
		want string
	}{
		{bad, 8, want},
		{AmoSum, 12, "hostatomic: misaligned 8-byte atomic access"},
		{AmoSum, 64, "simnet: access [64,72) outside region of 64 bytes"},
		{AmoCas, -8, "simnet: access [-8,0) outside region of 64 bytes"},
	} {
		if msg := faultOf(func() { x.AmoWord(c.op, c.off, 1, 0, 0, 0, true, 240, 1) }); !strings.HasPrefix(msg, c.want) {
			t.Fatalf("AmoWord(op %d, off %d) faulted with %q, want %q", c.op, c.off, msg, c.want)
		}
	}
	if w, wt := atomic.LoadUint64(&reg.port.word), atomic.LoadUint64(&reg.port.wait); w != before || wt != waitBefore {
		t.Fatalf("port words %#x, %#x after the faults, want %#x, %#x: a fault left the port held", w, wt, before, waitBefore)
	}
	if v := reg.LocalWord(8); v != 0 {
		t.Fatalf("word %#x after the faults, want it untouched", v)
	}
}

// TestApplyAmoTable drives every operator of the one set through applyAmo:
// each returns the prior word and leaves op(prior, operand) behind.
func TestApplyAmoTable(t *testing.T) {
	const prior = 0b1100
	for _, c := range []struct {
		op     AmoOp
		o1, o2 uint64
		after  uint64
	}{
		{AmoSum, 3, 0, 15},
		{AmoBand, 0b1010, 0, 0b1000},
		{AmoBor, 0b1010, 0, 0b1110},
		{AmoBxor, 0b1010, 0, 0b0110},
		{AmoReplace, 99, 0, 99},
		{AmoCas, prior, 7, 7},
		{AmoCas, prior + 1, 7, prior},
		{AmoNoOp, 99, 0, prior},
	} {
		buf := make([]byte, 16)
		binary.LittleEndian.PutUint64(buf[8:], prior)
		if old := applyAmo(buf, 8, c.op, c.o1, c.o2); old != prior {
			t.Errorf("op %d: fetched %#x, want %#x", c.op, old, prior)
		}
		if got := binary.LittleEndian.Uint64(buf[8:]); got != c.after {
			t.Errorf("op %d (%#x, %#x): word %#x, want %#x", c.op, c.o1, c.o2, got, c.after)
		}
	}
}

// TestOneWordPutStampsFirst: a rank polling a word outside the port, as
// WaitLocal's predicates do, merges the word's stamp the moment it sees a
// new value, so a one-word put must stamp before it stores. The writer's
// arrivals rise with the value it stores; a reader that sees value v and
// then reads a stamp below v's arrival has read the previous put's stamp.
func TestOneWordPutStampsFirst(t *testing.T) {
	for _, reserve := range []bool{true, false} {
		reg := NewFabric(1, 1).Endpoint(0, FoMPI()).Register(64)
		if stale, seen := putStampRace(RegionExec{Reg: reg}, reg, reserve); stale != 0 {
			t.Errorf("reserve=%v: %d of %d values seen carried an earlier put's stamp", reserve, stale, seen)
		}
	}
}

// putStampRace drives one-word puts of 1, 2, ... through x at word 8,
// arriving at 10 ns per unit of value, while a reader spins on reader's
// view of the word; it returns how many of the values the reader saw
// carried a stamp below their own arrival.
func putStampRace(x RegionExec, reader *Region, reserve bool) (stale, seen int) {
	const puts = 200000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for last := uint64(0); last < puts; {
			if v := reader.LocalWord(8); v != last {
				if seen++; reader.StampMax(8, 8) < timing.Time(10*v) {
					stale++
				}
				last = v
			}
		}
	}()
	var src [8]byte
	for v := uint64(1); v <= puts; v++ {
		binary.LittleEndian.PutUint64(src[:], v)
		x.Put(8, src[:], reserve, timing.Time(10*v), 1)
	}
	<-done
	return stale, seen
}
