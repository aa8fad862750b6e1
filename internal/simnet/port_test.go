package simnet

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"fompi/internal/timing"
)

// TestPortExclusionAndRings hammers one port from both sides of its lock:
// holders acquire and release with and without the ring while outsiders ring
// with plain adds. Mutual exclusion must hold (the guarded counter is plain
// memory, so -race checks the lock's ordering too), the generation must
// advance by exactly the number of rings, and the lock bit must end clear —
// never lost to a concurrent ring, never leaked by a release.
func TestPortExclusionAndRings(t *testing.T) {
	const holders, outsiders, iters = 4, 3, 20000
	var p Port
	var inside, entries int // guarded by p
	var rings atomic.Uint64
	var wg sync.WaitGroup
	start := make(chan struct{}) // everyone must overlap to contend at all
	for h := 0; h < holders; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				p.Lock()
				if inside++; inside != 1 {
					t.Errorf("%d holders inside the port", inside)
				}
				entries++
				p.BookNIC(timing.Time(i), 1)
				inside--
				if (i+h)%3 == 0 {
					rings.Add(1)
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
				rings.Add(1)
				p.Ring()
			}
		}()
	}
	close(start)
	wg.Wait()
	if entries != holders*iters {
		t.Errorf("%d critical sections ran, want %d", entries, holders*iters)
	}
	if got, want := p.Gen(), rings.Load(); got != want {
		t.Errorf("generation advanced by %d over %d rings", got, want)
	}
	if w := atomic.LoadUint64(&p.word); w != rings.Load()<<1 {
		t.Errorf("port word %#x at rest, want generation %d with the lock bit clear", w, rings.Load())
	}
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
			<-start
			clock, free := timing.Time(o), timing.Time(0)
			for i := 0; i < perOrigin; i++ {
				w := (i + o) % 2
				old, land, base, nf := RegionExec{Reg: regs[w], Ring: i%2 == 0}.WordAmo(
					WordAdd, 8, 1, 0, clock, free, reserve, 240, 1)
				mine[w] = append(mine[w], link{old, land, base})
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
