package simnet

import (
	"strings"
	"testing"
)

// TestDirectoryRecyclesSlots pins the one key allocator: a fresh rank hands
// out 0, 1, 2, … in registration order; a rank that churns registrations
// holds a table no longer than its most live ones at once; and a key whose
// slot now serves a later registration faults by name, through a warm route
// as through a cold lookup, while the slot's new key reaches the new region.
func TestDirectoryRecyclesSlots(t *testing.T) {
	f := NewFabric(2, 1)
	owner, peer := f.Endpoint(0, FoMPI()), f.Endpoint(1, FoMPI())
	var live [3]*Region
	for i := range live {
		if live[i] = owner.RegisterBuf(make([]byte, 64)); live[i].Key() != Key(i) {
			t.Fatalf("registration %d of a fresh rank got key %d, want %d", i, live[i].Key(), i)
		}
	}
	for c := 0; c < 10000; c++ {
		owner.Unregister(live[c%3])
		live[c%3] = owner.RegisterBuf(make([]byte, 64))
	}
	if n := f.nodes[0].dir.used; n > 3 {
		t.Fatalf("table holds %d slots after 10000 cycles with at most 3 live registrations", n)
	}

	stale := live[0].Base()
	warm(t, peer, stale)
	owner.Unregister(live[0])
	live[0] = owner.RegisterBuf(make([]byte, 64))
	if k := live[0].Key(); k.Slot() != stale.Key.Slot() || k == stale.Key {
		t.Fatalf("re-registration got key %d, want slot %d's next generation after key %d", k, stale.Key.Slot(), stale.Key)
	}
	word := make([]byte, 8)
	if msg := faultOf(func() { peer.Put(stale, word) }); !strings.Contains(msg, unregisteredMsg) {
		t.Errorf("put through a warm route to a reused slot's old key: %q, want a fault", msg)
	}
	cold := f.Endpoint(1, FoMPI())
	if msg := faultOf(func() { cold.Put(stale, word) }); !strings.Contains(msg, unregisteredMsg) {
		t.Errorf("put through a cold lookup of a reused slot's old key: %q, want a fault", msg)
	}
	peer.StoreW(live[0].Base(), 7)
	if got := live[0].LocalWord(0); got != 7 {
		t.Fatalf("the slot's new key wrote word %d, want 7", got)
	}
}

// TestDirectoryDropIsIdempotent checks that a key dropped twice, or never
// issued, frees no slot a second time: two later Adds get two slots.
func TestDirectoryDropIsIdempotent(t *testing.T) {
	var d Directory
	r := &Region{live: new(uint32)}
	k := d.Add(r)
	d.Drop(k)
	d.Drop(k)
	d.Drop(k + 5)
	a, b := d.Add(&Region{live: new(uint32)}), d.Add(&Region{live: new(uint32)})
	if a.Slot() == b.Slot() {
		t.Fatalf("keys %d and %d share slot %d after a double Drop", a, b, a.Slot())
	}
	if d.Get(k) != nil || *r.live != 0 {
		t.Fatalf("dropped key %d still resolves (liveness word %d)", k, *r.live)
	}
}

// TestDirectoryGenerationWraps pins the ABA window the key's 20 generation
// bits leave: one slot reused 2^20 times hands out 2^20 distinct keys, and
// the next Add wraps to the slot's first key. That wrapped key is live again,
// so a stale address still holding the first key reaches the new
// registration instead of faulting; the first registration's own liveness
// word stays 0, so its handle still reads as dropped.
func TestDirectoryGenerationWraps(t *testing.T) {
	const gens = 1 << (32 - keySlotBits)
	var d Directory
	d.Add(&Region{live: new(uint32)}) // slot 0 stays live: the churn is slot 1's
	first := &Region{live: new(uint32)}
	k0 := d.Add(first)
	k := k0
	for i := 1; i <= gens; i++ {
		d.Drop(k)
		if k = d.Add(&Region{live: new(uint32)}); k.Slot() != k0.Slot() {
			t.Fatalf("reuse %d moved to slot %d, want %d", i, k.Slot(), k0.Slot())
		}
		if i < gens && k == k0 {
			t.Fatalf("reuse %d of %d handed out the first key %d again", i, gens, k0)
		}
	}
	if k != k0 {
		t.Fatalf("reuse %d of slot %d got key %#x, want the wrap to the first key %#x", gens, k0.Slot(), k, k0)
	}
	if r := d.Get(k0); r == nil || r == first || *first.live != 0 {
		t.Fatalf("after the wrap the first key resolves to %p (first %p, its liveness word %d): want the new registration, the first still dropped", r, first, *first.live)
	}
}
