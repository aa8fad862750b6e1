package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// A Key is a Directory slot in its low keySlotBits bits under the slot's
// generation, so a rank that never unregisters hands out 0, 1, 2, …. A
// generation wraps after 2^20 reuses of its slot, the one ABA window left.
// The all-ones slot is never handed out, so no key's Live value is 0.
const (
	keySlotBits = 12
	genStep     = Key(1) << keySlotBits
	maxSlots    = int(genStep) - 1 // a rank's live registrations
)

// Slot returns the directory slot k names.
func (k Key) Slot() int { return int(k & (genStep - 1)) }

// Live is what a liveness word holds while k's registration stands, else 0.
func (k Key) Live() uint32 { return uint32(k) + 1 }

// Directory is one rank's live registrations by slot, the one place a Key is
// assigned and a stale one detected. Add and Drop are the owner's; Get takes
// no lock. Drop empties its slot in place and only a full table grows, so the
// slots handed out are as many as the most registrations the rank held at
// once. The table is always full length, its unused slots nil, so a new slot
// changes no header and only a growth publishes one.
type Directory struct {
	mu    sync.Mutex
	tbl   atomic.Pointer[[]atomic.Pointer[Region]]
	first []atomic.Pointer[Region] // the initial table, when the fabric carved one
	used  int                      // slots handed out so far
	free  []Key                    // the next key of each vacated slot, last vacated on top
}

func (d *Directory) table() []atomic.Pointer[Region] {
	if p := d.tbl.Load(); p != nil {
		return *p
	}
	return nil
}

// Add registers reg, setting its key and liveness word, and returns the key:
// the last vacated slot's next generation, else a new slot — so ranks that
// register and unregister in the same order get the same keys.
func (d *Directory) Add(reg *Region) Key {
	d.mu.Lock()
	defer d.mu.Unlock()
	tbl := d.table()
	k := Key(d.used)
	if n := len(d.free); n > 0 {
		k, d.free = d.free[n-1], d.free[:n-1]
	} else if d.used == maxSlots {
		panic(fmt.Sprintf("simnet: %d live registrations on one rank, the most a key's slot addresses", maxSlots))
	} else {
		if d.used == len(tbl) {
			grown := make([]atomic.Pointer[Region], max(2*len(tbl), initialRegionCap))
			for i := range tbl {
				grown[i].Store(tbl[i].Load())
			}
			tbl = grown
			d.tbl.Store(&grown)
		}
		d.used++
	}
	reg.key = k
	atomic.StoreUint32(reg.live, k.Live())
	tbl[k.Slot()].Store(reg)
	return k
}

// Drop unregisters the registration under k, if k names one, clearing its
// liveness word before the slot empties.
func (d *Directory) Drop(k Key) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if tbl := d.table(); k.Slot() < len(tbl) {
		if r := tbl[k.Slot()].Load(); r != nil && r.key == k {
			atomic.StoreUint32(r.live, 0)
			tbl[k.Slot()].Store(nil)
			d.free = append(d.free, k+genStep)
		}
	}
}

// reset empties the directory as if every registration were dropped and the
// table never grown: a region still registered loses its liveness word, and
// keys start again at 0. The owner alone may be running (see Fabric.Reset).
func (d *Directory) reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	tbl := d.table()
	for i := range tbl[:d.used] {
		if r := tbl[i].Load(); r != nil {
			atomic.StoreUint32(r.live, 0)
			tbl[i].Store(nil)
		}
	}
	clear(d.first) // a grown table's copies leave pointers behind
	d.used = 0
	d.free = d.free[:0]
	d.tbl.Store(&d.first)
}

// Get returns the live registration under k, nil if there is none.
func (d *Directory) Get(k Key) *Region {
	if tbl := d.table(); k.Slot() < len(tbl) {
		if r := tbl[k.Slot()].Load(); r != nil && r.liveAs(k) {
			return r
		}
	}
	return nil
}

// Lookup is Get for an access to a: it faults by name if a names nothing live.
func (d *Directory) Lookup(a Addr) *Region {
	if r := d.Get(a.Key); r != nil {
		return r
	}
	panic(Unregistered(a))
}

// Unregistered is every backend's fault for an access to nothing live.
func Unregistered(a Addr) string {
	return fmt.Sprintf("simnet: access to unregistered region (rank %d key %d)", a.Rank, a.Key)
}
