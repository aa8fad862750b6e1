// Package hostatomic implements host-CPU atomic operations on 8-byte-aligned
// words inside byte slices. It is the software stand-in for the CPU atomics
// (x86 lock prefix) that foMPI uses over XPMEM mappings and for the NIC-side
// atomic units that DMAPP exposes; the simulated fabric funnels every AMO
// through this package so all ranks observe a single linearization per word.
//
// Alignment: Go guarantees that the backing array of a slice allocated with
// make is 64-bit aligned, so any offset that is a multiple of 8 within such
// a slice is safely addressable with 8-byte atomics.
package hostatomic

import (
	"sync/atomic"
	"unsafe"
)

func word(b []byte, off int) *uint64 {
	if off&7 != 0 {
		panic("hostatomic: misaligned 8-byte atomic access")
	}
	// Bounds-check by length only (and not as off+8, which can wrap): a plain
	// read of b[off+7] would race with concurrent atomic stores to the word.
	if off < 0 || off > len(b)-8 {
		panic("hostatomic: 8-byte access outside slice")
	}
	return (*uint64)(unsafe.Pointer(&b[off]))
}

// Load atomically reads the 8-byte word at off.
func Load(b []byte, off int) uint64 { return atomic.LoadUint64(word(b, off)) }

// Store atomically writes the 8-byte word at off. It is sequentially
// consistent: a locked instruction on amd64, and a full fence.
func Store(b []byte, off int, v uint64) { atomic.StoreUint64(word(b, off), v) }

// StoreRel atomically writes the 8-byte word at off with release ordering
// only: every earlier load and store is visible before it, but a later load
// may be satisfied before it is. On amd64 that is a plain store, against the
// locked exchange of Store. Use it for a store that a later full fence (an
// atomic add, CAS or Store) orders before anyone is told to look at it, and
// Store for any store a Dekker-style handshake reads back.
func StoreRel(b []byte, off int, v uint64) {
	StoreRel64((*int64)(unsafe.Pointer(word(b, off))), int64(v))
}

// Add atomically adds delta to the word at off and returns the old value.
func Add(b []byte, off int, delta uint64) (old uint64) {
	return atomic.AddUint64(word(b, off), delta) - delta
}

// Cas performs a compare-and-swap on the word at off and returns the value
// held before the operation (equal to compare iff the swap happened).
func Cas(b []byte, off int, compare, swap uint64) (old uint64) {
	w := word(b, off)
	for {
		cur := atomic.LoadUint64(w)
		if cur != compare {
			return cur
		}
		if atomic.CompareAndSwapUint64(w, compare, swap) {
			return compare
		}
	}
}

// Swap atomically replaces the word at off and returns the old value.
func Swap(b []byte, off int, v uint64) (old uint64) {
	return atomic.SwapUint64(word(b, off), v)
}

// rmw applies f atomically via a CAS loop and returns the old value.
func rmw(b []byte, off int, f func(uint64) uint64) (old uint64) {
	w := word(b, off)
	for {
		cur := atomic.LoadUint64(w)
		if atomic.CompareAndSwapUint64(w, cur, f(cur)) {
			return cur
		}
	}
}

// And atomically ANDs v into the word at off, returning the old value.
func And(b []byte, off int, v uint64) uint64 {
	return rmw(b, off, func(c uint64) uint64 { return c & v })
}

// Or atomically ORs v into the word at off, returning the old value.
func Or(b []byte, off int, v uint64) uint64 {
	return rmw(b, off, func(c uint64) uint64 { return c | v })
}

// Xor atomically XORs v into the word at off, returning the old value.
func Xor(b []byte, off int, v uint64) uint64 {
	return rmw(b, off, func(c uint64) uint64 { return c ^ v })
}

// MaxU32 atomically raises the uint32 at p to at least v.
func MaxU32(p *uint32, v uint32) {
	for {
		cur := atomic.LoadUint32(p)
		if v <= cur || atomic.CompareAndSwapUint32(p, cur, v) {
			return
		}
	}
}

// MaxI64 atomically raises the int64 at p to at least v.
func MaxI64(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if v <= cur || atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}
