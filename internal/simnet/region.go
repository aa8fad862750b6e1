package simnet

import (
	"fmt"
	"sync/atomic"

	"fompi/internal/hostatomic"
	"fompi/internal/timing"
)

// Region is a registered memory segment: the DMAPP/XPMEM equivalent of a
// memory registration. Remote ranks address it by (owner, key, offset);
// the owner may also access Bytes directly (its own virtual address space).
// On backends whose remote memory is not locally addressable, a region
// resolved for a foreign rank is a proxy: buf and stamps are nil and every
// data/stamp access routes through rmt (see remote.go).
type Region struct {
	owner  int
	key    Key
	buf    []byte
	size   int // registered length: len(buf), or the proxy's rmt.Size()
	stamps *timing.Stamps
	port   *Port     // the owner's port (Transport.Port); nil on proxies
	rmt    RemoteMem // non-nil on proxies for unreachable remote memory

	// live points at the registration's liveness word, holding its key's
	// Live while it stands and 0 otherwise: state below for a handle the
	// owner registered and for a wire proxy (whose owner checks every request
	// itself), the arena entry's state word for a view. Warm routes re-read
	// it on every operation.
	live  *uint32
	state uint32
}

// liveAs reports whether the handle still serves k: one load, one compare.
func (r *Region) liveAs(k Key) bool { return atomic.LoadUint32(r.live) == k.Live() }

// MakeRegion initializes a registration handle over transport-owned memory.
// Backends use it to materialize local views of regions registered by other
// processes (the owner's handle is built by Endpoint.RegisterBufStampsInto);
// key must be the key the owner's registration was assigned and port the
// owner's port as this process maps it, and live the registration's liveness
// word in the backend's directory (see Key.Live).
func MakeRegion(owner int, key Key, buf []byte, st *timing.Stamps, port *Port, live *uint32) Region {
	if live == nil {
		panic("simnet: region handle without a liveness word")
	}
	return Region{owner: owner, key: key, buf: buf, size: len(buf), stamps: st, port: port, live: live}
}

// MakeRemoteRegion returns a proxy handle for a region registered in a
// process this one cannot address (inter-node backends): data, stamp, and
// target-NIC work route through rm. Only Endpoint operations may touch a
// proxy; the owner-side accessors (Bytes, LocalWord, StampMax...) stay with
// the owning process.
func MakeRemoteRegion(owner int, key Key, rm RemoteMem) *Region {
	r := &Region{owner: owner, key: key, size: rm.Size(), rmt: rm, state: key.Live()}
	r.live = &r.state
	return r
}

// Owner returns the owning rank.
func (r *Region) Owner() int { return r.owner }

// Stamps exposes the region's shadow timestamps (backend plumbing).
func (r *Region) Stamps() *timing.Stamps { return r.stamps }

// Key returns the fabric key other ranks use to address this region.
func (r *Region) Key() Key { return r.key }

// Size returns the registered length in bytes.
func (r *Region) Size() int { return r.size }

// Bytes exposes the backing memory to its owner (local load/store access).
// Remote ranks must go through Endpoint operations; on a proxy region
// (unreachable remote memory) Bytes is nil.
func (r *Region) Bytes() []byte { return r.buf }

// Base returns the address of the first byte of the region.
func (r *Region) Base() Addr { return Addr{Rank: r.owner, Key: r.key} }

// check panics when [off, off+n) exceeds the registration, modelling a
// remote-memory protection fault; not as off+n, which a huge off wraps.
func (r *Region) check(off, n int) {
	if off < 0 || n < 0 || off > r.size-n {
		r.faultBounds(off, n)
	}
}

// faultBounds is check's panic, out of line so that check itself inlines
// into every operation's issue path.
func (r *Region) faultBounds(off, n int) {
	panic(fmt.Sprintf("simnet: access [%d,%d) outside region of %d bytes (rank %d key %d)",
		off, off+n, r.Size(), r.owner, r.key))
}

// checkWords is check for word-atomic access (n ≥ 0): a misaligned offset
// faults here too, before the caller takes the owner's port. It inlines;
// faultWords, out of line, raises the bounds fault, else the alignment one.
func (r *Region) checkWords(off, n int) {
	if off < 0 || off > r.size-n || off&7 != 0 {
		r.faultWords(off, n)
	}
}

func (r *Region) faultWords(off, n int) {
	r.check(off, n)
	panic("hostatomic: misaligned 8-byte atomic access")
}

// StampMax returns the latest virtual completion stamp in [off, off+n).
// The owner uses it to merge time after a successful local poll.
func (r *Region) StampMax(off, n int) timing.Time { return r.stamps.MaxRange(off, n) }

// LocalWord reads the 8-byte word at off atomically without advancing any
// clock; owners use it inside poll predicates.
func (r *Region) LocalWord(off int) uint64 {
	r.check(off, 8)
	return hostatomic.Load(r.buf, off)
}

// LocalWordStore writes the 8-byte word at off atomically, stamping it with
// the owner's time t. It models a local store to exposed memory (free on the
// wire, but it must be stamped so remote pollers merge time correctly).
// Remote ranks must not call this.
func (r *Region) LocalWordStore(off int, v uint64, t timing.Time) {
	r.check(off, 8)
	r.stamps.Set(off, t) // before the value: whoever sees v merges t
	hostatomic.Store(r.buf, off, v)
}
