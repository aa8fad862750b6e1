package mprun

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"fompi/internal/simnet"
)

// Shared-memory world layout. One file, mapped MAP_SHARED by the launcher
// and every worker process, holds everything two ranks ever both touch:
//
//	header   (1 page)   world parameters
//	rank[i]  (128 B)    the rank's simnet.Port on the first cache line —
//	                    the lock word (holder rings<<2 | ring bit | lock
//	                    bit), the wait word (outside rings<<16 | door
//	                    waiters), then the NIC busy interval the lock
//	                    guards — and on the second two u32 wake words
//	                    (futexes), away from the port every write to the
//	                    rank touches: the door word, which every goroutine
//	                    waiting on the rank's port sleeps on, whichever
//	                    process it is in, and the pace word the rank sleeps
//	                    on pace-blocked
//	pace     (simnet.PaceTableWords(ranks) × 8 B)
//	                    the world's simnet.Pacer state — parked count,
//	                    published clocks, shard minimums, park thresholds —
//	                    which each process's Pacer lays its tables over
//	dir[i]   (32 B × maxRegions per rank)
//	                    the region directory: each owner publishes a
//	                    registration in the entry of its key's slot
//	arena[i] (ArenaBytes per rank)
//	                    registered memory. Every segment is laid out as
//	                    [buffer][stamp int64 slab][stamp uint32 slab], so a
//	                    directory entry needs only (offset, length): peers
//	                    derive the stamp slabs with timing.StampSlabLens and
//	                    the stamp tree's depth and level offsets from the
//	                    same length (timing.NewStampsOver), so every mapper
//	                    lays the identical tree over the shared words.
//
// Version history: v4 added the fail-rank word (an abort blames a rank). v5
// is the stamp slabs' change of shape — timing.Stamps became a fan-out-8
// fill tree, so a segment's slab lengths and what each word means differ
// from v4 — and a v4 mapper must not read a v5 arena. v6 is the rank slot's:
// doorbell generation, NIC spinlock and NIC interval became one simnet.Port
// at the head of the slot, and the stamp uint32 slab lost its chain-lock
// word (AMO chains serialize on the port). v7 is pacing's: the per-slot pace
// clock and the global pace-waiter bitset became the contiguous tables of
// simnet.Pacer. v8 dropped the abort flag and the fail-rank word: a world
// dies through its control plane's verdict alone, each process ending its own
// parks (Arena.Abort), so a v7 mapper would wait on a flag nobody sets. v9 is
// the port word's: it counts the door's waiters between the lock bit and the
// generation, and a writer wakes only when its ring's add finds one, so a v8
// mapper — generation<<1, no count — would read the generation wrong and
// strand the other's waiters. v10 added the wake word: a host-mate is woken
// by a futex on it, so a v9 mapper would poke a doorbell socket nobody reads.
// v11 dropped the door's waiter bitsets, the wait section: a door waiter
// sleeps on the wake word of the rank it waits on, and the pacer on a second
// wake word of its own, so a v10 mapper would poke the waiter's slot and
// leave asleep those who sleep under the watched one. v12 split the port
// word into a lock word and a wait word: a v11 mapper would add to the lock
// word and race a holder's plain release store. v13 recycles directory
// entries: an entry is a key's slot and its state the live key's
// simnet.Key.Live, which a v12 mapper would read as a dead entry.
//
// All multi-word fields are 8-byte aligned; cross-process synchronization
// uses sync/atomic on the mapped words, which on a cache-coherent machine
// gives the same acquire/release ordering between processes as between
// goroutines. DESIGN.md §8 documents the layout and its ordering contracts.
const (
	shmMagic   = 0x666f4d50_72756e31 // "foMPrun1"
	shmVersion = 13                  // see "Version history" above

	hdrMagic      = 0  // u64
	hdrVersion    = 8  // u64
	hdrRanks      = 16 // u64
	hdrRPN        = 24 // u64
	hdrPaceWindow = 32 // i64
	hdrArenaBytes = 40 // u64
	hdrMaxRegions = 48 // u64
	hdrBytes      = 4096

	rankStride = 128
	rnPort     = 0  // simnet.Port: lock and wait words u64, NIC interval 2 × i64
	rnDoorWake = 64 // u32: the rank's door slot's futex word (Arena.Hook)
	rnPaceWake = 68 // u32: the rank's pace slot's futex word

	entryStride = 32
	// u32: the live key's simnet.Key.Live, 0 while the slot is empty: every
	// view's liveness word, so a zeroed entry reads dead.
	enState  = 0
	enBufOff = 8  // u64, arena-relative
	enBufLen = 16 // u64

	// maxRegions bounds each rank's live registrations (a key's slot). Worlds
	// hold a handful of regions per window; 1024 is two orders of magnitude
	// of headroom.
	maxRegions = 1024

	// MaxRanks bounds a multi-process world: a sanity bound on how many OS
	// processes one launcher should drive (the in-process backend is the one
	// that runs simulation-scale worlds, p=4096). A rank's state in the
	// mapping is its slot and its pace entries, so nothing in the layout
	// grows faster than the rank count.
	MaxRanks = 1024

	pageAlign = 4096
)

func alignUp(n, a int) int { return (n + a - 1) &^ (a - 1) }

// layout computes the section offsets of a world's shared file.
type layout struct {
	ranks      int
	arenaBytes int
	paceOff    int
	dirOff     int
	arenaOff   int
	total      int
}

func layoutFor(ranks, arenaBytes int) layout {
	l := layout{ranks: ranks, arenaBytes: arenaBytes}
	l.paceOff = hdrBytes + ranks*rankStride
	l.dirOff = l.paceOff + simnet.PaceTableWords(ranks)*8
	l.arenaOff = alignUp(l.dirOff+ranks*maxRegions*entryStride, pageAlign)
	l.total = l.arenaOff + ranks*arenaBytes
	return l
}

func (l layout) rankOff(r int) int { return hdrBytes + r*rankStride }

func (l layout) entryOff(r, k int) int { return l.dirOff + (r*maxRegions+k)*entryStride }
func (l layout) arenaBase(r int) int   { return l.arenaOff + r*l.arenaBytes }
func (l layout) arena(m []byte, r int) []byte {
	base := l.arenaBase(r)
	return m[base : base+l.arenaBytes : base+l.arenaBytes]
}

// Typed views of aligned words inside the mapping. The byte offsets above
// are all 4- or 8-aligned and the mapping is page-aligned, so the casts
// satisfy sync/atomic's alignment requirements.
func u64at(m []byte, off int) *uint64 { return (*uint64)(unsafe.Pointer(&m[off])) }
func i64at(m []byte, off int) *int64  { return (*int64)(unsafe.Pointer(&m[off])) }
func u32at(m []byte, off int) *uint32 { return (*uint32)(unsafe.Pointer(&m[off])) }

// i64slice and u32slice view a byte extent as a typed slab (stamp arrays).
func i64slice(m []byte, off, n int) []int64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&m[off])), n)
}

func u32slice(m []byte, off, n int) []uint32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&m[off])), n)
}

// arenaOffset locates buf inside arena, or reports that it is foreign.
func arenaOffset(arena, buf []byte) (int, bool) {
	if len(buf) == 0 {
		return 0, true
	}
	base := uintptr(unsafe.Pointer(&arena[0]))
	p := uintptr(unsafe.Pointer(&buf[0]))
	if p < base || p+uintptr(len(buf)) > base+uintptr(len(arena)) {
		return 0, false
	}
	return int(p - base), true
}

// writeHeader stores the world parameters of cfg into a fresh mapping, the
// magic word last, so concurrent openers never observe a half-initialized
// header.
func writeHeader(m []byte, cfg ArenaConfig) {
	atomic.StoreUint64(u64at(m, hdrRanks), uint64(cfg.Ranks))
	atomic.StoreUint64(u64at(m, hdrRPN), uint64(cfg.RanksPerNode))
	atomic.StoreInt64(i64at(m, hdrPaceWindow), cfg.PaceWindowNs)
	atomic.StoreUint64(u64at(m, hdrArenaBytes), uint64(cfg.ArenaBytes))
	atomic.StoreUint64(u64at(m, hdrMaxRegions), maxRegions)
	atomic.StoreUint64(u64at(m, hdrVersion), shmVersion)
	atomic.StoreUint64(u64at(m, hdrMagic), shmMagic)
}

// checkHeader validates a mapped world against the joiner's expectations.
func checkHeader(m []byte, o ArenaConfig) error {
	if len(m) < hdrBytes {
		return fmt.Errorf("mprun: shared segment truncated (%d bytes)", len(m))
	}
	switch g := atomic.LoadUint64(u64at(m, hdrMagic)); g {
	case shmMagic:
	default:
		return fmt.Errorf("mprun: bad shared-segment magic %#x", g)
	}
	if v := atomic.LoadUint64(u64at(m, hdrVersion)); v != shmVersion {
		return fmt.Errorf("mprun: shared-segment layout version %d, want %d", v, shmVersion)
	}
	for _, c := range []struct {
		name string
		off  int
		want uint64
	}{
		{"rank count", hdrRanks, uint64(o.Ranks)},
		{"ranks per node", hdrRPN, uint64(o.RanksPerNode)},
		{"pacing window", hdrPaceWindow, uint64(o.PaceWindowNs)},
		{"arena bytes", hdrArenaBytes, uint64(o.ArenaBytes)},
		{"region directory size", hdrMaxRegions, maxRegions},
	} {
		if g := atomic.LoadUint64(u64at(m, c.off)); g != c.want {
			return fmt.Errorf("mprun: %s mismatch: launcher created the world with %d, this program wants %d (the worker binary must run the same spmd.Config as the launcher)", c.name, g, c.want)
		}
	}
	return nil
}
