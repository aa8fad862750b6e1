// Package core implements foMPI: the paper's scalable, bufferless MPI-3.0
// one-sided (RMA) protocols over a raw RDMA fabric. The package provides
// the four window flavours (§2.2), all synchronization modes — fence,
// general active target (PSCW) with free-storage-managed matching lists,
// and the two-level global/local lock protocol for passive target (§2.3) —
// and the communication calls with their DMAPP-accelerated and
// lock-fallback accumulate paths (§2.4). Every protocol uses only put, get,
// and 8-byte atomics against bounded per-rank buffers: no remote software
// agent, O(log p) time and space per process.
package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"fompi/internal/segpool"
	"fompi/internal/simnet"
	"fompi/internal/spmd"
)

// Config is a window's creation argument; the zero value gives the defaults.
type Config struct {
	// DispUnit scales target displacements, as in MPI_Win_create.
	// Default 1 (byte displacements).
	DispUnit int
}

func (c Config) withDefaults() Config {
	if c.DispUnit <= 0 {
		c.DispUnit = 1
	}
	return c
}

// A window's fixed buffers, the paper's "small bounded buffer space at each
// process"; exceeding one faults loudly.
const (
	maxPosts  = 256 // PSCW matching-list ring: posts outstanding (not yet matched) at a rank
	maxAttach = 64  // dynamic-window attach table
	maxNotify = 64  // notification ring, and the popped-but-unmatched list
)

// winKind discriminates the four window flavours.
type winKind int

const (
	kindCreate winKind = iota
	kindAllocate
	kindDynamic
	kindShared
)

// Control-region word offsets (bytes). The control region is symmetric:
// every rank registers one at window creation in the same program order, so
// the fabric key is identical on all ranks — the symmetric-heap property
// window allocation establishes (§2.2).
const (
	ctlPostCount  = 0  // matching-list ticket counter (remote fetch-add)
	ctlComplete   = 8  // PSCW completion counter
	ctlGlobal     = 16 // global lock word (meaningful at the master)
	ctlLocal      = 24 // local reader-writer lock word
	ctlAccLock    = 32 // internal lock for non-accelerated accumulates
	ctlDynID      = 40 // dynamic window modification counter
	ctlAttach     = 48 // dynamic attach table: maxAttach × 2 words
	ctlPostList   = ctlAttach + maxAttach*16
	ctlNotifyRing = ctlPostList + maxPosts*8 // after the PSCW matching list
)

// ctlBytes is the full control-region size: 3 656 bytes.
var ctlBytes = ctlNotifyRing + simnet.NotifyRingBytes(maxNotify)

// epochKind tracks which synchronization epoch the window is in, so that
// erroneous MPI usage faults instead of corrupting memory.
type epochKind int

const (
	epochNone epochKind = iota
	epochFence
	epochAccess  // PSCW access epoch (start..complete)
	epochPassive // lock/lock_all epoch
)

// Win is one rank's handle of an MPI-3 window. Handles are collective:
// every rank of the world holds one for the same window.
type Win struct {
	p   *spmd.Proc
	ep  *simnet.Endpoint
	cfg Config

	kind winKind
	data *simnet.Region // local window memory (points at dataReg; nil for dynamic)
	ctl  *simnet.Region // local control region (points at ctlReg)

	// Embedded registration and ring state: a window costs one Win
	// allocation, not one per handle it holds.
	dataReg simnet.Region
	ctlReg  simnet.Region

	// Transport-allocated backing segments, recycled by Free. ctlSeg is
	// always transport memory; dataSeg only for library-allocated window
	// memory (on the multi-process backend this is what makes the window
	// remotely reachable at all).
	ctlSeg  *segpool.Seg
	dataSeg *segpool.Seg

	dataKey simnet.Key // symmetric data key (allocate/shared)
	ctlKey  simnet.Key // symmetric control key (all kinds)
	size    int        // local window size in bytes

	// Traditional windows must remember every rank's key and size: the
	// Ω(p) table the paper discourages (§2.2 "Traditional Windows").
	peerKeys  []simnet.Key
	peerSizes []int

	// PSCW state. postBase is the oldest ticket Start has not matched, and
	// consumed marks, by slot, the tickets past it Start matched out of
	// order; groupCache memoizes validated epoch groups, and postTickets is
	// Post's reusable O(k) scratch.
	// fetchHandles holds the handles of Post's pipelined fetch-adds.
	accessGroup   []int // current access epoch (start..complete)
	exposureQueue []int // outstanding exposure group sizes, FIFO for wait
	waitTarget    uint64
	postBase      uint64
	consumed      [maxPosts]bool
	groupCache    []groupCacheEnt
	groupCacheRR  int
	postTickets   []uint64
	fetchHandles  []simnet.Handle

	// Passive-target state.
	epoch       epochKind
	lockedRanks map[int]bool // ranks this origin holds process locks on
	exclHeld    int          // exclusive locks held (global registration)
	lockAll     bool

	// Dynamic-window state: the origin-side cache of each target's attach
	// table (§2.2 "Dynamic Windows"), plus the local attached registrations.
	dynCache   map[int]*dynCache
	attachRegs map[int]*simnet.Region

	// Notified-access state: the local delivery ring, the bounded list of
	// popped-but-unmatched notifications, and the origin-side send counter.
	notifyRing    simnet.NotifyRing
	notifyPending []pendingNotify
	notifySeq     uint32

	freed bool
}

// dynCache is this origin's cached copy of one target's attach table.
type dynCache struct {
	id      uint64
	entries []dynEntry
}

type dynEntry struct {
	key  simnet.Key
	size int
}

// winBase initializes the parts common to all window kinds: it registers the
// control region and records its key. It is local — the constructor's one
// collective (syncCreation, or Create's allgather) verifies the key. The
// control region (3 656 bytes) comes from the segment pool, which hands a
// recycled one back already wiped. Mode-specific bookkeeping (lock and
// dynamic-window maps) allocates lazily on first use.
func winBase(p *spmd.Proc, cfg Config, kind winKind) *Win {
	w := &Win{p: p, ep: p.EP(), cfg: cfg.withDefaults(), kind: kind}
	w.ctlSeg = w.ep.AllocSeg(ctlBytes)
	w.ep.RegisterBufStampsInto(&w.ctlReg, w.ctlSeg.Buf, w.ctlSeg.St)
	w.ctl = &w.ctlReg
	w.ctlKey = w.ctl.Key()
	w.notifyRing.Bind(w.ctl, ctlNotifyRing, maxNotify)
	return w
}

// allocData registers size bytes of library-allocated window memory (allocated
// and shared windows) and records its key.
func (w *Win) allocData(size int) {
	w.dataSeg = w.ep.AllocSeg(size)
	w.ep.RegisterBufStampsInto(&w.dataReg, w.dataSeg.Buf, w.dataSeg.St)
	w.data = &w.dataReg
	w.size = size
	w.dataKey = w.data.Key()
}

// String names the flavour in creation faults.
func (k winKind) String() string {
	return [...]string{kindCreate: "traditional", kindAllocate: "allocated", kindDynamic: "dynamic", kindShared: "shared"}[k]
}

// packKeys packs a window's control and data keys into the one word its
// creation collective carries. A key that does not fit its half faults here
// rather than truncating into a neighbour's.
func packKeys(ctl, data uint64) uint64 {
	if ctl > math.MaxUint32 || data > math.MaxUint32 {
		panic(fmt.Sprintf("core: window keys (ctl %d, data %d) do not fit the packed 2×32-bit creation word", ctl, data))
	}
	return ctl<<32 | data
}

func unpackKeys(v uint64) (ctl, data simnet.Key) { return simnet.Key(v >> 32), simnet.Key(uint32(v)) }

// asymmetric is the creation fault: this rank's packed keys against the
// differing pair, whose origin other names.
func (w *Win) asymmetric(mine uint64, other string, theirs uint64) {
	mc, md := unpackKeys(mine)
	tc, td := unpackKeys(theirs)
	panic(fmt.Sprintf("core: %s window keys not symmetric across ranks: rank %d registered (ctl %d, data %d), %s (ctl %d, data %d); windows must be created collectively in the same order on all ranks",
		w.kind, w.p.Rank(), mc, md, other, tc, td))
}

// syncCreation is the one collective that closes Allocate, AllocateShared and
// CreateDynamic: a single max-allreduce of the packed keys. It stands in for
// the paper's symmetric-heap allocation loop (broadcast an address, mmap,
// allreduce success): in the simulated address space registration order
// already yields symmetric keys, and the reduction preserves both the
// O(log p) cost and the failure mode — all keys are equal exactly when every
// rank's equal the maximum, so every rank that differs from it faults. It is
// also the creation barrier: a rank leaves the allreduce only once every
// rank's contribution has reached it, and each rank contributes after
// registering, so every peer's regions are addressable on return.
func (w *Win) syncCreation() {
	mine := packKeys(uint64(w.ctlKey), uint64(w.dataKey))
	if hi := w.p.Allreduce8(spmd.OpMax, mine); hi != mine {
		w.asymmetric(mine, "the maximum over ranks is", hi)
	}
}

// Allocate creates an allocated window (MPI_Win_allocate): the library
// allocates size bytes backed by the symmetric heap, so remote addressing
// needs O(1) state per rank. It returns the window and the local memory.
// The memory is owned by the window, as in MPI: Free recycles it, so the
// returned slice must not be used after Free.
func Allocate(p *spmd.Proc, size int, cfg Config) (*Win, []byte) {
	w := winBase(p, cfg, kindAllocate)
	w.allocData(size)
	w.syncCreation()
	return w, w.data.Bytes()
}

// Create creates a traditional window (MPI_Win_create) over existing user
// memory. Each rank may pass a buffer of any size at any address, which
// forces every rank to store all p remote descriptors — the Ω(p) cost that
// makes traditional windows fundamentally non-scalable (§2.2). Prefer
// Allocate.
func Create(p *spmd.Proc, buf []byte, cfg Config) *Win {
	w := winBase(p, cfg, kindCreate)
	w.data = w.ep.RegisterBuf(buf)
	w.size = len(buf)

	// Two allgathers in the paper (DMAPP descriptors then XPMEM intra-node
	// descriptors); the fabric uses one descriptor space for both, so one
	// exchange of (keys, size) per rank suffices here. The control key rides
	// in the same block and is checked against every rank's locally, so the
	// allgather is the constructor's only collective and its barrier.
	mine := packKeys(uint64(w.ctlKey), uint64(w.data.Key()))
	var blk [16]byte
	binary.LittleEndian.PutUint64(blk[0:], mine)
	binary.LittleEndian.PutUint64(blk[8:], uint64(len(buf)))
	all := p.Allgather(blk[:])
	w.peerKeys = make([]simnet.Key, p.Size())
	w.peerSizes = make([]int, p.Size())
	for r := 0; r < p.Size(); r++ {
		theirs := binary.LittleEndian.Uint64(all[r*16:])
		ctl, data := unpackKeys(theirs)
		if ctl != w.ctlKey {
			w.asymmetric(mine, fmt.Sprintf("rank %d", r), theirs)
		}
		w.peerKeys[r] = data
		w.peerSizes[r] = int(binary.LittleEndian.Uint64(all[r*16+8:]))
	}
	return w
}

// CreateDynamic creates a dynamic window (MPI_Win_create_dynamic) with no
// attached memory; use Attach and Detach to expose regions non-collectively.
func CreateDynamic(p *spmd.Proc, cfg Config) *Win {
	w := winBase(p, cfg, kindDynamic)
	w.syncCreation()
	return w
}

// AllocateShared creates a shared-memory window (MPI_Win_allocate_shared).
// All ranks must reside on one node; SharedSlice then gives direct
// load/store access to any rank's segment, the XPMEM fast path. Like
// Allocate, the returned memory is owned by the window and recycled by Free.
// A world spanning several nodes fails with an error wrapping
// simnet.ErrNotSameNode (delivered by panic, as MPI argument errors are;
// recover and errors.Is to test for it).
func AllocateShared(p *spmd.Proc, size int, cfg Config) (*Win, []byte) {
	for r := 0; r < p.Size(); r++ {
		if !p.SameNode(r) {
			panic(fmt.Errorf("core: AllocateShared requires all ranks on one node (rank %d is on node %d, rank %d on node %d): %w",
				p.Rank(), p.Node(), r, r/p.Fabric().RanksPerNode(), simnet.ErrNotSameNode))
		}
	}
	w := winBase(p, cfg, kindShared)
	w.allocData(size)
	w.syncCreation()
	return w, w.data.Bytes()
}

// SharedSliceErr returns a direct mapping of rank's window segment (shared
// windows only): loads and stores, no fabric operations. A genuinely
// cross-node target fails with an error wrapping simnet.ErrNotSameNode; a
// same-node target whose memory this backend cannot map (pure inter-node
// transport) fails wrapping simnet.ErrNotMapped.
func (w *Win) SharedSliceErr(rank int) ([]byte, error) {
	if w.kind != kindShared {
		panic("core: SharedSlice requires a shared window")
	}
	b, err := w.ep.SharedErr(simnet.Addr{Rank: rank, Key: w.dataKey}, w.size)
	if err != nil {
		return nil, fmt.Errorf("core: SharedSlice(%d) from rank %d: %w", rank, w.p.Rank(), err)
	}
	return b, nil
}

// SharedSlice is SharedSliceErr for callers that treat an unmappable target
// as fatal; it panics with the typed error (errors.Is works on the recovered
// value).
func (w *Win) SharedSlice(rank int) []byte {
	b, err := w.SharedSliceErr(rank)
	if err != nil {
		panic(err)
	}
	return b
}

// Attach exposes buf in a dynamic window and returns its handle index,
// which remote ranks use as the region part of their displacement. Attach
// is non-collective: it registers the memory, appends it to the local
// attach table, and bumps the window's id counter so cached remote copies
// invalidate (§2.2 "Dynamic Windows").
func (w *Win) Attach(buf []byte) int {
	if w.kind != kindDynamic {
		panic("core: Attach requires a dynamic window")
	}
	reg := w.ep.RegisterBuf(buf)
	if w.attachRegs == nil {
		w.attachRegs = make(map[int]*simnet.Region)
	}
	ctl := w.ctl.Bytes()
	slot := -1
	for i := 0; i < maxAttach; i++ {
		if binary.LittleEndian.Uint64(ctl[ctlAttach+i*16:]) == 0 {
			slot = i
			break
		}
	}
	if slot < 0 {
		panic(fmt.Sprintf("core: attach table full (%d regions)", maxAttach))
	}
	binary.LittleEndian.PutUint64(ctl[ctlAttach+slot*16:], uint64(reg.Key())+1)
	binary.LittleEndian.PutUint64(ctl[ctlAttach+slot*16+8:], uint64(len(buf)))
	w.attachRegs[slot] = reg
	// Publish, then invalidate caches via the id counter.
	w.ctl.LocalWordStore(ctlDynID, w.ctl.LocalWord(ctlDynID)+1, w.ep.Now())
	return slot
}

// Detach withdraws a previously attached region. Remote accesses in flight
// against a detached region fault, as on the real network.
func (w *Win) Detach(slot int) {
	if w.kind != kindDynamic {
		panic("core: Detach requires a dynamic window")
	}
	ctl := w.ctl.Bytes()
	reg := w.attachRegs[slot]
	if reg == nil {
		panic("core: Detach of unattached slot")
	}
	binary.LittleEndian.PutUint64(ctl[ctlAttach+slot*16:], 0)
	binary.LittleEndian.PutUint64(ctl[ctlAttach+slot*16+8:], 0)
	delete(w.attachRegs, slot)
	w.ep.Unregister(reg)
	w.ctl.LocalWordStore(ctlDynID, w.ctl.LocalWord(ctlDynID)+1, w.ep.Now())
}

// dynResolve translates (target, slot, off) into a fabric address using the
// origin-side cache: one remote read of the target's id counter checks
// validity; on mismatch the attach table is re-fetched with a series of
// one-sided gets — the paper's protocol, no target involvement.
func (w *Win) dynResolve(target, slot, off, n int) simnet.Addr {
	ctlAddr := simnet.Addr{Rank: target, Key: w.ctlKey}
	id := w.ep.LoadW(ctlAddr.Add(ctlDynID))
	c := w.dynCache[target]
	if c == nil || c.id != id {
		raw := make([]byte, maxAttach*16)
		w.ep.GetNBI(raw, ctlAddr.Add(ctlAttach))
		w.ep.Gsync()
		c = &dynCache{id: id, entries: make([]dynEntry, maxAttach)}
		for i := 0; i < maxAttach; i++ {
			c.entries[i] = dynEntry{
				key:  simnet.Key(binary.LittleEndian.Uint64(raw[i*16:])),
				size: int(binary.LittleEndian.Uint64(raw[i*16+8:])),
			}
		}
		if w.dynCache == nil {
			w.dynCache = make(map[int]*dynCache)
		}
		w.dynCache[target] = c
	}
	if slot < 0 || slot >= len(c.entries) || c.entries[slot].key == 0 {
		panic(fmt.Sprintf("core: dynamic access to unattached slot %d at rank %d", slot, target))
	}
	e := c.entries[slot]
	if off > e.size-n { // not off+n > size: a large off wraps the sum
		panic(fmt.Sprintf("core: dynamic access [%d,%d) exceeds attached region of %d bytes", off, off+n, e.size))
	}
	return simnet.Addr{Rank: target, Key: e.key - 1, Off: off}
}

// addrOf translates (target, disp) into a fabric address for n bytes.
func (w *Win) addrOf(target, disp, n int) simnet.Addr {
	off := disp * w.cfg.DispUnit
	switch w.kind {
	case kindAllocate, kindShared:
		return simnet.Addr{Rank: target, Key: w.dataKey, Off: off}
	case kindCreate:
		if off > w.peerSizes[target]-n { // not off+n > size: a large disp wraps the sum
			panic(fmt.Sprintf("core: access [%d,%d) exceeds window of %d bytes at rank %d",
				off, off+n, w.peerSizes[target], target))
		}
		return simnet.Addr{Rank: target, Key: w.peerKeys[target], Off: off}
	default:
		panic("core: dynamic windows address memory via PutDyn/GetDyn (attach slots)")
	}
}

// ctlAddr returns rank's control word address.
func (w *Win) ctlAddr(rank, word int) simnet.Addr {
	return simnet.Addr{Rank: rank, Key: w.ctlKey, Off: word}
}

// Proc returns the owning rank handle.
func (w *Win) Proc() *spmd.Proc { return w.p }

// Size returns the local window size in bytes.
func (w *Win) Size() int { return w.size }

// Free releases the window collectively. Pooled backing segments — the
// control region always, the data region when the library allocated it —
// are recycled after the closing barrier, when no rank can still address
// them; memory returned by Allocate/AllocateShared is invalid afterwards.
// A rank panicking under a deferred Free re-raises here, so the world
// aborts instead of the rank parking in a barrier its peers never reach.
func (w *Win) Free() {
	if r := recover(); r != nil {
		panic(r)
	}
	if w.freed {
		panic("core: double Free")
	}
	w.p.Barrier()
	if w.data != nil {
		w.ep.Unregister(w.data)
	}
	w.ep.Unregister(w.ctl)
	if w.dataSeg != nil {
		// Window memory was exposed to the application as a raw slice, so
		// its writes are untracked: full wipe.
		w.ep.RecycleSegWiped(w.dataSeg)
		w.dataSeg = nil
	}
	// Control-region writes are stamped fabric operations except for the
	// notification ring's unstamped header/pop stores and, on dynamic
	// windows, the locally-written attach table.
	extras := []segpool.Range{{Lo: ctlNotifyRing, Hi: ctlBytes}}
	if w.kind == kindDynamic {
		extras = append(extras, segpool.Range{Lo: ctlAttach, Hi: ctlPostList})
	}
	w.ep.RecycleSeg(w.ctlSeg, extras...)
	w.ctlSeg = nil
	w.freed = true
}

// MemoryFootprint reports the per-rank bookkeeping bytes this window handle
// holds, excluding the user's window memory itself: the measurable form of
// the paper's O(1)/O(log p)-versus-Ω(p) storage claims.
func (w *Win) MemoryFootprint() int {
	n := ctlBytes                               // control region incl. notify ring
	n += len(w.peerKeys)*8 + len(w.peerSizes)*8 // Ω(p) only for Create
	n += len(w.consumed)
	n += len(w.notifyPending) * 16
	for _, c := range w.dynCache {
		n += len(c.entries) * 16
	}
	return n
}

// WaitLocalWord blocks until pred holds for the 8-byte local window word at
// byte offset off, then synchronizes the window (the MPI-3 target-side
// polling pattern: poll own exposed memory, MPI_Win_sync). It returns the
// observed value. Writers ring the rank's doorbell, so no busy spin occurs.
func (w *Win) WaitLocalWord(off int, pred func(uint64) bool) uint64 {
	if w.data == nil {
		panic("core: WaitLocalWord requires window memory")
	}
	w.ep.WaitLocal(func() bool { return pred(w.data.LocalWord(off)) })
	w.ep.MergeStamp(w.data, off, 8)
	w.Sync()
	return w.data.LocalWord(off)
}
