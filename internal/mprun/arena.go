package mprun

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"fompi/internal/segpool"
	"fompi/internal/simnet"
	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

// Arena-side telemetry: the recycle counters mirror segpool's in-process
// pool for arena-backed segments.
var (
	mRecycles    = telemetry.NewCounter("seg.recycle")
	mRecycleScrb = telemetry.NewCounter("seg.recycle_scrubbed")
)

// ArenaConfig describes one shared-memory arena: how many local ranks map it,
// how much registered memory each gets, and the world parameters the header
// validates (every mapper must agree on all of them).
type ArenaConfig struct {
	Ranks        int // ranks sharing this mapping (local indices 0..Ranks-1)
	RanksPerNode int
	PaceWindowNs int64
	ArenaBytes   int // registered-memory bytes per local rank
}

func (c ArenaConfig) withDefaults() ArenaConfig {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.RanksPerNode <= 0 {
		c.RanksPerNode = 1
	}
	if c.ArenaBytes <= 0 {
		c.ArenaBytes = 16 << 20
	}
	c.ArenaBytes = alignUp(c.ArenaBytes, pageAlign)
	return c
}

// Arena is the mmap-shared data plane of one host group: the ranks of a world
// that share a host key (internal/netrun), indexed locally in ascending
// world-rank order — the whole world when every rank has the same key.
// Everything two co-located ranks ever both touch lives in the mapping — the
// region directory, the stamp slabs, each rank's port (doorbell generation,
// NIC interval and the lock over them) and wake words, the pacer's tables —
// and nothing else: a parked goroutine sleeps on a slot's wake word with a
// futex, so a world puts no file on disk.
type Arena struct {
	cfg  ArenaConfig
	m    []byte
	lay  layout
	self int // local index of this process, -1 until Bind

	hook simnet.ParkHook // over the mapping's wake words
	// aborted is the abort state of the process that bound the arena (its
	// control-plane client's): the hook's Aborted. Nil until Bind.
	aborted func() error
	ended   atomic.Bool // Abort has run: no park of this process sleeps
	// unmap orders Abort's poke against Close: the control plane's abort
	// may run as the rank releases a finished world.
	unmap sync.Mutex

	arenaPos int
	freeSegs map[int][]*segpool.Seg
	regions  map[[2]int]*simnet.Region // lazily built (local, slot) views of peers' registrations
}

func (a *Arena) initMaps() {
	a.regions = map[[2]int]*simnet.Region{}
	a.freeSegs = map[int][]*segpool.Seg{}
	a.self = -1
	a.hook = simnet.ParkHook{Seq: a.seq, Park: a.park, Poke: a.poke,
		Aborted: func() error { return a.aborted() }}
}

// CreateAnon creates an arena over an anonymous memory file (memfd_create):
// nothing names it, so nothing is left behind however its world ends — it
// lives as long as a descriptor or a mapping of it does. It returns the file,
// for the ranks to inherit and map (MapArena); this process keeps no mapping.
func CreateAnon(cfg ArenaConfig) (*os.File, error) {
	f, err := memfd("fompi-arena") // errNoFutex off Linux
	if err != nil {
		return nil, fmt.Errorf("mprun: create anonymous segment: %w", err)
	}
	if err := createOver(f, cfg); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// createOver sizes f, an empty file, to cfg's layout and writes the header
// through a mapping it drops again.
func createOver(f *os.File, cfg ArenaConfig) error {
	cfg = cfg.withDefaults()
	total := layoutFor(cfg.Ranks, cfg.ArenaBytes).total
	if err := f.Truncate(int64(total)); err != nil {
		return fmt.Errorf("mprun: size shared segment: %w", err)
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("mprun: mmap shared segment: %w", err)
	}
	writeHeader(m, cfg)
	return syscall.Munmap(m)
}

// MapArena maps the arena over f, a segment CreateAnon made that this process
// inherited, and closes f: the mapping keeps the segment alive. cfg.Ranks
// zero takes the rank count the header holds — a rank learns its host
// group's size from its arena — and every other field must match the
// header. Only a Linux launcher can have made one.
func MapArena(f *os.File, cfg ArenaConfig) (*Arena, error) {
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mprun: shared segment: %w", err)
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mprun: mmap shared segment: %w", err)
	}
	if cfg.Ranks == 0 && len(m) >= hdrBytes {
		cfg.Ranks = int(min(atomic.LoadUint64(u64at(m, hdrRanks)), MaxRanks))
	}
	cfg = cfg.withDefaults()
	a := &Arena{cfg: cfg, lay: layoutFor(cfg.Ranks, cfg.ArenaBytes), m: m}
	// The creator's ftruncate takes the file from empty to its full size in
	// one step, so any other size is a different world's layout.
	if len(m) != a.lay.total {
		err = fmt.Errorf("mprun: shared segment is %d bytes, want %d (launcher/worker config mismatch?)", len(m), a.lay.total)
	} else {
		err = checkHeader(m, cfg)
	}
	if err != nil {
		syscall.Munmap(m)
		return nil, err
	}
	a.initMaps()
	return a, nil
}

// Ranks is how many local ranks map the arena: its host group's size.
func (a *Arena) Ranks() int { return a.cfg.Ranks }

// Bind attaches this process as local rank self: it paces under that rank's
// pace slot, and the arena's waits unwind once aborted — the process's own
// abort state — is no longer nil. Mappers that never wait (a launcher) skip
// it.
func (a *Arena) Bind(self int, aborted func() error) {
	a.self, a.aborted = self, aborted
}

// Close unmaps the arena.
func (a *Arena) Close() {
	a.unmap.Lock()
	defer a.unmap.Unlock()
	if a.m != nil {
		syscall.Munmap(a.m)
		a.m = nil
	}
}

// ---- segments and the region directory ----

// AllocSeg carves a zeroed segment — buffer plus shadow-stamp slabs, laid out
// contiguously so the region directory needs only (offset, length) — from
// local rank's arena, reusing a recycled segment of the same size when one is
// free. Only this process's own local rank may allocate.
func (a *Arena) AllocSeg(local, size int) *segpool.Seg {
	if l := a.freeSegs[size]; len(l) > 0 {
		s := l[len(l)-1]
		a.freeSegs[size] = l[:len(l)-1]
		return s
	}
	n64, n32 := timing.StampSlabLens(size)
	bufLen := alignUp(size, 8)
	total := alignUp(bufLen+n64*8+n32*4, 64)
	if a.arenaPos+total > a.cfg.ArenaBytes {
		panic(fmt.Sprintf("mprun: rank arena exhausted (%d of %d bytes used); raise Config.MPArenaBytes",
			a.arenaPos, a.cfg.ArenaBytes))
	}
	base := a.arenaPos
	a.arenaPos += total
	ar := a.lay.arena(a.m, local)
	buf := ar[base : base+size : base+size]
	st := timing.NewStampsOver(
		i64slice(ar, base+bufLen, n64),
		u32slice(ar, base+bufLen+n64*8, n32), size)
	return &segpool.Seg{Buf: buf, St: st}
}

// Recycle returns a segment to the local free list (see Transport.RecycleSeg).
func (a *Arena) Recycle(s *segpool.Seg, scrubbed bool, extra ...segpool.Range) {
	if scrubbed {
		mRecycleScrb.Inc()
		segpool.Scrub(s, extra...)
	} else {
		mRecycles.Inc()
		clear(s.Buf)
		s.St.Reset()
	}
	a.freeSegs[len(s.Buf)] = append(a.freeSegs[len(s.Buf)], s)
}

// Publish writes local rank's registration under key k into the entry of
// k's slot in the shared directory, where the host group's other processes
// resolve it (Lookup). The buffer must come from AllocSeg: remote processes
// can only reach the shared mapping, so arbitrary heap memory is rejected
// with a clear fault.
func (a *Arena) Publish(local, k int, reg *simnet.Region) {
	buf := reg.Bytes()
	off, ok := arenaOffset(a.lay.arena(a.m, local), buf)
	if !ok {
		panic("mprun: ranks that share an arena can only register transport-allocated memory (Endpoint.AllocSeg / Register), not windows over user buffers")
	}
	key := simnet.Key(k)
	if key.Slot() >= maxRegions {
		panic(fmt.Sprintf("mprun: region directory full: this rank holds %d live registrations, all its arena's directory addresses (about %d windows per rank); free the windows it no longer uses", maxRegions, maxRegions/2))
	}
	e := a.lay.entryOff(local, key.Slot())
	atomic.StoreUint64(u64at(a.m, e+enBufOff), uint64(off))
	atomic.StoreUint64(u64at(a.m, e+enBufLen), uint64(len(buf)))
	// The state store publishes the fields: peers load it with acquire
	// ordering before reading them.
	atomic.StoreUint32(u32at(a.m, e+enState), key.Live())
}

// Unpublish empties k's entry; later accesses by the host group's other
// processes fault.
func (a *Arena) Unpublish(local, k int) {
	if s := simnet.Key(k).Slot(); s < maxRegions {
		atomic.StoreUint32(u32at(a.m, a.lay.entryOff(local, s)+enState), 0)
	}
}

// Lookup resolves a peer's (ownerLocal, key), materializing (and caching, by
// slot) a local view of the owner's registration: the buffer and stamp slabs
// are slices of the shared mapping, so stamp arithmetic runs on the same words
// in every process. ownerGlobal is the owner's world rank, the identity the
// view (and its fault messages) carries. A view's liveness word is the
// entry's state word, so a warm route onto the view notices the owner's
// Unregister without coming back here.
func (a *Arena) Lookup(ownerLocal int, key uint32, ownerGlobal int) *simnet.Region {
	k := simnet.Key(key)
	if s := k.Slot(); s < maxRegions {
		e := a.lay.entryOff(ownerLocal, s)
		state := u32at(a.m, e+enState)
		// Checked on cache hits too — the owner may have unregistered and
		// recycled the bytes since — and after reading the fields, which the
		// owner may have rewritten for a later key meanwhile.
		if atomic.LoadUint32(state) == k.Live() {
			if r := a.regions[[2]int{ownerLocal, s}]; r != nil && r.Key() == k {
				return r
			}
			off := int(atomic.LoadUint64(u64at(a.m, e+enBufOff)))
			ln := int(atomic.LoadUint64(u64at(a.m, e+enBufLen)))
			if atomic.LoadUint32(state) == k.Live() {
				ar := a.lay.arena(a.m, ownerLocal)
				n64, n32 := timing.StampSlabLens(ln)
				bufLen := alignUp(ln, 8)
				st := timing.NewStampsOver(
					i64slice(ar, off+bufLen, n64),
					u32slice(ar, off+bufLen+n64*8, n32), ln)
				reg := simnet.MakeRegion(ownerGlobal, k, ar[off:off+ln:off+ln], st, a.Port(ownerLocal), state)
				a.regions[[2]int{ownerLocal, s}] = &reg
				return &reg
			}
		}
	}
	panic(simnet.Unregistered(simnet.Addr{Rank: ownerGlobal, Key: k}))
}

// ---- ports ----

// Port returns local rank's port: the words at the head of its slot in the
// mapping, so every process of the arena takes the same lock and books the
// same NIC interval. The slot is 128-byte aligned in a page-aligned mapping.
func (a *Arena) Port(local int) *simnet.Port {
	return (*simnet.Port)(unsafe.Pointer(&a.m[a.lay.rankOff(local)+rnPort]))
}

// ---- parking: the hook of the arena's door and Pacer ----

// Hook is how a goroutine of any mapper sleeps under a slot and how it is
// reached: the slot's wake word, a futex every mapper shares — local rank
// r's door word for slot r, its pace word for slot Ranks+r (see
// simnet.ParkHook). Seq loads the word, Park sleeps on it, and Poke adds to
// it and wakes every sleeper: on a door word, whoever waits on that rank's
// port — host-mates and, on hybrid, the service handlers that hold off-host
// ranks' waits on it. Whether the world stands is the binding process's to
// say.
//
// A parked goroutine holds its OS thread while it sleeps. In an mp world that
// is at most the rank itself, one per process (no service goroutines run, and
// mpi1 refuses process worlds); on hybrid, at most 1 + the off-host peers with
// a DOORWAIT in flight on this rank, ≤ MaxRanks.
func (a *Arena) Hook() simnet.ParkHook { return a.hook }

func (a *Arena) wake(slot int) *uint32 {
	if n := a.cfg.Ranks; slot >= n {
		return u32at(a.m, a.lay.rankOff(slot-n)+rnPaceWake)
	}
	return u32at(a.m, a.lay.rankOff(slot)+rnDoorWake)
}

func (a *Arena) seq(slot int) uint64 { return uint64(atomic.LoadUint32(a.wake(slot))) }

// park sleeps under slot until its wake word leaves seq, this process has
// aborted, or d has passed, and reports whether the word moved. A poke that
// lands between the caller's sample and the sleep has moved the word, and
// FUTEX_WAIT does not sleep on a moved word.
func (a *Arena) park(slot int, seq uint64, d time.Duration) bool {
	w := a.wake(slot)
	deadline := time.Now().Add(d)
	for atomic.LoadUint32(w) == uint32(seq) && !a.ended.Load() {
		left := time.Until(deadline)
		if left <= 0 {
			break
		}
		futexSleep(w, uint32(seq), left)
	}
	return atomic.LoadUint32(w) != uint32(seq)
}

// poke advances slot's wake word and wakes everyone asleep on it.
func (a *Arena) poke(slot int) bool {
	w := a.wake(slot)
	atomic.AddUint32(w, 1)
	return futexWakeAll(w)
}

// Pacer returns this process's pacer over the arena's shared tables, nil for
// an unpaced world.
func (a *Arena) Pacer() *simnet.Pacer {
	if a.cfg.PaceWindowNs == 0 {
		return nil
	}
	n := a.cfg.Ranks
	return simnet.NewPacer(a.cfg.PaceWindowNs, n, i64slice(a.m, a.lay.paceOff, simnet.PaceTableWords(n)), a.hook)
}

// Abort ends this process's arena parks, now and from now on: a park that
// starts later returns at once, and one poke of every door word and of its
// own pace word wakes those asleep — a door waiter sleeps under the rank it
// waits on, which may be any host-mate. They find the abort through the
// bound abort state; host-mates, woken too, re-check and sleep again, and
// learn of the abort from their own control streams. After Close there is no
// one to wake.
func (a *Arena) Abort() {
	a.ended.Store(true)
	a.unmap.Lock()
	defer a.unmap.Unlock()
	if a.m == nil {
		return
	}
	for l := range a.cfg.Ranks {
		a.poke(l)
	}
	if a.self >= 0 {
		a.poke(a.cfg.Ranks + a.self)
	}
}
