// Package simnet is a software RDMA fabric: the stand-in for Cray DMAPP
// (inter-node) and XPMEM (intra-node) that the foMPI protocols in
// internal/core are layered on. Ranks are goroutines in a single address
// space; each rank registers memory regions that other ranks address by
// (rank, key, offset) and accesses with put, get, and 8-byte atomic memory
// operations, each available with blocking, explicit-nonblocking (handle),
// and implicit-nonblocking (bulk gsync) completion — exactly DMAPP's
// contract. There is no remote software agent: the target CPU is never
// involved in any operation.
//
// Besides moving real bytes, every operation advances the issuing rank's
// virtual clock according to a calibrated cost model, and stamps the written
// words with the operation's virtual completion time so that polling ranks
// merge time causally (see DESIGN.md §6).
//
// The per-operation host costs are kept allocation-free and (nearly)
// lock-free: an endpoint resolves a target it has used before from its
// fixed-size route memo (region handle, locality and cost profile behind
// two compares and a liveness load) and any other through one atomic
// pointer load into a copy-on-write table, doorbells ring without a lock
// when nobody is parked, and pacing folds sharded minimum caches instead of
// scanning every rank. Groups of operations issue through
// Endpoint.BeginBatch/EndBatch, which coalesce the per-operation disciplines
// — one pacing check, one doorbell per distinct destination — without
// changing virtual time by a single bit (DESIGN.md §6.2).
package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

// Pacing and doorbell metrics. The names are shared with the other
// backends' pacing valves (internal/netrun, internal/mprun) — the telemetry
// registry is idempotent by name, so whichever transports a world composes,
// an aggregated snapshot reports one pacing story.
var (
	mPaceParks  = telemetry.NewCounter("pace.parks")
	mPaceParkNs = telemetry.NewHistogram("pace.park_ns")
	mPaceStalls = telemetry.NewCounter("pace.stalls")
	mPacePokes  = telemetry.NewCounter("pace.pokes")
	mDoorRings  = telemetry.NewCounter("door.rings")
)

// Key identifies a registered memory region within its owner rank.
type Key uint32

// Addr names one byte of remote memory.
type Addr struct {
	Rank int
	Key  Key
	Off  int
}

// Add returns a copy of a displaced by n bytes.
func (a Addr) Add(n int) Addr { a.Off += n; return a }

// node is the per-rank fabric state: the registered-region table, the
// rank's port (doorbell generation, NIC occupancy for bandwidth/incast
// modelling, and the lock over both), and the doorbell's parked waiters.
type node struct {
	// regions is a copy-on-write dense table indexed by Key (keys are
	// handed out sequentially and never reused, so the table only grows;
	// unregistered slots hold nil). The hot path — region() on every
	// put/get/AMO — is one atomic load plus a bounds-checked index; mu
	// serializes only the cold register/unregister copy.
	mu      sync.Mutex
	regions atomic.Pointer[[]*Region]
	initTbl []*Region // initial header, carved from the fabric's setup slab
	nextKey Key

	port Port

	// Futex-style doorbell: writers advance the port's generation on every
	// modification of this rank's memory, but take doorMu and broadcast only
	// when a waiter has registered itself in doorWaiters — the overwhelmingly
	// common nobody-is-waiting case is the port's release add plus one load.
	doorWaiters atomic.Int32
	doorMu      sync.Mutex
	door        *sync.Cond
}

// wake broadcasts to the rank's parked waiters after its port's generation
// advanced. The advance is sequentially consistent with the waiter's
// registration (doorWaiters.Add before its locked re-check of the
// generation), so a waiter either observes the new generation without
// sleeping or is registered in doorWaiters before the writer decides whether
// to broadcast — no lost wakeups.
func (nd *node) wake() {
	if nd.doorWaiters.Load() == 0 {
		return
	}
	nd.doorMu.Lock()
	nd.door.Broadcast()
	nd.doorMu.Unlock()
}

// notify rings the rank's doorbell from outside its port.
func (nd *node) notify() {
	nd.port.Ring()
	nd.wake()
}

// paceShardBits sizes the pacing tracker's shards: 64 ranks per shard keeps
// a shard rescan one cache-line-friendly sweep while the global fold touches
// only p/64 cached minimums.
const paceShardBits = 6

// Fabric connects n ranks arranged as nodes of ranksPerNode consecutive
// ranks. It is shared by all transport layers (foMPI, PGAS baselines, MPI-1)
// so that comparisons run over identical hardware.
type Fabric struct {
	n            int
	ranksPerNode int
	nodes        []*node
	aborted      atomic.Bool
	abortOnce    sync.Once
	done         chan struct{}

	hookMu     sync.Mutex
	abortHooks []func()

	// Conservative pacing (SetPacing): per-rank published clocks, a
	// per-shard cached minimum, and a progress generation counter. Shard
	// caches may transiently run below the true minimum (a concurrent
	// rescan can store a stale result) but never above it, so pacing only
	// ever over-waits; pace() re-rescans the governing shard while blocked,
	// which repairs any staleness.
	paceWindow    int64
	endpointsOut  atomic.Bool // an endpoint has cached paceWindow != 0
	paceClocks    []int64
	paceShardMins []int64
	paceGen       atomic.Uint64

	// Pacing wait heap: blocked ranks park on a wakeup threshold instead
	// of spinning; laggard rescans wake them when the minimum folds past
	// it. paceParked and paceNextTgt let publishers skip the heap lock
	// entirely when nobody is parked or no threshold is reachable.
	paceMu      sync.Mutex
	paceHeap    []paceEntry
	paceSlots   []paceSlot
	paceParked  atomic.Int32
	paceNextTgt atomic.Int64
}

// ErrAborted is the panic value delivered to goroutines blocked in fabric
// waits when Abort tears the fabric down (e.g. after a peer rank panicked).
var ErrAborted = fmt.Errorf("simnet: fabric aborted")

// Abort marks the fabric dead and wakes every blocked waiter; they unwind by
// panicking with ErrAborted. Used to avoid deadlock when one rank fails.
func (f *Fabric) Abort() {
	f.aborted.Store(true)
	f.abortOnce.Do(func() { close(f.done) })
	f.hookMu.Lock()
	hooks := append([]func(){}, f.abortHooks...)
	f.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	for _, nd := range f.nodes {
		nd.notify()
	}
}

// SetPacing bounds the virtual-clock divergence between ranks to window
// nanoseconds: before issuing a fabric operation, a rank whose clock runs
// more than window ahead of the slowest published clock yields until the
// laggards catch up. Execution otherwise follows real goroutine scheduling,
// so a rank that races far ahead in real time stamps shared words with
// far-future virtual times, and contended-word workloads (hashtable CAS
// chains, DSDE counters) inherit host-scheduler noise as virtual-time
// jumps. Pacing makes the interleaving approximate virtual-time order.
// window 0 disables pacing (the default: uncontended microbenchmarks do
// not need it). A stall detector keeps pacing deadlock-free: if nothing in
// the world makes progress while a rank is pace-blocked, it proceeds.
//
// Endpoints read the window once, when they are created, so SetPacing must
// come first; a later call would be ignored by every endpoint already
// handed out, and panics instead.
func (f *Fabric) SetPacing(window int64) {
	if f.endpointsOut.Load() {
		panic("simnet: SetPacing after an endpoint was created; set the pacing window before Endpoint/Endpoints/NewEndpoint")
	}
	f.paceWindow = window
}

// PaceWindow returns the configured pacing window.
func (f *Fabric) PaceWindow() int64 { return f.paceWindow }

// publishClock records a rank's virtual clock for pacing and signals
// progress. When the publisher was at or below its shard's cached minimum —
// it was (one of) the laggard(s) whose clock the cache tracks — it rescans
// the shard itself, so the O(shard) sweep runs once per laggard operation
// instead of once per blocked-rank poll; with nobody parked, every other
// publisher pays one store, three loads, and a counter bump.
//
// While ranks are parked the laggard test alone is not reliable enough to
// carry their wakeups: concurrent rescans can leave a shard cache stale-low
// (below every live clock), and then no publisher ever matches `old <=
// cache` again until a parked rank's heartbeat repairs it — turning every
// hand-off into a timer wait. So any publish that finds parked ranks rescans
// its own shard unconditionally (~one cache line of atomic loads) and runs
// the wake check; active publishers in each shard keep every cache fresh.
func (f *Fabric) publishClock(rank int, t timing.Time) {
	if f.paceWindow == 0 {
		return
	}
	old := atomic.LoadInt64(&f.paceClocks[rank])
	atomic.StoreInt64(&f.paceClocks[rank], int64(t))
	s := rank >> paceShardBits
	if old <= atomic.LoadInt64(&f.paceShardMins[s]) || f.paceParked.Load() > 0 {
		f.rescanShard(s)
		min, _ := f.paceMinCached()
		f.wakeWaiters(min)
	}
	f.paceGen.Add(1)
}

// rescanShard recomputes one shard's cached minimum from its ranks' clocks
// and returns it. Clocks are monotone, so the scanned minimum can never
// exceed the true current minimum; a racing rescan may overwrite with an
// older (lower) result, which is conservative.
func (f *Fabric) rescanShard(s int) int64 {
	lo := s << paceShardBits
	hi := lo + (1 << paceShardBits)
	if hi > f.n {
		hi = f.n
	}
	m := int64(1) << 62
	for i := lo; i < hi; i++ {
		if c := atomic.LoadInt64(&f.paceClocks[i]); c < m {
			m = c
		}
	}
	atomic.StoreInt64(&f.paceShardMins[s], m)
	return m
}

// paceMinCached folds the per-shard cached minimums: O(p/64), no rescans.
func (f *Fabric) paceMinCached() (min int64, argShard int) {
	min = int64(1) << 62
	for s := range f.paceShardMins {
		if v := atomic.LoadInt64(&f.paceShardMins[s]); v < min {
			min, argShard = v, s
		}
	}
	return min, argShard
}

// paceParkHeartbeat is the parked-rank heartbeat: how long a pace-blocked
// rank sleeps before re-checking whether the world still makes progress. It
// starts short — the heartbeat doubles as the stall valve, and prompt stall
// release matters for active-message hand-offs — and backs off exponentially
// to paceParkMax so long-parked ranks do not saturate the timer wheel.
const (
	paceParkHeartbeat = 50 * time.Microsecond
	paceParkMax       = 2 * time.Millisecond
)

// paceEntry is one parked rank's wakeup threshold in the pacing wait heap.
type paceEntry struct {
	target int64 // release when the folded minimum reaches this
	rank   int32
	seq    uint32 // live while it matches paceSlots[rank].seq
}

// paceSlot is a rank's reusable parking state: allocated once, so parking
// is allocation-free after a rank's first block. seq is guarded by paceMu;
// ch and timer are touched only by the rank's own goroutine after creation
// (publishers send on ch under paceMu).
type paceSlot struct {
	ch    chan struct{}
	timer *time.Timer
	seq   uint32
}

// wakeWaiters pops every live heap entry whose target the folded minimum
// has reached and signals its rank. The two atomic guards make the
// nobody-parked case — every unpaced or in-window operation — two loads.
func (f *Fabric) wakeWaiters(min int64) {
	if f.paceParked.Load() == 0 || f.paceNextTgt.Load() > min {
		return
	}
	f.paceMu.Lock()
	for len(f.paceHeap) > 0 {
		e := f.paceHeap[0]
		live := f.paceSlots[e.rank].seq == e.seq
		if live && e.target > min {
			break
		}
		f.heapPop()
		if live {
			select {
			case f.paceSlots[e.rank].ch <- struct{}{}:
				mPacePokes.Inc()
			default:
			}
		}
	}
	f.updateNextTgt()
	f.paceMu.Unlock()
}

func (f *Fabric) updateNextTgt() {
	if len(f.paceHeap) == 0 {
		f.paceNextTgt.Store(int64(1) << 62)
		return
	}
	f.paceNextTgt.Store(f.paceHeap[0].target)
}

func (f *Fabric) heapPush(e paceEntry) {
	h := append(f.paceHeap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].target <= h[i].target {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	f.paceHeap = h
}

func (f *Fabric) heapPop() {
	h := f.paceHeap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && h[l].target < h[s].target {
			s = l
		}
		if r < n && h[r].target < h[s].target {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	f.paceHeap = h
}

// pace blocks rank while its clock is more than the pacing window ahead of
// the slowest published clock. The fast path is one fold of the shard
// caches; a blocked rank parks on a wakeup threshold (its clock minus the
// window) in the pacing wait heap and sleeps until a laggard's rescan folds
// the minimum past it — no spinning, which matters doubly when the host has
// fewer cores than the world has ranks, since a spinning waiter starves the
// very laggard it waits for.
func (f *Fabric) pace(rank int, t timing.Time) {
	if f.paceWindow == 0 {
		return
	}
	f.publishClock(rank, t)
	me := int64(t)
	if min, _ := f.paceMinCached(); me <= min+f.paceWindow {
		return
	}
	f.paceBlock(rank, me)
}

func (f *Fabric) paceBlock(rank int, me int64) {
	target := me - f.paceWindow
	slot := &f.paceSlots[rank]
	lastMin := int64(-1) // minimum observed at the previous heartbeat
	idleBeats := 0
	parkDur := paceParkHeartbeat
	var parkStart time.Time
	defer func() {
		if !parkStart.IsZero() {
			mPaceParkNs.Record(uint64(time.Since(parkStart)))
		}
	}()
	for {
		min, arg := f.paceMinCached()
		if me <= min+f.paceWindow || f.aborted.Load() {
			return
		}
		// Authoritative check: rescan the governing shard to a fixpoint so
		// we never park against a stale-low cached minimum.
		if m := f.rescanShard(arg); m != min {
			continue
		}
		// Park immediately — never spin. On an oversubscribed host (cores
		// scarcer than ranks) a yielding waiter drags every other blocked
		// rank through the scheduler once per laggard operation; parked
		// ranks leave the run queue to the ranks that can make progress.
		// Publish the heap entry, then re-check the fold so a wakeup that
		// folded before the push cannot be missed (the publisher's
		// shard-min store precedes its heap scan; if the scan missed our
		// entry, this fold sees its store).
		f.paceMu.Lock()
		if slot.ch == nil {
			slot.ch = make(chan struct{}, 1)
		}
		slot.seq++
		f.heapPush(paceEntry{target: target, rank: int32(rank), seq: slot.seq})
		f.updateNextTgt()
		f.paceParked.Add(1)
		f.paceMu.Unlock()
		eligible := false
		if min, _ := f.paceMinCached(); min >= target || f.aborted.Load() {
			eligible = true
		}
		woken := false
		if !eligible {
			if parkStart.IsZero() && telemetry.On() {
				parkStart = time.Now()
				mPaceParks.Inc()
			}
			if slot.timer == nil {
				slot.timer = time.NewTimer(parkDur)
			} else {
				slot.timer.Reset(parkDur)
			}
			select {
			case <-slot.ch:
				woken = true
			case <-slot.timer.C: // heartbeat: recheck progress via paceGen
			case <-f.done:
			}
			slot.timer.Stop()
		}
		f.paceMu.Lock()
		slot.seq++ // invalidate our heap entry (reaped lazily)
		f.paceParked.Add(-1)
		f.paceMu.Unlock()
		select { // drain a wake that raced the timeout
		case <-slot.ch:
		default:
		}
		if f.aborted.Load() {
			return
		}
		if woken || eligible {
			idleBeats, parkDur = 0, paceParkHeartbeat
			continue
		}
		// Heartbeat expired with no channel wake: the stall check. The
		// trustworthy freeze signal is the folded MINIMUM staying put — a
		// laggard parked in a doorbell or mailbox wait pins it, and only
		// ranks released past the window keep publishing, which moves their
		// own clocks but never the minimum. (Counting publishes instead
		// would let those releases mask a real freeze forever.) After two
		// silent beats release this rank past the window for ONE operation;
		// its next pace call re-detects, so frozen-minimum drains progress
		// at the heartbeat rate rather than freely — an intentional
		// real-time throttle that keeps ranks' relative rates (and so their
		// stamp interleavings) tame while the window cannot be enforced.
		if cur, _ := f.paceMinCached(); cur != lastMin {
			lastMin, idleBeats = cur, 0
		} else if idleBeats++; idleBeats >= 2 {
			mPaceStalls.Inc()
			telemetry.RecordEvent(telemetry.EvStall, uint64(rank), uint64(me-target))
			return
		}
		if parkDur < paceParkMax {
			parkDur *= 2
		}
	}
}

// Aborted reports whether the fabric has been torn down.
func (f *Fabric) Aborted() bool { return f.aborted.Load() }

// Done returns a channel closed when the fabric aborts; layers blocked on
// their own channels select on it to unwind instead of deadlocking.
func (f *Fabric) Done() <-chan struct{} { return f.done }

// OnAbort registers fn to run when the fabric aborts (layers with private
// condition variables use it to wake their waiters). If the fabric already
// aborted, fn runs immediately.
func (f *Fabric) OnAbort(fn func()) {
	f.hookMu.Lock()
	f.abortHooks = append(f.abortHooks, fn)
	f.hookMu.Unlock()
	if f.aborted.Load() {
		fn()
	}
}

// NewFabric creates a fabric for n ranks with the given node width.
func NewFabric(n, ranksPerNode int) *Fabric {
	if n <= 0 {
		panic("simnet: fabric needs at least one rank")
	}
	if ranksPerNode <= 0 {
		ranksPerNode = 1
	}
	nShards := (n + (1 << paceShardBits) - 1) >> paceShardBits
	f := &Fabric{
		n: n, ranksPerNode: ranksPerNode, nodes: make([]*node, n),
		done: make(chan struct{}), paceClocks: make([]int64, n),
		paceShardMins: make([]int64, nShards),
		paceSlots:     make([]paceSlot, n),
	}
	f.paceNextTgt.Store(int64(1) << 62)
	// Per-node state comes from three slabs (node structs, initial table
	// headers via node.initTbl, table backing arrays): world setup is a few
	// allocations, not a few per rank.
	slab := make([]node, n)
	backing := make([]*Region, initialRegionCap*n)
	for i := range f.nodes {
		nd := &slab[i]
		nd.initTbl = backing[i*initialRegionCap : i*initialRegionCap : (i+1)*initialRegionCap]
		nd.regions.Store(&nd.initTbl)
		nd.door = sync.NewCond(&nd.doorMu)
		f.nodes[i] = nd
	}
	return f
}

// initialRegionCap is each rank's pre-carved region-table capacity; typical
// worlds register a handful of regions per rank (scratch, window data and
// control), and tables growing past it just reallocate.
const initialRegionCap = 8

// Size returns the number of ranks.
func (f *Fabric) Size() int { return f.n }

// RanksPerNode returns the node width.
func (f *Fabric) RanksPerNode() int { return f.ranksPerNode }

// NodeOf returns the node index hosting rank r.
func (f *Fabric) NodeOf(r int) int { return r / f.ranksPerNode }

// SameNode reports whether ranks a and b share a node (XPMEM reachable).
func (f *Fabric) SameNode(a, b int) bool { return f.NodeOf(a) == f.NodeOf(b) }

// register installs a region owned by rank and returns its key. Cold path:
// it extends the dense table and publishes a new header atomically. When the
// backing array has spare capacity the new slot is written in place — the
// store lands beyond every published header's length, so concurrent readers
// (who hold the old header) cannot observe it — and only a full array
// reallocates and copies.
func (f *Fabric) register(rank int, reg *Region) Key {
	nd := f.nodes[rank]
	nd.mu.Lock()
	defer nd.mu.Unlock()
	k := nd.nextKey
	nd.nextKey++
	reg.key = k
	old := *nd.regions.Load()
	tbl := append(old, reg) // in-place when capacity allows (mu serializes writers)
	nd.regions.Store(&tbl)
	return k
}

// unregister removes a region; subsequent accesses panic, modelling a DMAPP
// memory-registration fault. The key's slot is nilled, never reused.
func (f *Fabric) unregister(rank int, k Key) {
	nd := f.nodes[rank]
	nd.mu.Lock()
	defer nd.mu.Unlock()
	old := *nd.regions.Load()
	tbl := append([]*Region(nil), old...)
	if int(k) < len(tbl) {
		tbl[k] = nil
	}
	nd.regions.Store(&tbl)
}

// region resolves an address to its registered region: one atomic load and
// a bounds-checked index on the hot path of every remote operation.
func (f *Fabric) region(a Addr) *Region {
	if a.Rank < 0 || a.Rank >= f.n {
		panic(fmt.Sprintf("simnet: address names rank %d outside fabric of %d", a.Rank, f.n))
	}
	tbl := *f.nodes[a.Rank].regions.Load()
	if int(a.Key) >= len(tbl) || tbl[a.Key] == nil {
		panic(fmt.Sprintf("simnet: access to unregistered region (rank %d key %d)", a.Rank, a.Key))
	}
	return tbl[a.Key]
}

// waitDoor blocks until rank's doorbell generation exceeds gen, i.e. until
// some fabric operation has modified that rank's memory. It returns the new
// generation. The caller registers itself in doorWaiters before the locked
// re-check, pairing with wake's load of the waiter count after the advance.
func (f *Fabric) waitDoor(rank int, gen uint64) uint64 {
	nd := f.nodes[rank]
	if g := nd.port.Gen(); g != gen {
		return g // doorbell already rung: no lock, no sleep
	}
	nd.doorWaiters.Add(1)
	nd.doorMu.Lock()
	for nd.port.Gen() == gen && !f.aborted.Load() {
		nd.door.Wait()
	}
	nd.doorMu.Unlock()
	nd.doorWaiters.Add(-1)
	g := nd.port.Gen()
	if f.aborted.Load() && g == gen {
		panic(ErrAborted)
	}
	return g
}

// doorGenOf samples rank's doorbell generation.
func (f *Fabric) doorGenOf(rank int) uint64 { return f.nodes[rank].port.Gen() }
