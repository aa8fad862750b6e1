package simnet

import (
	"encoding/binary"

	"fompi/internal/segpool"
	"fompi/internal/timing"
)

// Endpoint is one rank's port into the fabric for one transport layer.
// Several layers (foMPI, UPC, MPI-1...) may hold endpoints for the same rank;
// they share the rank's registered regions and NIC but carry their own cost
// model and virtual clock. An Endpoint is owned by its rank's goroutine and
// must not be shared across goroutines.
type Endpoint struct {
	fab   Transport
	rank  int
	rpn   int    // cached fab.RanksPerNode(): NodeOf(r) is r / rpn on every backend
	node  int    // rank / rpn
	pacer *Pacer // cached fab.Pacer(): nil in an unpaced world
	cm    *CostModel
	drain WireDrainer // fab's wire, when it has one

	clock       timing.Time
	implicitMax timing.Time
	nicFree     timing.Time // source-side NIC availability (outcast bandwidth)

	// routes memoizes what an operation needs to know about its target and
	// what does not change between operations (see route); xfer remembers
	// the last serialization term per locality (see xferNs).
	routes [routeSlots]route
	xfer   [2]xferMemo

	// word holds the bytes of a one-word operation on a proxy — a word
	// AMO's operand and fetched word, StoreW's word, the word LoadW and
	// PollRemoteWord read — since a RemoteMem takes byte slices, and a buffer
	// handed to one escapes (the endpoint is on the heap already). Inline,
	// those operations pass scalars to RegionExec.AmoWord, PutWord and
	// GetWord.
	word [16]byte

	ctr Counters
}

// routeSlots sizes the route memo: a power of two, fixed whatever the world
// size. An issue loop works on a handful of (rank, key) pairs at a time —
// a window's data and control regions at each of a few neighbours — and a
// pair that loses its slot pays one regular lookup to get it back.
const routeSlots = 16

// route is one entry of the endpoint's direct-mapped route memo: the target
// facts of (rank, key) that every operation needs and that only the owner's
// Unregister can change — the region handle, the locality, and the cost
// profile the locality selects. An entry serves a lookup while the handle's
// liveness word holds the key's Live value: the word holds a key, not a flag,
// so a handle that now serves a later key (its slot's next generation, a
// Region struct registered again) does not serve the old one. The zero entry
// is an empty slot.
type route struct {
	rank int
	key  Key
	same bool // target shares this endpoint's node
	reg  *Region
	pr   *Profile
}

// xferMemo is one remembered Profile.xferNs result.
type xferMemo struct {
	n  int
	ns int64
}

// Handle identifies an explicit-nonblocking operation; it completes at a
// known virtual time. On a proxy the completion time may still be in
// flight: pend then points at the slot the backend fills when the reply
// drains, and Wait/Test drain the wire before reading it.
type Handle struct {
	comp timing.Time
	pend *timing.Time
}

// NewEndpoint creates an endpoint for rank over any transport backend with
// the layer cost model cm. All timing logic lives here, above the Transport
// line, so layers driving different backends share one cost engine.
func NewEndpoint(t Transport, rank int, cm *CostModel) *Endpoint {
	if rank < 0 || rank >= t.Size() {
		panic("simnet: endpoint rank out of range")
	}
	ep := new(Endpoint)
	ep.init(t, rank, cm)
	return ep
}

// init is the one place the fields of a fresh (zero) endpoint are set,
// whether it stands alone or in a slab. It reads the transport's topology
// and pacer once; the in-process fabric refuses to change its window
// afterwards.
func (ep *Endpoint) init(t Transport, rank int, cm *CostModel) {
	ep.fab, ep.rank, ep.cm = t, rank, cm
	ep.rpn = t.RanksPerNode()
	ep.node = rank / ep.rpn
	ep.pacer = t.Pacer()
	ep.drain, _ = t.(WireDrainer)
	if f, ok := t.(*Fabric); ok && !f.endpointsOut.Load() {
		f.endpointsOut.Store(true)
	}
}

// drainWire blocks until every operation posted to a proxy has delivered its
// completion time (a no-op on a transport with no wire).
func (ep *Endpoint) drainWire() {
	if ep.drain != nil {
		ep.drain.DrainWire()
	}
}

// Endpoint creates an endpoint for rank with the layer cost model cm.
func (f *Fabric) Endpoint(rank int, cm *CostModel) *Endpoint {
	return NewEndpoint(f, rank, cm)
}

// Endpoints makes one fresh endpoint per rank with a shared cost model, in a
// single slab (world setup: one allocation instead of one per rank): eps, an
// earlier world's slab, zeroed, when it holds one endpoint per rank, and a
// new one otherwise. Each endpoint is still confined to its rank's goroutine.
func (f *Fabric) Endpoints(eps []Endpoint, cm *CostModel) []Endpoint {
	if len(eps) != f.n {
		eps = make([]Endpoint, f.n)
	}
	for r := range eps {
		eps[r] = Endpoint{}
		eps[r].init(f, r, cm)
	}
	return eps
}

// Rank returns the owning rank.
func (ep *Endpoint) Rank() int { return ep.rank }

// Transport returns the underlying transport backend.
func (ep *Endpoint) Transport() Transport { return ep.fab }

// Model returns the endpoint's cost model.
func (ep *Endpoint) Model() *CostModel { return ep.cm }

// Now returns the rank's virtual clock.
func (ep *Endpoint) Now() timing.Time { return ep.clock }

// AdvanceTo raises the clock to at least t.
func (ep *Endpoint) AdvanceTo(t timing.Time) {
	if t > ep.clock {
		ep.clock = t
	}
}

// Compute advances the clock by ns nanoseconds of local computation and
// publishes the new clock for pacing.
func (ep *Endpoint) Compute(ns int64) {
	ep.clock += timing.Time(ns)
	if ep.pacer != nil {
		ep.pacer.Publish(ep.rank, ep.clock)
	}
}

// Steps charges n software steps (≈CPU instructions) to the layer's
// critical-path accounting without advancing time; the instruction-count
// experiment reads them back through Counters.
func (ep *Endpoint) Steps(n int64) { ep.ctr.SoftSteps += n }

// Counters returns a snapshot of the endpoint's operation counters.
func (ep *Endpoint) Counters() Counters { return ep.ctr }

// exec returns the executor the inline path runs against a region with real
// bytes behind it: its port release carries the ring and wakes whoever that
// release found waiting.
func (ep *Endpoint) exec(reg *Region) RegionExec {
	return RegionExec{Reg: reg, Ring: ep.fab}
}

// paceOp runs the per-operation pacing discipline.
func (ep *Endpoint) paceOp() {
	if ep.pacer != nil {
		ep.pacer.Pace(ep.rank, ep.clock)
	}
}

// route resolves an address to its target facts. A hit costs two compares
// and the liveness load and compare, whatever the world size; the liveness
// load makes the owner's Unregister exact per operation — the next access
// faults in routeMiss's lookup, it does not ride a stale handle.
func (ep *Endpoint) route(a Addr) *route {
	rt := &ep.routes[(uint(a.Rank)*5+uint(a.Key))%routeSlots]
	if rt.hit(a) {
		return rt
	}
	return ep.routeMiss(rt, a)
}

// hit reports whether the entry serves a: its (rank, key), a handle still live under the key.
func (rt *route) hit(a Addr) bool {
	return rt.rank == a.Rank && rt.key == a.Key && rt.reg != nil && rt.reg.liveAs(a.Key)
}

// routeMiss resolves a through the transport — faulting there on an address
// that names no live registration, with the slot left as it was — and fills
// the slot.
func (ep *Endpoint) routeMiss(rt *route, a Addr) *route {
	ep.ctr.RouteMisses++
	reg := ep.fab.LookupRegion(a)
	same := ep.sameNodeTo(a.Rank)
	// Field by field: a composite literal is built on the stack and copied
	// over in 16-byte moves that stall on the narrower stores behind them.
	rt.rank, rt.key, rt.same = a.Rank, a.Key, same
	rt.reg, rt.pr = reg, ep.cm.For(same)
	return rt
}

// xferNs is rt.pr.xferNs(n), remembering the last result per locality: an
// issue loop moves one payload size over and over, and the float multiply
// would otherwise sit between every operation and its NIC booking. A
// different size evaluates the same expression, so virtual time cannot tell.
func (ep *Endpoint) xferNs(rt *route, n int) int64 {
	m := &ep.xfer[0]
	if rt.same {
		m = &ep.xfer[1]
	}
	if m.n != n {
		m.n, m.ns = n, rt.pr.xferNs(n)
	}
	return m.ns
}

// Register allocates and registers size bytes of transport-reachable memory
// from the backend's segment allocator (pooled heap in process, the rank's
// shared-memory arena on the multi-process backend).
func (ep *Endpoint) Register(size int) *Region {
	seg := ep.fab.AllocSeg(ep.rank, size)
	return ep.RegisterBufStamps(seg.Buf, seg.St)
}

// AllocSeg returns a zeroed registrable segment of transport-reachable
// memory for this rank (see Transport.AllocSeg).
func (ep *Endpoint) AllocSeg(size int) *segpool.Seg {
	return ep.fab.AllocSeg(ep.rank, size)
}

// RecycleSeg returns a stamp-disciplined segment to the backend allocator,
// wiping only the stamped blocks plus the declared extra extents (see
// segpool.PutScrubbed for the caller obligations).
func (ep *Endpoint) RecycleSeg(s *segpool.Seg, extra ...segpool.Range) {
	ep.fab.RecycleSeg(ep.rank, s, true, extra...)
}

// RecycleSegWiped returns a segment with untracked writes to the backend
// allocator, wiping it fully.
func (ep *Endpoint) RecycleSegWiped(s *segpool.Seg) {
	ep.fab.RecycleSeg(ep.rank, s, false)
}

// RegisterBuf registers caller-provided memory (traditional windows expose
// existing user buffers). The slice must come from make (8-byte aligned).
func (ep *Endpoint) RegisterBuf(buf []byte) *Region {
	return ep.RegisterBufStamps(buf, timing.NewStamps(len(buf)))
}

// RegisterBufStamps registers caller-provided memory with caller-provided
// shadow stamps, which must cover len(buf) and be in the all-zero state
// (timing.Stamps.Reset). The pooled-segment paths use it to recycle the
// shadow arrays across worlds instead of reallocating them per run.
func (ep *Endpoint) RegisterBufStamps(buf []byte, st *timing.Stamps) *Region {
	reg := &Region{}
	ep.RegisterBufStampsInto(reg, buf, st)
	return reg
}

// RegisterBufStampsInto is RegisterBufStamps into a caller-owned Region
// struct — world and window setup embed their regions in slab-allocated
// state instead of allocating one object per registration. reg must not be
// currently registered.
func (ep *Endpoint) RegisterBufStampsInto(reg *Region, buf []byte, st *timing.Stamps) {
	if st == nil || st.Bytes() < len(buf) {
		panic("simnet: stamps do not cover the registered buffer")
	}
	*reg = MakeRegion(ep.rank, 0, buf, st, ep.fab.Port(ep.rank), &reg.state)
	ep.fab.RegisterRegion(ep.rank, reg) // the Directory sets the key and the word
}

// Unregister removes a registration; later remote accesses fault, through a
// warm route as through a cold lookup. The owner's Directory clears the
// handle's own liveness word, which this process's routes (all ranks' in
// process, the owner's own elsewhere) read; views in other processes watch
// the arena entry's word instead.
func (ep *Endpoint) Unregister(reg *Region) {
	ep.fab.UnregisterRegion(ep.rank, reg.key)
}

// srcDepart serializes a departure through the source NIC (outcast
// bandwidth) and returns the adjusted departure time.
func (ep *Endpoint) srcDepart(depart timing.Time, xfer int64) timing.Time {
	if ep.nicFree > depart {
		depart = ep.nicFree
	}
	ep.nicFree = depart + timing.Time(xfer)
	return depart
}

// xferArrival computes the target-side arrival time of a transfer departing
// no earlier than depart: the requester-local half of one payload crossing
// the wire as a pipeline. The source NIC serializes departures (inter-node
// only; intra-node the issuing CPU performs the copy itself) and the first
// byte arrives lat after departure. The remainder — the target NIC is
// occupied for the xfer serialization time starting at first-byte arrival
// (incast), and the payload is fully delivered when it finishes: one
// bandwidth term end to end, not one per NIC — runs under the target's port
// (RegionExec), inline or at the region's owner. Intra-node the returned
// time is the final completion.
func (ep *Endpoint) xferArrival(same bool, depart timing.Time, lat, xfer int64) timing.Time {
	if !same {
		depart = ep.srcDepart(depart, xfer)
	}
	return depart + timing.Time(lat)
}

// sameNodeTo reports whether peer shares this endpoint's node.
func (ep *Endpoint) sameNodeTo(peer int) bool {
	return ep.node == peer/ep.rpn
}

// putIssue moves the bytes now and returns the completion time. With sink
// non-nil the completion is also delivered to *sink — folded with Max when
// fold is true, assigned otherwise. A proxy only posts the put: the delivery
// waits for the next drain, and pend is the slot it will land in (comp is
// meaningless until then) — sink, or a fresh one when the caller named none.
// All clock and cost arithmetic is identical either way.
func (ep *Endpoint) putIssue(dst Addr, src []byte, sink *timing.Time, fold bool) (comp timing.Time, pend *timing.Time) {
	ep.paceOp()
	rt := ep.route(dst)
	reg, pr, same := rt.reg, rt.pr, rt.same
	ep.clock += timing.Time(pr.InjectNs)
	xfer := ep.xferNs(rt, len(src))
	if same {
		// XPMEM copy occupies the issuing CPU.
		ep.clock += timing.Time(xfer)
	}
	arrival := ep.xferArrival(same, ep.clock, pr.PutLatNs+pr.knee(len(src)), xfer)
	switch {
	case reg.rmt != nil:
		if pend = sink; pend == nil {
			pend = new(timing.Time)
		}
		reg.check(dst.Off, len(src))
		reg.rmt.Put(dst.Off, src, !same, arrival, xfer, pend, fold)
	case len(src) == 8 && dst.Off&7 == 0:
		comp = ep.exec(reg).PutWord(dst.Off, binary.LittleEndian.Uint64(src), !same, arrival, xfer)
	default:
		comp = ep.exec(reg).Put(dst.Off, src, !same, arrival, xfer)
	}
	ep.ctr.Puts++
	ep.ctr.BytesPut += int64(len(src))
	if pend == nil && sink != nil {
		if fold {
			*sink = timing.Max(*sink, comp)
		} else {
			*sink = comp
		}
	}
	return comp, pend
}

// putCommon moves the bytes now and returns the virtual completion time: on
// a proxy, the put followed by the drain every blocking point performs.
func (ep *Endpoint) putCommon(dst Addr, src []byte) timing.Time {
	comp, pend := ep.putIssue(dst, src, nil, false)
	if pend != nil {
		ep.drainWire()
		comp = *pend
	}
	return comp
}

// PutNBI issues an implicit-nonblocking put, completed by Gsync.
func (ep *Endpoint) PutNBI(dst Addr, src []byte) {
	ep.putIssue(dst, src, &ep.implicitMax, true)
}

// PutNB issues an explicit-nonblocking put and returns its handle. A put to
// a proxy goes out without waiting for its reply, so its handle carries the
// slot the drain will fill.
func (ep *Endpoint) PutNB(dst Addr, src []byte) Handle {
	comp, pend := ep.putIssue(dst, src, nil, false)
	return Handle{comp: comp, pend: pend}
}

// Put performs a blocking put (remote completion before return).
func (ep *Endpoint) Put(dst Addr, src []byte) {
	ep.AdvanceTo(ep.putCommon(dst, src))
}

// getCommon copies the bytes now and returns the virtual completion time,
// merged with the stamps of the words read (causality).
func (ep *Endpoint) getCommon(dst []byte, src Addr) timing.Time {
	ep.paceOp()
	rt := ep.route(src)
	reg, pr, same := rt.reg, rt.pr, rt.same
	ep.clock += timing.Time(pr.InjectNs)
	ep.ctr.Gets++
	ep.ctr.BytesGot += int64(len(dst))
	// Inter-node the data leaves through the target NIC; an XPMEM read is
	// the CPU copying the data itself, all latency and no booking.
	tail, xfer := pr.GetLatNs+pr.knee(len(dst)), ep.xferNs(rt, len(dst))
	if same {
		tail, xfer = pr.GetLatNs+xfer, 0
	}
	var comp timing.Time
	if rm := reg.rmt; rm != nil {
		reg.check(src.Off, len(dst))
		comp = rm.Get(dst, src.Off, ep.clock, !same, tail, xfer)
	} else if len(dst) == 8 && src.Off&7 == 0 { // a read never rings
		var v uint64
		v, comp = RegionExec{Reg: reg}.GetWord(src.Off, ep.clock, !same, tail, xfer)
		binary.LittleEndian.PutUint64(dst, v)
	} else {
		comp = RegionExec{Reg: reg}.Get(dst, src.Off, ep.clock, !same, tail, xfer)
	}
	if same {
		ep.clock = comp
	}
	return comp
}

// GetNBI issues an implicit-nonblocking get, completed by Gsync.
func (ep *Endpoint) GetNBI(dst []byte, src Addr) {
	comp := ep.getCommon(dst, src)
	ep.implicitMax = timing.Max(ep.implicitMax, comp)
}

// GetNB issues an explicit-nonblocking get and returns its handle.
func (ep *Endpoint) GetNB(dst []byte, src Addr) Handle {
	return Handle{comp: ep.getCommon(dst, src)}
}

// Get performs a blocking get.
func (ep *Endpoint) Get(dst []byte, src Addr) {
	ep.AdvanceTo(ep.getCommon(dst, src))
}

// Fetch copies len(dst) bytes at src into dst and charges nothing for it:
// the clock does not move, no NIC is booked, no pace clock is published and
// no operation is counted. It is the data mover of a layer that prices its
// transfers by formula (internal/mpi1), whose time must not depend on how
// the bytes physically travel.
func (ep *Endpoint) Fetch(dst []byte, src Addr) {
	reg := ep.route(src).reg
	if rm := reg.rmt; rm != nil {
		reg.check(src.Off, len(dst))
		rm.Get(dst, src.Off, 0, false, 0, 0)
		return
	}
	RegionExec{Reg: reg}.Get(dst, src.Off, 0, false, 0, 0)
}

// amoCommon performs the word operation on the addressed word atomically
// right now and returns the prior value. The update becomes visible at the
// target after a one-way latency (that is the word's stamp); the
// origin-side completion takes the full AMO round trip (AmoNs — the paper's
// P_acc constant).
func (ep *Endpoint) amoCommon(a Addr, op AmoOp, o1, o2 uint64) (old uint64, comp timing.Time) {
	ep.paceOp()
	rt := ep.route(a)
	reg, pr, same := rt.reg, rt.pr, rt.same
	ep.clock += timing.Time(pr.InjectNs)
	xfer := ep.xferNs(rt, 8)
	var land, base, free timing.Time
	if rm := reg.rmt; rm != nil {
		src, prev := ep.word[:8], ep.word[8:]
		binary.LittleEndian.PutUint64(src, o1)
		reg.check(a.Off, 8)
		land, base, free = rm.Amo(op, a.Off, src, o2, prev, ep.clock, ep.nicFree, !same, pr.PutLatNs, xfer)
		old = binary.LittleEndian.Uint64(prev)
	} else {
		old, land, base, free = ep.exec(reg).AmoWord(op, a.Off, o1, o2, ep.clock, ep.nicFree, !same, pr.PutLatNs, xfer)
	}
	if !same {
		ep.nicFree = free
	}
	ep.ctr.Amos++
	return old, timing.Max(land, base+timing.Time(pr.AmoNs))
}

// FetchOp atomically applies op with operand v to the remote word and
// returns the old value (blocking: fetching AMOs return data).
func (ep *Endpoint) FetchOp(a Addr, op AmoOp, v uint64) uint64 {
	old, comp := ep.amoCommon(a, op, v, 0)
	ep.AdvanceTo(comp)
	return old
}

// FetchOpNB issues a fetching atomic without blocking: the previous value is
// returned immediately (the simulation resolves it at issue), and the handle
// completes when the reply would physically arrive. Protocols pipeline
// independent fetching AMOs with it (e.g. PSCW post acquires all k
// matching-list slots in one round trip).
func (ep *Endpoint) FetchOpNB(a Addr, op AmoOp, v uint64) (uint64, Handle) {
	old, comp := ep.amoCommon(a, op, v, 0)
	return old, Handle{comp: comp}
}

// FetchAdd atomically adds delta to the remote word and returns the old
// value.
func (ep *Endpoint) FetchAdd(a Addr, delta uint64) uint64 { return ep.FetchOp(a, AmoSum, delta) }

// CompareSwap atomically compares-and-swaps the remote word, returning the
// value held before the operation.
func (ep *Endpoint) CompareSwap(a Addr, compare, swap uint64) uint64 {
	old, comp := ep.amoCommon(a, AmoCas, compare, swap)
	ep.AdvanceTo(comp)
	return old
}

// AddNBI issues a non-fetching atomic add with implicit completion.
func (ep *Endpoint) AddNBI(a Addr, delta uint64) {
	_, comp := ep.amoCommon(a, AmoSum, delta, 0)
	ep.implicitMax = timing.Max(ep.implicitMax, comp)
}

// StoreW atomically stores an 8-byte word remotely: a one-word NBI put, the
// flag-update primitive of all synchronization protocols. It is priced as a
// flag, not a payload — no XPMEM copy charge, no small-message knee.
func (ep *Endpoint) StoreW(a Addr, v uint64) {
	ep.paceOp()
	rt := ep.route(a)
	reg, pr, same := rt.reg, rt.pr, rt.same
	reg.checkWords(a.Off, 8)
	ep.clock += timing.Time(pr.InjectNs)
	xfer := ep.xferNs(rt, 8)
	arrival := ep.xferArrival(same, ep.clock, pr.PutLatNs, xfer)
	if reg.rmt == nil {
		comp := ep.exec(reg).PutWord(a.Off, v, !same, arrival, xfer)
		ep.implicitMax = timing.Max(ep.implicitMax, comp)
	} else {
		// The completion folds into implicitMax when the window drains
		// (Gsync drains first; Max is commutative, so the deferral cannot
		// change the fold's result).
		src := ep.word[:8]
		binary.LittleEndian.PutUint64(src, v)
		reg.rmt.Put(a.Off, src, !same, arrival, xfer, &ep.implicitMax, true)
	}
	ep.ctr.Puts++
	ep.ctr.BytesPut += 8
}

// LoadW atomically reads a remote 8-byte word (blocking get of one word).
// Like every other remote operation it runs through the pacing discipline
// (pace publishes the clock), so paced workloads that poll via LoadW cannot
// run ahead of the pacing window.
func (ep *Endpoint) LoadW(a Addr) uint64 {
	ep.paceOp()
	rt := ep.route(a)
	rt.reg.checkWords(a.Off, 8)
	v, comp := ep.getWord(rt, a.Off, ep.clock+timing.Time(rt.pr.InjectNs))
	ep.clock = comp
	ep.ctr.Gets++
	ep.ctr.BytesGot += 8
	return v
}

// getWord reads the word at off of rt's region with a one-word Get that
// books no NIC, whatever the locality: it completes at max(clockIn, the
// word's stamp) + GetLatNs + the word's transfer time.
func (ep *Endpoint) getWord(rt *route, off int, clockIn timing.Time) (uint64, timing.Time) {
	reg := rt.reg
	tail := rt.pr.GetLatNs + ep.xferNs(rt, 8)
	if rm := reg.rmt; rm != nil {
		dst := ep.word[:8]
		comp := rm.Get(dst, off, clockIn, false, tail, 0)
		return binary.LittleEndian.Uint64(dst), comp
	}
	return RegionExec{Reg: reg}.GetWord(off, clockIn, false, tail, 0)
}

// Gsync completes all implicit-nonblocking operations (DMAPP bulk
// completion): the foMPI flush primitive. It drains the wire window first,
// so every deferred completion has folded into implicitMax before the clock
// reads it.
func (ep *Endpoint) Gsync() {
	ep.ctr.Gsyncs++
	ep.drainWire()
	ep.clock = timing.Max(ep.clock+timing.Time(ep.cm.Inter.GsyncNs), ep.implicitMax)
}

// GsyncLocal completes implicit operations locally only (source buffers
// reusable; remote completion not guaranteed). In the simulation source
// data is captured at issue time, so this charges only the call overhead.
func (ep *Endpoint) GsyncLocal() {
	ep.ctr.Gsyncs++
	ep.clock += timing.Time(ep.cm.Inter.GsyncNs)
}

// MemSync models a processor memory fence (MPI_Win_sync).
func (ep *Endpoint) MemSync() {
	ep.ctr.Syncs++
	ep.clock += timing.Time(ep.cm.Intra.SyncNs)
}

// Wait blocks until the explicit-nonblocking operation completes, draining
// the wire window first when the handle's completion is still in flight.
func (ep *Endpoint) Wait(h Handle) {
	if h.pend != nil {
		ep.drainWire()
		ep.AdvanceTo(*h.pend)
		return
	}
	ep.AdvanceTo(h.comp)
}

// Test reports whether h has completed by the rank's current virtual time.
func (ep *Endpoint) Test(h Handle) bool {
	if h.pend != nil {
		ep.drainWire()
		return *h.pend <= ep.clock
	}
	return h.comp <= ep.clock
}

// WaitLocal blocks the goroutine until pred holds. Writers to this rank's
// regions ring its doorbell, so no busy spinning occurs; the wire drains
// first, so a posted put has landed before this rank parks on a reply to
// it. The caller is
// responsible for merging the stamps of the words that satisfied pred
// (MergeStamp) — polls charge PollNs once on success.
func (ep *Endpoint) WaitLocal(pred func() bool) {
	ep.drainWire()
	gen := ep.fab.DoorGen(ep.rank)
	for !pred() {
		gen = ep.fab.WaitDoor(ep.rank, gen)
		ep.ctr.Polls++
	}
	ep.clock += timing.Time(ep.cm.Intra.PollNs)
}

// MergeStamp raises the clock to the latest stamp in [off, off+n) of reg.
func (ep *Endpoint) MergeStamp(reg *Region, off, n int) {
	ep.AdvanceTo(reg.StampMax(off, n))
}

// PollRemoteWord blocks until pred holds for the remote word, re-reading it
// with ideal exponential back-off (one round trip charged on success, as the
// paper's protocols assume congestion-free retries).
func (ep *Endpoint) PollRemoteWord(a Addr, pred func(uint64) bool) uint64 {
	ep.drainWire()
	rt := *ep.route(a) // a copy: pred may issue, and take the memo slot
	rt.reg.checkWords(a.Off, 8)
	gen := ep.fab.DoorGen(a.Rank)
	for {
		v, comp := ep.getWord(&rt, a.Off, ep.clock)
		if pred(v) {
			ep.clock = comp
			ep.ctr.Gets++
			ep.ctr.BytesGot += 8
			return v
		}
		ep.ctr.Polls++
		gen = ep.fab.WaitDoor(a.Rank, gen)
	}
}

// Counters tallies fabric operations issued by an endpoint. The instruction
// count experiment (DESIGN.md xtra-instr) reports these per critical path.
type Counters struct {
	Puts, Gets, Amos int64
	// Notifies counts notification words delivered (riders and bare). A
	// bare Notify also counts as a Put — it is its own wire operation —
	// while a fused rider shares its data op's descriptor.
	Notifies           int64
	Gsyncs, Syncs      int64
	Polls              int64
	BytesPut, BytesGot int64
	SoftSteps          int64
	// RouteMisses counts addresses the route memo did not serve: first use
	// of a (rank, key), a slot lost to a colliding pair, a retired handle.
	RouteMisses int64
}

// Sub returns c - o field-wise (for windowed measurements).
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Puts: c.Puts - o.Puts, Gets: c.Gets - o.Gets, Amos: c.Amos - o.Amos,
		Notifies: c.Notifies - o.Notifies,
		Gsyncs:   c.Gsyncs - o.Gsyncs, Syncs: c.Syncs - o.Syncs, Polls: c.Polls - o.Polls,
		BytesPut: c.BytesPut - o.BytesPut, BytesGot: c.BytesGot - o.BytesGot,
		SoftSteps:   c.SoftSteps - o.SoftSteps,
		RouteMisses: c.RouteMisses - o.RouteMisses,
	}
}

// RemoteOps returns the number of remote operations issued.
func (c Counters) RemoteOps() int64 { return c.Puts + c.Gets + c.Amos }

// CompTime returns the operation's virtual completion time
// (instrumentation). The handle of a put to a proxy holds it only once the
// window has drained — after Wait(h) or any other blocking point.
func (h Handle) CompTime() timing.Time {
	if h.pend != nil {
		return *h.pend
	}
	return h.comp
}
