package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"fompi/internal/apps/stencil"
	"fompi/internal/core"
	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/telemetry"
)

// The script is the one program every workload runs: rank 0 (the origin)
// drives a closed loop of RMA ops against the workload's target ranks, then
// the whole world runs the synchronisation and halo kinds. Kinds run as
// blocks interleaved round-robin, one block of each kind per round, so
// drift in the host (frequency, other tenants) spreads over all kinds
// instead of landing on whichever ran last.

type kind int

const (
	kPut kind = iota
	kGet
	kAmo
	kNotify
	kRate
	kBw
	kFence
	kLockAll
	kColl
	kHalo
	// Kinds below run only in a traced run (-trace 1).
	kBarrier
	kAllreduce
	kWinAlloc
	kEpPut
	kEpGet
	kEpAmo
	kSweepPut // 7 kinds, one per sweep size
	kSweepGet = kSweepPut + numSweep
	// The pair op of a two-target world split into its two routes.
	kPutFirst = kSweepGet + numSweep // put to targets[0] alone
	kPutLast  = kPutFirst + 1        // put to the last target alone
	numKinds  = kPutLast + 1
)

// Sweep sizes: 4 KiB to 256 KiB doubling, the upper half of the paper's
// Figure 4/5 range where stamp maintenance dominates.
const numSweep = 7

func sweepBytes(i int) int { return 4 << 10 << i }

// Window layout (bytes). Only the origin and its targets allocate the bulk
// area; bystander ranks expose the first smallWin bytes.
const (
	slots        = 512                           // 8-byte slots per small region
	getOff       = 0                             // read-only pattern, filled by the owner
	putOff       = getOff + slots*8              // put-latency landing slots
	rateOff      = putOff + slots*8              // pipelined-put landing slots
	amoOff       = rateOff + slots*8             // one counter word
	ntfOff       = amoOff + 64                   // the notified put's payload at a target
	fenceOff     = ntfOff + 64                   // fence-epoch verification word
	doneOff      = fenceOff + 64                 // the origin's "RMA kinds of round r are over" word
	spareOff     = 16 << 10                      // landing slots no check reads (single-route puts)
	smallWin     = 24 << 10                      // everything above fits
	bulkOff      = smallWin                      // bandwidth and sweep landing area
	bulkSize     = 256 << 10                     // the paper's bandwidth-convergence size (Fig. 4a)
	fullWin      = bulkOff + bulkSize            // origin and targets
	rateWin      = 64                            // 8-byte puts per flush in the rate kind (Fig. 5b)
	group        = 64                            // ops per timed group when one op is under fastNs
	tagPing      = uint32(1)                     // notify tags
	tagPong      = uint32(2)                     //
	fastNs       = 2000.0                        // ops faster than this are timed in groups
	epRegLen     = slots*8 + 8                   // endpoint-level probe region: slots + one AMO word
	blockNs      = float64(4 * time.Millisecond) // calibration target for one block
	windowBudget = 420                           // windows (two registrations each) one script world may create
)

// step is one exported call of an op. In a traced round each step with a
// name becomes a span under the op's span.
type step struct {
	name string // the call wrapped; empty for the benchmark's own checks
	fn   func(i int)
	// once marks a completion call: when a group of ops is traced as one
	// span per step, it runs once for the group instead of once per op.
	once bool
}

// kindDef describes how each role executes one kind.
type kindDef struct {
	name   string
	origin []step              // rank 0, timed
	others []step              // every other participating rank, untimed
	who    func(rank int) bool // which non-origin ranks run others; nil = none
	after  func()              // verification after a block by every rank that ran it, untimed
	n0     int                 // ops in the fixed-size prefix block
	minN   int                 // calibrated block size bounds
	maxN   int
	mult   int  // ops are always timed in groups of this many (0 = no)
	fast   bool // may be timed in groups when one op is under fastNs
	// whole makes the block the sample: barriers before and after the n ops
	// bound the time until the slowest rank is through, and that time
	// divided by n is recorded. The closing barrier is part of it, so such
	// blocks are sized twice as long as the others.
	whole  bool
	opsPer int  // what one timed op counts as in "attempted" (stencil: iterations)
	trace  bool // runs only in a traced run
	// makesWindow marks a kind whose every op creates a window. Registration
	// keys are never reused and the arena backends hold 1024 per rank, so in
	// a cross-process world such kinds share a budget and sit out once it is
	// spent.
	makesWindow bool
}

// scriptCfg is what the launcher tells a script world.
type scriptCfg struct {
	Seed    int64
	Seconds float64 // measured time after the prefix
	Trace   bool
	Quick   bool // smoke test: tiny blocks
}

// worldOut is what rank 0 of a world hands back to the launcher.
type worldOut struct {
	ReadyUnixNano int64              // rank 0 past Allocate + first Barrier
	Metrics       map[string]float64 // end-to-end or per-layer values this world measured
	Attempted     int64
	Failed        int64
	PrefixVClock  int64 // rank 0's virtual clock after the fixed-size prefix
	Notes         []string
	Spans         []span
	SpansDropped  int64
	Layers        []layerRow

	launchedUnixNano int64 // set by the launcher: the instant before spmd.Run
}

// layerRow is one row of the per-layer table of a traced run.
type layerRow struct {
	Op    string  `json:"op"`
	Layer string  `json:"layer"`
	Ns    float64 `json:"ns"`
}

type script struct {
	p    *spmd.Proc
	wl   *workload
	cfg  scriptCfg
	rank int
	w    *core.Win
	mem  []byte
	rng  *rand.Rand

	defs    [numKinds]kindDef
	n       [numKinds]int           // ops per block
	grp     [numKinds]int           // ops per timed group on the origin
	budget  [numKinds]time.Duration // time after which an origin-only block stops early
	target  [numKinds]time.Duration // what one block should take
	next    [numKinds]int           // origin: size of the next block of a shared kind
	windows int                     // origin: windows the makesWindow kinds have created
	ser     [numKinds]series        // plain rounds
	serT    [numKinds]series        // traced rounds
	tr      *tracer                 // origin: the run's tracer, created at the first traced round

	plainRounds, tracedRounds int // timed rounds run so far
	// rma is false in the timed rounds of an untraced run that measures no
	// RMA kind: the targets then go straight to the world kinds.
	rma bool

	failed int64

	countAllocs bool   // true through window creation and the prefix
	allocs      uint64 // heap objects allocated inside the brackets

	// Origin state.
	word      [8]byte
	slotSeq   []int    // per-block offset stream
	valSeq    []uint64 // per-block value stream
	putShad   []uint64 // last value put per slot (same to every target)
	rateShad  []uint64
	pattern   [][]uint64 // per target: its read-only get region
	getBuf    []byte
	bulkSrc   []byte
	bulkDst   []byte
	amoCount  uint64
	ntfSeq    uint64
	rmaRounds uint64 // rounds whose RMA kinds this rank is through
	collSeq   uint64
	fenceSeq  uint64

	// Endpoint-level probe state (traced run).
	epReg *simnet.Region
	epAmo uint64

	halo    stencil.Params
	haloRef float64 // reference checksum, known once the prefix is over
	haloSum float64 // checksum of the latest solve
	haloVT  series  // virtual µs per sweep, context only

	// Telemetry counters read at block boundaries, and the per-layer values
	// derived from them and from the direct probes.
	doorRings, netBatches *telemetry.Counter
	segCtrs               []*telemetry.Counter
	layerCtr              map[string]float64
}

func patternWord(seed int64, rank, slot int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(rank)*0xbf58476d1ce4e5b9 + uint64(slot)*0x94d049bb133111eb + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (s *script) isOrigin() bool { return s.rank == 0 }

func everyone(int) bool { return true }

// heapAllocs reads the process's cumulative heap object allocations. It
// stops the world to flush the per-P caches, so the count is exact; callers
// keep it out of timed regions.
func heapAllocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// runScript is the body of a script world, executed by every rank.
func runScript(p *spmd.Proc, wl *workload, cfg scriptCfg, out *worldOut) {
	s := &script{p: p, wl: wl, cfg: cfg, rank: p.Rank(), rma: true, layerCtr: map[string]float64{},
		doorRings: telemetry.NewCounter("door.rings"), netBatches: telemetry.NewCounter("net.batches")}
	for _, name := range []string{"seg.put", "seg.put_scrubbed", "seg.recycle", "seg.recycle_scrubbed"} {
		s.segCtrs = append(s.segCtrs, telemetry.NewCounter(name))
	}
	s.countAllocs = true
	a0 := s.allocMark()
	s.w, s.mem = openWindow(p, wl, cfg.Seed)
	s.allocDone(a0)
	if s.isOrigin() {
		out.ReadyUnixNano = time.Now().UnixNano()
	}
	if cfg.Trace {
		s.epReg = p.EP().Register(epRegLen)
		p.Barrier()
	}
	s.setup()

	// Fixed-size prefix: warm-up, calibration input, the allocation region
	// and the cross-backend virtual-time fixed point all at once.
	for k := range s.defs {
		s.n[k], s.grp[k] = s.defs[k].n0, max(1, s.defs[k].mult)
	}
	out.PrefixVClock = s.round(false)
	s.countAllocs = false
	prefixOps := int64(0)
	if s.isOrigin() {
		for k := range s.defs {
			prefixOps += s.ser[k].ops
		}
	}
	allocs := s.allocs
	if !wl.inproc() {
		allocs = p.Allreduce8(spmd.OpSum, allocs)
	}
	// The stencil's reference solve runs after the prefix (it is a collective
	// of its own and must not sit inside the fixed point), so the prefix's
	// sweeps are checked against it here.
	s.haloRef = stencil.RunReference(p, s.halo)
	if math.Abs(s.haloSum-s.haloRef) > 1e-9*math.Max(1, math.Abs(s.haloRef)) {
		s.failed++
	}
	s.calibrate()

	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for r := 0; s.nextRound(time.Now().Before(deadline)); r++ {
		// One round in four of a traced run records spans; the other three
		// are the plain rounds its typical values and tails come from.
		if traced := cfg.Trace && r%4 == 3; traced {
			s.round(true)
			s.tracedRounds++
		} else {
			s.round(false)
			s.plainRounds++
		}
	}
	telemetry.SetEnabled(false)
	if cfg.Trace {
		s.gatherTelemetry()
		s.transportProbes()
	}

	// Final state: every target's counter word holds exactly the fetch-ops
	// issued against it.
	if s.isOrigin() {
		s.w.LockAll()
		for _, t := range wl.targets {
			if got := s.w.FetchAndOp(core.AccNoOp, 0, t, amoOff); got != s.amoCount {
				s.failed++
			}
		}
		s.w.UnlockAll()
	}
	failed := p.Allreduce8(spmd.OpSum, uint64(s.failed))
	if s.isOrigin() {
		out.Failed = int64(failed)
		s.report(out, ratio(float64(allocs), float64(prefixOps)))
	}
	if s.epReg != nil {
		p.Barrier()
		p.EP().Unregister(s.epReg)
	}
	s.w.Free()
}

// setup builds the kind table and the origin's buffers.
func (s *script) setup() {
	w, p, wl := s.w, s.p, s.wl
	tg := wl.targets
	s.rng = rand.New(rand.NewPCG(uint64(s.cfg.Seed), 0x5eed))
	s.halo = stencil.Params{NX: 64, NY: 32, Iters: 20, Seed: s.cfg.Seed | 1}
	if s.isOrigin() {
		s.putShad = make([]uint64, slots)
		s.rateShad = make([]uint64, slots)
		s.getBuf = make([]byte, slots*8)
		s.bulkSrc = make([]byte, bulkSize)
		s.bulkDst = make([]byte, bulkSize)
		for i := 0; i < bulkSize; i += 8 {
			binary.LittleEndian.PutUint64(s.bulkSrc[i:], patternWord(s.cfg.Seed, -1, i))
		}
		for _, t := range tg {
			pat := make([]uint64, slots)
			for i := range pat {
				pat[i] = patternWord(s.cfg.Seed, t, i)
			}
			s.pattern = append(s.pattern, pat)
		}
	}
	flush := step{name: "core.Win.Flush", once: true, fn: func(int) { w.Flush(tg[0]) }}

	// checkSlots reads a landing region back from every target and counts
	// the words that differ from the origin's shadow copy.
	checkSlots := func(off int, shadow []uint64) {
		for _, t := range tg {
			w.Get(s.getBuf, t, off)
			w.Flush(t)
			for i, want := range shadow {
				if binary.LittleEndian.Uint64(s.getBuf[8*i:]) != want {
					s.failed++
				}
			}
		}
	}
	putTo := func(off int, shadow []uint64) func(int) {
		return func(i int) {
			binary.LittleEndian.PutUint64(s.word[:], s.valSeq[i])
			for _, t := range tg {
				w.Put(s.word[:], t, off+8*s.slotSeq[i])
			}
			shadow[s.slotSeq[i]] = s.valSeq[i]
		}
	}

	s.defs[kPut] = kindDef{name: "put", n0: 32, minN: 16, maxN: 4096, fast: true,
		origin: []step{{name: "core.Win.Put", fn: putTo(putOff, s.putShad)}, flush},
		after:  func() { checkSlots(putOff, s.putShad) }}

	s.defs[kGet] = kindDef{name: "get", n0: 32, minN: 16, maxN: 4096, fast: true,
		origin: []step{
			{name: "core.Win.Get", fn: func(i int) {
				for j, t := range tg {
					w.Get(s.getBuf[(i%group*len(tg)+j)*8:][:8], t, getOff+8*s.slotSeq[i])
				}
			}},
			flush,
			{fn: func(i int) {
				for j := range tg {
					if binary.LittleEndian.Uint64(s.getBuf[(i%group*len(tg)+j)*8:]) != s.pattern[j][s.slotSeq[i]] {
						s.failed++
					}
				}
			}},
		}}

	s.defs[kAmo] = kindDef{name: "amo", n0: 32, minN: 16, maxN: 4096, fast: true,
		origin: []step{{name: "core.Win.FetchAndOp", fn: func(int) {
			for _, t := range tg {
				if old := w.FetchAndOp(core.AccSum, 1, t, amoOff); old != s.amoCount {
					s.failed++
				}
			}
			s.amoCount++
		}}}}

	// Notified ping-pong: a notified 8-byte put carrying the op's sequence
	// number out, a bare notification back. The target checks what landed
	// before answering; the origin checks the sequence number the answer
	// carries. The target needs no epoch for either call.
	// With two targets the exchanges run one after the other: two answers
	// racing for slots in the origin's ring would make virtual time depend
	// on which won.
	ping := []step{{fn: func(int) {
		s.ntfSeq++
		binary.LittleEndian.PutUint64(s.word[:], s.ntfSeq)
	}}}
	for _, t := range tg {
		ping = append(ping,
			step{name: "core.Win.PutNotify", fn: func(int) { w.PutNotify(s.word[:], t, ntfOff, tagPing) }},
			step{name: "core.Win.WaitNotify", fn: func(int) {
				if uint64(w.WaitNotify(tagPong)) != s.ntfSeq {
					s.failed++
				}
			}})
	}
	s.defs[kNotify] = kindDef{name: "notify", n0: 32, minN: 8, maxN: 2048,
		who: wl.isTarget, origin: ping,
		others: []step{{fn: func(int) {
			s.ntfSeq++
			w.WaitNotify(tagPing)
			if binary.LittleEndian.Uint64(s.mem[ntfOff:]) != s.ntfSeq {
				s.failed++
			}
			w.Notify(0, tagPong)
		}}}}

	s.defs[kRate] = kindDef{name: "rate", n0: 2 * rateWin, minN: rateWin, maxN: 64 * rateWin, mult: rateWin,
		origin: []step{
			{name: "core.Win.Put", fn: putTo(rateOff, s.rateShad)},
			{name: "core.Win.Flush", once: true, fn: func(i int) {
				if i%rateWin == rateWin-1 {
					w.Flush(tg[0])
				}
			}},
		},
		after: func() { checkSlots(rateOff, s.rateShad) }}

	s.defs[kBw] = kindDef{name: "bw", n0: 4, minN: 4, maxN: 256,
		origin: []step{
			{name: "core.Win.Put", fn: func(i int) {
				binary.LittleEndian.PutUint64(s.bulkSrc, s.valSeq[i])
				for _, t := range tg {
					w.Put(s.bulkSrc, t, bulkOff)
				}
			}},
			flush,
		},
		after: func() {
			for _, t := range tg {
				w.Get(s.bulkDst, t, bulkOff)
				w.Flush(t)
				if !bytes.Equal(s.bulkDst, s.bulkSrc) {
					s.failed++
				}
			}
		}}

	// Fence: n bare fences, then one checked epoch in which every rank puts
	// the block's sequence number to its right neighbour.
	fenceCheck := func() {
		s.fenceSeq++
		binary.LittleEndian.PutUint64(s.word[:], s.fenceSeq)
		w.Put(s.word[:], (s.rank+1)%p.Size(), fenceOff)
		w.Fence()
		if binary.LittleEndian.Uint64(s.mem[fenceOff:]) != s.fenceSeq {
			s.failed++
		}
	}
	fence := []step{{name: "core.Win.Fence", fn: func(int) { w.Fence() }}}
	s.defs[kFence] = kindDef{name: "fence", n0: 16, minN: 4, maxN: 2048, fast: true,
		who: everyone, origin: fence, others: fence, after: fenceCheck}

	// Rank 0 hosts the global lock word, so its own lock_all is local and
	// says nothing about the world's: the sample is the world's time.
	lockAll := []step{
		{name: "core.Win.LockAll", fn: func(int) { w.LockAll() }},
		{name: "core.Win.FlushAll", fn: func(int) { w.FlushAll() }},
		{name: "core.Win.UnlockAll", fn: func(int) { w.UnlockAll() }},
	}
	s.defs[kLockAll] = kindDef{name: "lockall", n0: 16, minN: 4, maxN: 4095, whole: true,
		who: everyone, origin: lockAll, others: lockAll}

	var red uint64
	coll := []step{
		{name: "spmd.Proc.Allreduce8", fn: func(int) {
			s.collSeq++
			red = p.Allreduce8(spmd.OpSum, uint64(s.rank)+s.collSeq)
		}},
		{name: "spmd.Proc.Barrier", fn: func(int) { p.Barrier() }},
		{fn: func(int) {
			n := uint64(p.Size())
			if red != n*(n-1)/2+n*s.collSeq {
				s.failed++
			}
		}},
	}
	s.defs[kColl] = kindDef{name: "coll", n0: 16, minN: 4, maxN: 2048, fast: true,
		who: everyone, origin: coll, others: coll}

	halo := []step{{name: "stencil.RunNotify", fn: func(int) {
		res := stencil.RunNotify(p, s.halo)
		if s.haloSum = res.Checksum; s.haloRef != 0 && math.Abs(s.haloSum-s.haloRef) > 1e-9*math.Max(1, math.Abs(s.haloRef)) {
			s.failed++
		}
		s.haloVT.add(res.Elapsed.Micros()/float64(s.halo.Iters), 1)
	}}}
	s.defs[kHalo] = kindDef{name: "halo", n0: 1, minN: 1, maxN: 64, opsPer: s.halo.Iters, makesWindow: true,
		who: everyone, origin: halo, others: halo}

	s.setupTraced()
	for k := range s.defs {
		if s.defs[k].opsPer == 0 {
			s.defs[k].opsPer = 1
		}
	}
}

// round runs one block of every active kind: first the RMA kinds, which
// only the origin drives, under exclusive locks on its targets; then the
// kinds the whole world takes part in. The fence comes first among those:
// rank 0's virtual clock up to and including it depends on no host-time
// ordering, which is what lets the prefix serve as a cross-backend fixed
// point. From the collectives on, ranks race in host time (the order of
// arrival at Allreduce8 moves the clock by 71 or 487 ns under the race
// detector's timing, lock_all's global counter and the stencil always).
func (s *script) round(traced bool) (vclock int64) {
	telemetry.SetEnabled(traced)
	if traced && s.isOrigin() && s.tr == nil {
		s.tr = newTracer()
	}
	if s.isOrigin() && s.rma {
		for _, t := range s.wl.targets {
			s.w.Lock(core.LockExclusive, t)
		}
	}
	for _, k := range rmaKinds {
		s.block(k, traced)
	}
	s.rmaRounds++
	switch {
	case !s.rma:
		// No RMA kind is being measured: nothing to lock, nobody to wait for.
	case s.isOrigin():
		// An atomic replace, not a put: the target reads the word with an
		// atomic load while it lands.
		for _, t := range s.wl.targets {
			s.w.FetchAndOp(core.AccReplace, s.rmaRounds, t, doneOff)
			s.w.Unlock(t)
		}
	case s.wl.isTarget(s.rank):
		// A target parked on its doorbell would be rung, and on the arena
		// backends woken by a system call, for every put: whether an op pays
		// that would depend on where the target's last wake-up left it. So
		// after its side of the notify kind a target sleeps instead, polling
		// the word the origin writes last.
		done := (*uint64)(unsafe.Pointer(&s.mem[doneOff]))
		for atomic.LoadUint64(done) < s.rmaRounds {
			time.Sleep(500 * time.Microsecond)
		}
	}
	for _, k := range worldKinds {
		if k == kColl {
			vclock = int64(s.p.Now()) // the first racy kind: the fixed point ends here
		}
		s.block(k, traced)
	}
	return vclock
}

// rmaKinds and worldKinds fix the order of a round.
var (
	rmaKinds   = rmaKindList()
	worldKinds = []kind{kFence, kColl, kBarrier, kAllreduce, kWinAlloc, kLockAll, kHalo}
)

func rmaKindList() []kind {
	ks := []kind{kNotify, kPut, kGet, kAmo, kRate, kBw, kEpPut, kEpGet, kEpAmo, kPutFirst, kPutLast}
	for i := 0; i < numSweep; i++ {
		ks = append(ks, kSweepPut+kind(i), kSweepGet+kind(i))
	}
	return ks
}

// block runs one block of kind k in this rank's role.
func (s *script) block(k kind, traced bool) {
	d := &s.defs[k]
	if d.name == "" || (d.trace && !s.cfg.Trace) {
		return
	}
	n := s.n[k]
	if n == 0 {
		return
	}
	if d.whole {
		s.p.Barrier()
	}
	t0 := time.Now()
	if !s.isOrigin() {
		if d.who == nil || !d.who(s.rank) {
			return
		}
		a0 := s.allocMark()
		for i := 0; i < n; i++ {
			for _, st := range d.others {
				st.fn(i)
			}
		}
		s.allocDone(a0)
	} else {
		s.slotSeq, s.valSeq = s.slotSeq[:0], s.valSeq[:0]
		for i := 0; i < n; i++ {
			s.slotSeq = append(s.slotSeq, s.rng.IntN(slots))
			s.valSeq = append(s.valSeq, s.rng.Uint64())
		}
		ser := &s.ser[k]
		if traced {
			ser = &s.serT[k]
		}
		if d.whole {
			ser = &series{} // the origin's own times are not the sample
		}
		if cap(ser.all) == 0 {
			ser.all = make([]float64, 0, 4096) // no growth inside the brackets
		}
		before := s.snapCounters(k, traced)
		a0 := s.allocMark()
		t0 = time.Now()
		if traced {
			n = s.runTraced(k, n, ser)
		} else {
			n = s.runTimed(k, n, ser)
		}
		s.allocDone(a0)
		if !d.whole {
			s.resize(k, n, time.Since(t0))
		}
		s.diffCounters(k, traced, n, before)
		if !d.whole {
			ser.closeBlock()
		}
	}
	if d.whole {
		s.p.Barrier()
		if s.isOrigin() {
			ser := &s.ser[k]
			if traced {
				ser = &s.serT[k]
			}
			ser.add(float64(time.Since(t0))/float64(n), n)
			ser.closeBlock()
			s.resize(k, n, time.Since(t0))
		}
	}
	if d.after != nil {
		d.after()
	}
}

// allocMark and allocDone bracket the library calls whose heap allocations
// allocs_per_op counts: window creation and the op loops of the prefix, not
// the benchmark's own bookkeeping between them. Ranks of an in-process
// world share one heap, so there the origin's brackets — which the other
// ranks' work overlaps — stand for the world.
func (s *script) allocMark() uint64 {
	if !s.countAllocs || (s.wl.inproc() && !s.isOrigin()) {
		return 0
	}
	return heapAllocs()
}

func (s *script) allocDone(mark uint64) {
	if !s.countAllocs || (s.wl.inproc() && !s.isOrigin()) {
		return
	}
	s.allocs += heapAllocs() - mark
}

// runTimed times up to n ops of kind k, singly or in groups, with no spans,
// and returns how many it ran: a kind only the origin runs stops once its
// block has used its time, however the op's cost has moved since the prefix
// (an mp put costs a system call only while the target is parked).
func (s *script) runTimed(k kind, n int, ser *series) int {
	d, g := &s.defs[k], s.grp[k]
	start := time.Now()
	for i := 0; i < n; i += g {
		if s.budget[k] > 0 && i > 0 && time.Since(start) > s.budget[k] {
			return i
		}
		m := min(g, n-i)
		t0 := time.Now()
		for j := i; j < i+m; j++ {
			for _, st := range d.origin {
				st.fn(j)
			}
		}
		ser.add(float64(time.Since(t0))/float64(m), m)
	}
	return n
}

// runTraced is runTimed with a span around every op and every named step.
// When ops are grouped, each step runs for the whole group under one span
// (issue all, then complete once), so the timer is paid once per group.
func (s *script) runTraced(k kind, n int, ser *series) int {
	d, g, tr := &s.defs[k], s.grp[k], s.tr
	if d.who != nil {
		g = 1 // the other ranks run the steps op by op; regrouping would deadlock
	}
	start := time.Now()
	for i := 0; i < n; i += g {
		if s.budget[k] > 0 && i > 0 && time.Since(start) > s.budget[k] {
			return i
		}
		m := min(g, n-i)
		t0 := time.Now()
		tr.begin(d.name, m)
		for _, st := range d.origin {
			calls := m
			if st.once {
				calls = 1
			}
			if st.name != "" {
				tr.begin(st.name, calls)
			}
			if st.once && g > 1 {
				st.fn(i + m - 1)
			} else {
				for j := i; j < i+m; j++ {
					st.fn(j)
				}
			}
			if st.name != "" {
				tr.end()
			}
		}
		tr.end()
		ser.add(float64(time.Since(t0))/float64(m), m)
	}
	return n
}

// calibrate turns the prefix's timings into the steady-state block shapes:
// which kinds are fast enough to need grouped timing, how long a block may
// take, and a first size for the blocks other ranks count along with.
func (s *script) calibrate() {
	for k := range s.defs {
		d := &s.defs[k]
		if d.name == "" || !s.isOrigin() || len(s.ser[k].blockMeds) == 0 {
			s.ser[k] = series{}
			continue
		}
		per := s.ser[k].blockMeds[0]
		g := 1
		if per < fastNs && d.fast {
			g = group
		}
		if d.mult > 1 {
			g = d.mult
		}
		target := blockNs
		if d.whole {
			target *= 2
		}
		if s.cfg.Trace {
			target /= 4 // a traced run has six times the kinds to get through
		}
		s.target[k] = time.Duration(target)
		switch {
		case !s.cfg.Trace && !s.wl.measures(kind(k)):
			// An untraced run spends its measured time on the workload's own
			// kinds; the others ran in the prefix, for their checks.
			s.next[k] = 0
		case s.cfg.Quick:
			s.next[k] = d.minN
		case d.who == nil:
			// Nobody else counts along: the block is bounded by time alone.
			s.next[k], s.budget[k] = d.maxN, s.target[k]
		default:
			s.next[k] = max(d.minN, min(d.maxN, int(target/per)))
		}
		s.next[k] = (s.next[k] + g - 1) / g * g
		s.n[k], s.grp[k] = s.next[k], g
		s.ser[k], s.serT[k] = series{}, series{}
	}
	s.haloVT = series{}
	s.rma = s.cfg.Trace || slices.ContainsFunc(rmaKinds, s.wl.measures)
}

// sharedKinds are the kinds ranks other than the origin take part in, whose
// block sizes the whole world must agree on.
var sharedKinds = []kind{kNotify, kFence, kColl, kLockAll, kHalo, kBarrier, kAllreduce, kWinAlloc}

// nextRound tells every rank whether another round follows and, packed
// twelve bits each into the same two broadcasts, the sizes of its shared
// blocks. The origin re-sizes a shared block after every round from the
// time the last one took, so a kind whose cost moves with the world's state
// (lock_all contention, a parked peer) still fills its share of the round.
func (s *script) nextRound(more bool) bool {
	var w [2]uint64
	if s.isOrigin() {
		for i, k := range sharedKinds {
			if s.defs[k].makesWindow && !s.wl.inproc() {
				if s.windows += s.next[k]; s.windows > windowBudget {
					s.next[k] = 0
				}
			}
			s.n[k] = s.next[k]
			w[i/4] |= uint64(s.n[k]) << (12 * (i % 4))
		}
		// A world whose every kind has spent its budget is done early.
		if more && slices.ContainsFunc(s.n[:], func(n int) bool { return n > 0 }) {
			w[0] |= 1 << 63
		}
	}
	for i := range w {
		w[i] = s.p.Bcast8(0, w[i])
	}
	for i, k := range sharedKinds {
		s.n[k] = int(w[i/4] >> (12 * (i % 4)) & 0xfff)
	}
	return w[0]>>63 == 1
}

// resize sets a shared block's next size from how long n ops just took,
// moving at most a factor of two per round.
func (s *script) resize(k kind, n int, took time.Duration) {
	d := &s.defs[k]
	if d.who == nil || s.target[k] == 0 || s.cfg.Quick || took <= 0 {
		return
	}
	want := int(float64(n) * float64(s.target[k]) / float64(took))
	want = max(n/2, min(2*n, want))
	s.next[k] = max(d.minN, min(d.maxN, want))
}
