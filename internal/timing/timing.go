// Package timing provides the virtual-time primitives used by the simulated
// RDMA fabric. Every rank carries a logical clock (nanoseconds); remote
// memory words carry shadow timestamps so that causality (poll-until-flag,
// lock hand-off, counters) merges clocks deterministically regardless of the
// host's real scheduling. See DESIGN.md §6.
package timing

import (
	"sync/atomic"
	"time"

	"fompi/internal/hostatomic"
)

// Time is a virtual-time instant in nanoseconds since program start.
type Time int64

// FromDuration converts a wall-clock duration into a virtual duration.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Duration converts a virtual instant/interval back to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Micros reports t in microseconds as a float, the unit used by the paper's
// latency figures.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// BlockWords is the fan-out of the stamp tree, and so the width of its lowest
// summary level: one block is 8 words = 64 bytes of registered memory, and
// its eight stamps one cache line of shadow state.
//
// The fan-out trades stores for loads. Every record a writer publishes is a
// store or two (release stores, see record.go), every level a lookup climbs
// is one plain load, and a range unaligned at some level
// leaves up to BlockWords-1 records there on each side. At 8 a 16 KiB put
// 24 KiB into a window is 4 fills (32 at a fan-out of 64) and a word lookup
// in a 256 KiB window climbs 6 levels (3 at 64) — some 400 ns saved per such
// put for 3 ns per Get.
const BlockWords = 8

const blockShift = 3 // log2(BlockWords)

// subSlack rounds the epoch a filling SetRange raises sub to, above block
// level, up to the end of its stride of 16. sub is an upper bound, so
// overshooting is safe — at worst a reader descends a path it need not have
// — and the next 15 fills along the same path find sub high enough: a load
// per level in place of a CAS, about a quarter of a 16 KiB put's stamp cost.
const subSlack = 15

// level holds the nodes of one tree level as parallel arrays. A node's record
// is (fill stamp, fill epoch, highest epoch written strictly below it).
type level struct {
	fill   []int64  // stamp of the last SetRange that covered the node
	fEpoch []uint32 // epoch of that fill; 0 = never filled
	sub    []uint32 // upper bound on the epochs of writes to descendants; 0 = none
}

// Stamps tracks one shadow timestamp per 8-byte-aligned word of a registered
// memory region. All accesses are atomic: stamps are written by remote ranks
// concurrently with owner reads.
//
// The layout is a lazy-fill tree of fan-out BlockWords over the words, so a
// bulk transfer pays for the few aligned nodes its range decomposes into
// instead of one record per word or per block. Level 0 is the words
// themselves, each carrying (stamp, epoch); a node of level l ≥ 1 covers
// 8^l words and the top level is the root alone, so the depth follows from
// the region size (one level up to 64 B, two up to 512 B, ... six up to
// 2 MiB). SetRange records (stamp, epoch) once in every maximal node its
// range covers and in the words of the sub-block edges; a word's effective
// stamp is the record with the highest epoch on its root-to-leaf path, the
// word's own record winning a tie.
//
// Epochs come from one per-Stamps counter. A SetRange that fills at least one
// node takes a fresh epoch, so it supersedes every earlier write beneath the
// nodes it fills without touching them; a write that touches only words
// samples the counter, so it ties with — and beats — the last fill and loses
// to any later one. One SetRange never writes a node and something beneath
// it, so a tie on a path is always a word against an older fill. The counter
// starts at 1: a zero epoch anywhere means "never written", which is what
// Reset and DirtyBlocks skip on.
//
// sub lets range queries stop early: when it is below the newest fill epoch
// on the path down to a node, nothing beneath the node postdates that fill,
// so every word there carries the fill's stamp and MaxRange reads one value
// for the whole subtree. Writers raise sub on a write's ancestors root first
// and before the write itself, which keeps "a node's sub ≥ e implies its
// ancestors' sub ≥ e" true at every instant — the invariant that lets Set
// check only the block's sub — and means a reader ordered after a completed
// write finds its way down to it. Being a bound, sub may overshoot (see
// subSlack); a block's sub never does, so Set's check stays exact.
//
// Concurrent writers to the same word race exactly as they did with a flat
// one-word-one-slot layout: last writer wins, and a reader may observe
// either side of an in-flight write. Read-modify-stamp sequences — atomics
// chaining through their word's stamp — are serialized above this package,
// by the owning rank's simnet.Port. Sequential (protocol-ordered) histories
// are observationally identical to the flat layout; TestStampsEquivalence
// checks that property against a reference implementation.
type Stamps struct {
	words  []int64  // per-word stamp
	wEpoch []uint32 // per-word epoch of the last write to the word itself

	// lv[l-1] is level l; the last entry is the root. The arrays are views
	// into the same two slabs as words and wEpoch.
	lv []level

	// epoch is the epoch source, stored biased by one (the all-zero slab is
	// the initial state, the first epoch handed out is 1). It lives in the
	// uint32 slab (not the struct) so that stamps laid over a shared memory
	// segment share one counter across the processes of a multi-process
	// world.
	epoch *uint32
}

// parents returns how many nodes the level above n nodes (or words) holds.
func parents(n int) int { return max(1, (n+BlockWords-1)>>blockShift) }

// treeShape returns the number of levels above the words and their total
// node count for a region of nw words. Every region has at least one level
// of at least one node, so the root always exists.
func treeShape(nw int) (levels, nodes int) {
	for n := nw; ; {
		n = parents(n)
		levels++
		nodes += n
		if n == 1 {
			return levels, nodes
		}
	}
}

// StampSlabLens returns the lengths of the two backing slabs — int64 words
// and uint32 words — that shadow stamps covering size bytes occupy. Backends
// that place stamps in shared memory carve slabs of exactly these lengths.
func StampSlabLens(size int) (n64, n32 int) {
	nw := (size + 7) / 8
	_, nodes := treeShape(nw)
	return nw + nodes, nw + 2*nodes + 1 // +1: the shared epoch word
}

// NewStamps creates shadow timestamps covering size bytes. Every array is a
// view into one of two backing slabs (one per element width) so a region's
// shadow state costs two slab allocations however deep its tree.
func NewStamps(size int) *Stamps {
	n64, n32 := StampSlabLens(size)
	return NewStampsOver(make([]int64, n64), make([]uint32, n32), size)
}

// NewStampsOver lays shadow timestamps covering size bytes over caller-
// provided backing slabs, which must have exactly the StampSlabLens lengths
// and be all zero (or hold a previous layout's state: every process of a
// multi-process world builds its own view over the same shared slabs, and
// all derive the same tree from size). The int64 slab must be 8-byte
// aligned, as atomic int64 access requires.
func NewStampsOver(i64 []int64, u32 []uint32, size int) *Stamps {
	n64, n32 := StampSlabLens(size)
	if len(i64) != n64 || len(u32) != n32 {
		panic("timing: stamp slab lengths do not match StampSlabLens")
	}
	nw := (size + 7) / 8
	levels, _ := treeShape(nw)
	s := &Stamps{
		words: i64[:nw:nw], wEpoch: u32[:nw:nw],
		lv:    make([]level, levels),
		epoch: &u32[n32-1],
	}
	p64, p32, n := nw, nw, nw
	for l := range s.lv {
		n = parents(n)
		s.lv[l] = level{
			fill:   i64[p64 : p64+n : p64+n],
			fEpoch: u32[p32 : p32+n : p32+n],
			sub:    u32[p32+n : p32+2*n : p32+2*n],
		}
		p64, p32 = p64+n, p32+2*n
	}
	return s
}

// span returns the word extent [lo, hi) of node idx of level l, clamped to
// the region (the last node of a level may be ragged).
func (s *Stamps) span(l, idx int) (lo, hi int) {
	lo = idx << (blockShift * l)
	return lo, min(lo+1<<(blockShift*l), len(s.words))
}

// children returns the index range [lo, hi) of the existing children of node
// idx of level l ≥ 1 (words when l is 1).
func (s *Stamps) children(l, idx int) (lo, hi int) {
	n := len(s.words)
	if l > 1 {
		n = len(s.lv[l-2].fill)
	}
	lo = idx << blockShift
	return lo, min(lo+BlockWords, n)
}

// Reset returns the stamps to the all-zero state so the shadow arrays can be
// recycled across worlds (see internal/segpool). It costs proportional to
// what was written: every write leaves a nonzero epoch in its own record and
// in sub of each ancestor, so a node with zero fEpoch and zero sub heads an
// untouched subtree and is skipped. The caller must guarantee no concurrent
// writers, as with any recycling.
func (s *Stamps) Reset() {
	s.resetNode(len(s.lv), 0)
	atomic.StoreUint32(s.epoch, 0)
}

func (s *Stamps) resetNode(l, idx int) {
	lv := &s.lv[l-1]
	sub := lv.sub[idx]
	if sub == 0 && lv.fEpoch[idx] == 0 {
		return
	}
	lv.fill[idx], lv.fEpoch[idx], lv.sub[idx] = 0, 0, 0
	if sub == 0 {
		return // filled, never written beneath
	}
	lo, hi := s.children(l, idx)
	if l == 1 {
		clear(s.words[lo:hi])
		clear(s.wEpoch[lo:hi])
		return
	}
	for c := lo; c < hi; c++ {
		s.resetNode(l-1, c)
	}
}

// DirtyBlocks calls fn for each extent that may have been stamped since the
// last Reset, passing its byte range [lo, hi) within the covered region: a
// whole filled node, or a block with a word write in it. Recyclers use it to
// wipe only the written parts of a backing buffer whose writers all follow
// the stamp discipline.
func (s *Stamps) DirtyBlocks(fn func(lo, hi int)) { s.dirtyNode(len(s.lv), 0, fn) }

func (s *Stamps) dirtyNode(l, idx int, fn func(lo, hi int)) {
	lv := &s.lv[l-1]
	sub := lv.sub[idx]
	if lv.fEpoch[idx] != 0 || (l == 1 && sub != 0) {
		lo, hi := s.span(l, idx)
		fn(lo*8, hi*8)
		return
	}
	if sub == 0 {
		return
	}
	lo, hi := s.children(l, idx)
	for c := lo; c < hi; c++ {
		s.dirtyNode(l-1, c, fn)
	}
}

// Bytes returns the registered size the stamps cover (for pool lookups).
func (s *Stamps) Bytes() int { return len(s.words) * 8 }

// touch announces a write at epoch e to words of block b by raising sub on
// the block and its ancestors, root first (see Stamps). In steady state —
// no fill since the block's last word write — it is one load.
func (s *Stamps) touch(b int, e uint32) {
	if atomic.LoadUint32(&s.lv[0].sub[b]) >= e {
		return
	}
	for l := len(s.lv) - 1; l >= 0; l-- {
		hostatomic.MaxU32(&s.lv[l].sub[b>>(blockShift*l)], e)
	}
}

// covers reports whether words [first, last] include all of node idx of
// level l.
func (s *Stamps) covers(first, last, l, idx int) bool {
	lo, hi := s.span(l, idx)
	return first <= lo && last >= hi-1
}

// Set records that the word containing byte offset off was written by an
// operation completing at t.
func (s *Stamps) Set(off int, t Time) {
	i := off / 8
	e := atomic.LoadUint32(s.epoch) + 1
	// No locked instruction when no fill intervened since the word's last
	// write: touch is a load, setWord one release store (two on the word's
	// first write at this epoch).
	s.touch(i>>blockShift, e)
	s.setWord(i, int64(t), e)
}

// WordRecord returns the stamp slot of the word at off when Set of it
// would be that one store — no fill since the word's last write, and its
// block's sub already raised — and nil otherwise. The caller release-stores
// the stamp there (hostatomic.StoreRel64), or calls Set on nil. It inlines.
func (s *Stamps) WordRecord(off int) *int64 {
	i := off / 8
	e := atomic.LoadUint32(s.epoch) + 1
	if atomic.LoadUint32(&s.wEpoch[i]) != e || atomic.LoadUint32(&s.lv[0].sub[i>>blockShift]) < e {
		return nil
	}
	return &s.words[i]
}

// SetRange stamps every word overlapping [off, off+n) with completion time t.
// The range decomposes into the maximal nodes it covers — at most
// 2·(BlockWords-1) per level, one when it is the whole region — each taking
// one record; only the sub-block edges pay per-word work.
func (s *Stamps) SetRange(off, n int, t Time) {
	if n <= 0 {
		return
	}
	first, last := off/8, (off+n-1)/8
	if first == last {
		s.Set(off, t)
		return
	}
	v := int64(t)
	// If the range covers any block it covers the first one that starts
	// inside it.
	b := (first + BlockWords - 1) >> blockShift
	if b >= len(s.lv[0].fill) || !s.covers(first, last, 1, b) {
		// Words only, of one block or two adjacent ones: no fill, so no
		// fresh epoch.
		e := atomic.LoadUint32(s.epoch) + 1
		s.touch(first>>blockShift, e)
		if last>>blockShift != first>>blockShift {
			s.touch(last>>blockShift, e)
		}
		for i := first; i <= last; i++ {
			s.setWord(i, v, e)
		}
		return
	}
	// Exhausting the 32-bit counter would make old epochs compare as current
	// again (silently stale stamps), so fault loudly first — it takes 2^32
	// filling SetRanges on one registration to get here.
	e := atomic.AddUint32(s.epoch, 1) + 1
	if e == 0 {
		panic("timing: stamp fill-epoch counter exhausted; re-register the region")
	}
	if top := len(s.lv); s.covers(first, last, top, 0) {
		s.fillNode(top, 0, v, e)
	} else {
		s.stampBelow(top, 0, first, last, v, e)
	}
}

// stampBelow writes (v, e) over the words of [first, last] beneath node idx
// of level l, which the range overlaps but does not cover: the children the
// range covers take a fill, the at most two it cuts recurse, and a block's
// words are written one by one. sub is raised on the way down, so ancestors
// are marked before anything beneath them is written.
func (s *Stamps) stampBelow(l, idx, first, last int, v int64, e uint32) {
	bound := e
	if l > 1 {
		bound |= subSlack
	}
	hostatomic.MaxU32(&s.lv[l-1].sub[idx], bound)
	shift := blockShift * (l - 1)
	lo, hi := s.children(l, idx)
	c0, c1 := max(first>>shift, lo), min(last>>shift, hi-1)
	if l == 1 {
		for i := c0; i <= c1; i++ {
			s.setWord(i, v, e)
		}
		return
	}
	if !s.covers(first, last, l-1, c0) {
		s.stampBelow(l-1, c0, first, last, v, e)
		c0++
	}
	if c1 >= c0 && !s.covers(first, last, l-1, c1) {
		s.stampBelow(l-1, c1, first, last, v, e)
		c1--
	}
	for c := c0; c <= c1; c++ {
		s.fillNode(l-1, c, v, e)
	}
}

// Get returns the stamp of the word containing byte offset off: the record
// with the highest epoch among the word and its ancestors' fills. It climbs
// only when some fill since the last Reset may be newer than the word's own
// record: a region no fill reached, such as a window's control words, reads
// the word alone.
func (s *Stamps) Get(off int) Time {
	i := off / 8
	e, p := atomic.LoadUint32(&s.wEpoch[i]), &s.words[i]
	// Fills take the epochs 2, 3, ... and the counter holds the last one
	// less one: a fill can be newer than the word's record, of epoch e (0:
	// never written), only when max(e, 1) <= the counter.
	if max(e, 1) <= atomic.LoadUint32(s.epoch) {
		for l := range s.lv {
			i >>= blockShift
			// Epoch before stamp, mirroring the writers' stamp-before-epoch.
			if fe := atomic.LoadUint32(&s.lv[l].fEpoch[i]); fe > e {
				e, p = fe, &s.lv[l].fill[i]
			}
		}
	}
	return Time(atomic.LoadInt64(p))
}

// MaxRange returns the latest stamp of any word overlapping [off, off+n).
func (s *Stamps) MaxRange(off, n int) Time {
	if n <= 0 {
		return 0
	}
	first, last := off/8, (off+n-1)/8
	if first == last {
		// Single word — the flag-merge hot path of every synchronization
		// protocol.
		return s.Get(off)
	}
	return Time(s.maxBelow(len(s.lv), 0, first, last, 0, 0, 0))
}

// maxBelow folds into m the effective stamps of the words of [first, last]
// beneath node idx of level l, which the range overlaps. (ce, cv) is the
// newest fill among the node's strict ancestors. It descends only while
// something beneath the node is at least as new as the covering fill.
func (s *Stamps) maxBelow(l, idx, first, last int, ce uint32, cv, m int64) int64 {
	for {
		lv := &s.lv[l-1]
		if fe := atomic.LoadUint32(&lv.fEpoch[idx]); fe > ce {
			ce, cv = fe, atomic.LoadInt64(&lv.fill[idx])
		}
		if sub := atomic.LoadUint32(&lv.sub[idx]); sub < ce || sub == 0 {
			// Nothing beneath postdates the covering fill (or nothing was
			// ever written): one stamp covers every word of the subtree.
			return max(m, cv)
		}
		shift := blockShift * (l - 1)
		lo, hi := s.children(l, idx)
		c0, c1 := max(first>>shift, lo), min(last>>shift, hi-1)
		if l == 1 {
			for i := c0; i <= c1; i++ {
				if atomic.LoadUint32(&s.wEpoch[i]) >= ce {
					m = max(m, atomic.LoadInt64(&s.words[i]))
				} else {
					m = max(m, cv)
				}
			}
			return m
		}
		if c0 == c1 {
			l, idx = l-1, c0 // the range sits under one child: step down in place
			continue
		}
		for c := c0; c <= c1; c++ {
			m = s.maxBelow(l-1, c, first, last, ce, cv, m)
		}
		return m
	}
}
