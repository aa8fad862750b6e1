// Package segpool recycles registered-memory backing segments — a byte
// buffer plus its shadow-stamp arrays — across simulated worlds. Host-perf
// scenarios (and any benchmark sweep) create and destroy a world per
// repetition; without pooling every repetition allocates, page-faults, and
// garbage-collects its windows' segments per rank (a window's control
// region alone is 3.6 KiB, its data region whatever the program asks for),
// which dominates the host cost of short-lived worlds. Segments are pooled
// per size; sync.Pool drains under GC pressure, so idle pools do not pin
// memory.
package segpool

import (
	"sync"

	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

// Pool traffic metrics: how many segments worlds requested, and how the
// recycled ones were wiped — full clear (seg.put) versus stamp-directed
// scrub (seg.put_scrubbed), the cheap path whose hit rate these counters
// exist to make visible.
var (
	mGet         = telemetry.NewCounter("seg.get")
	mPut         = telemetry.NewCounter("seg.put")
	mPutScrubbed = telemetry.NewCounter("seg.put_scrubbed")
)

// Seg is one recyclable backing segment: the registered bytes and their
// shadow stamps, both in the all-zero state when obtained from Get.
type Seg struct {
	Buf []byte
	St  *timing.Stamps
}

// pools maps segment size to its *sync.Pool.
var pools sync.Map

func poolFor(size int) *sync.Pool {
	if p, ok := pools.Load(size); ok {
		return p.(*sync.Pool)
	}
	p, _ := pools.LoadOrStore(size, &sync.Pool{})
	return p.(*sync.Pool)
}

// Get returns an all-zero segment of the given size, recycled if one is
// pooled and freshly allocated otherwise.
func Get(size int) *Seg {
	mGet.Inc()
	if s, ok := poolFor(size).Get().(*Seg); ok && s != nil {
		return s
	}
	return &Seg{Buf: make([]byte, size), St: timing.NewStamps(size)}
}

// Put zeroes a segment and returns it to its pool. The caller must guarantee
// that no goroutine still reaches the segment's memory — for a registered
// region that means the region is unregistered and every rank that could
// address it has synchronized (the world exited cleanly, or the collective
// free completed).
func Put(s *Seg) {
	mPut.Inc()
	clear(s.Buf)
	s.St.Reset()
	poolFor(len(s.Buf)).Put(s)
}

// Range is a byte extent [Lo, Hi) a PutScrubbed caller dirtied outside the
// stamp discipline.
type Range struct{ Lo, Hi int }

// Scrub wipes a stamp-disciplined segment back to the all-zero state: the
// stamped blocks (clamped to the buffer, which may be shorter than the
// 8-byte-rounded extent the stamps cover) plus the declared extra ranges,
// then resets the stamps. Both backends' recyclers — the pool below and the
// multi-process arena free lists — share it. The caller must guarantee no
// concurrent writers.
func Scrub(s *Seg, extra ...Range) {
	s.St.DirtyBlocks(func(lo, hi int) {
		if hi > len(s.Buf) {
			hi = len(s.Buf)
		}
		clear(s.Buf[lo:hi])
	})
	for _, r := range extra {
		clear(s.Buf[r.Lo:r.Hi])
	}
	s.St.Reset()
}

// PutScrubbed recycles a segment whose buffer writes are tracked: every
// write either went through a stamping fabric operation (put, AMO, store,
// notification delivery) or lies inside one of the declared extra ranges
// (local unstamped stores, e.g. a notification ring's header words). Only
// the stamped blocks and the extras are wiped, so recycling a mostly-idle
// region — a fence-only window's control region, a barely-used collective
// scratch — costs proportional to what was actually written.
// Callers whose buffers receive untracked writes (user-held window memory)
// must use Put.
func PutScrubbed(s *Seg, extra ...Range) {
	mPutScrubbed.Inc()
	Scrub(s, extra...)
	poolFor(len(s.Buf)).Put(s)
}
