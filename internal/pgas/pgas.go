// Package pgas implements the compiled-language comparators of the paper's
// evaluation: Cray UPC (shared arrays, upc_memput/upc_memget, upc_barrier,
// upc_fence, and the Cray-specific atomic extensions aadd/CAS) and Fortran
// 2008 coarrays (remote assignment, sync all, sync memory), plus Cray MPI's
// relatively untuned MPI-2.2 one-sided path. All three drive the same
// simulated fabric as foMPI, differing only in their calibrated software
// cost profiles, so every comparison in the figures runs over identical
// hardware. Their communication patterns mirror the paper's code snippets
// (§3.1).
package pgas

import (
	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/timing"
	"fompi/internal/wordcoll"
)

// Header layout of the shared segment: the wordcoll collective channels
// (barrier, allreduce, bcast) run over the layer's own endpoint so language
// synchronization costs the language's own profile.
const hdrBytes = wordcoll.HdrBytes

// Lang is one rank's handle of a PGAS-style global address space: a
// symmetric shared segment per rank plus language-level synchronization.
type Lang struct {
	name string
	p    *spmd.Proc
	ep   *simnet.Endpoint
	reg  *simnet.Region
	key  simnet.Key
	seq  uint64
}

// dial allocates the symmetric shared segment collectively.
func dial(name string, p *spmd.Proc, model *simnet.CostModel, userBytes int) *Lang {
	l := &Lang{name: name, p: p, ep: simnet.NewEndpoint(p.Fabric(), p.Rank(), model)}
	l.reg = l.ep.Register(hdrBytes + userBytes)
	l.key = l.reg.Key()
	lo := p.Allreduce8(spmd.OpMin, uint64(l.key))
	hi := p.Allreduce8(spmd.OpMax, uint64(l.key))
	if lo != hi {
		panic("pgas: shared segment key not symmetric; dial collectively in the same order")
	}
	p.Barrier()
	return l
}

// DialUPC attaches a UPC-like layer with userBytes of shared array per rank
// (the `shared [SZ] double *buf` pattern of §3.1).
func DialUPC(p *spmd.Proc, userBytes int) *Lang {
	return dial("UPC", p, simnet.UPC(), userBytes)
}

// DialCAF attaches a Fortran-coarray-like layer: the shared segment is the
// coarray (`double precision buf(SZ)[*]`).
func DialCAF(p *spmd.Proc, userBytes int) *Lang {
	return dial("CAF", p, simnet.CAF(), userBytes)
}

// DialMPI22 attaches the Cray MPI-2.2 one-sided comparator over a window of
// userBytes per rank.
func DialMPI22(p *spmd.Proc, userBytes int) *Lang {
	return dial("CrayMPI22", p, simnet.CrayMPI22(), userBytes)
}

// Name returns the layer's display name.
func (l *Lang) Name() string { return l.name }

// Local returns the rank's own shared segment.
func (l *Lang) Local() []byte { return l.reg.Bytes()[hdrBytes:] }

// Addr names a byte of rank's shared segment.
func (l *Lang) Addr(rank, off int) simnet.Addr {
	return simnet.Addr{Rank: rank, Key: l.key, Off: hdrBytes + off}
}

// EP exposes the layer endpoint for instrumentation.
func (l *Lang) EP() *simnet.Endpoint { return l.ep }

// Now returns the layer's virtual clock for this rank.
func (l *Lang) Now() timing.Time { return l.ep.Now() }

// Compute charges local work.
func (l *Lang) Compute(ns int64) { l.ep.Compute(ns) }

// Put is upc_memput / coarray remote assignment: nonblocking with deferred
// completion (the defer_sync mode used for full optimization in §3.1.2).
func (l *Lang) Put(rank, off int, src []byte) { l.ep.PutNBI(l.Addr(rank, off), src) }

// Get is the blocking upc_memget / coarray remote read.
func (l *Lang) Get(dst []byte, rank, off int) { l.ep.Get(dst, l.Addr(rank, off)) }

// GetNB is Cray's upc_memget_nb: explicit-handle nonblocking get.
func (l *Lang) GetNB(dst []byte, rank, off int) simnet.Handle {
	return l.ep.GetNB(dst, l.Addr(rank, off))
}

// WaitNB completes an explicit-handle operation.
func (l *Lang) WaitNB(h simnet.Handle) { l.ep.Wait(h) }

// Fence is upc_fence / sync memory: completes outstanding accesses.
func (l *Lang) Fence() {
	l.ep.Gsync()
	l.ep.MemSync()
}

// coll returns the layer's wordcoll handle over the segment header.
func (l *Lang) coll() wordcoll.Group {
	return wordcoll.Group{
		EP: l.ep, Reg: l.reg, Key: l.key, Base: 0,
		Rank: l.p.Rank(), Size: l.p.Size(), Seq: &l.seq,
	}
}

// Barrier is upc_barrier / sync all: a dissemination barrier over the
// layer's own cost profile, plus memory synchronization.
func (l *Lang) Barrier() {
	l.Fence()
	l.coll().Barrier()
}

// Allreduce8 reduces one word across all ranks over the layer's own
// endpoint (a UPC/CAF collective library call).
func (l *Lang) Allreduce8(op wordcoll.Op, v uint64) uint64 {
	return l.coll().Allreduce8(op, v)
}

// FAllreduce sums a float64 across all ranks.
func (l *Lang) FAllreduce(x float64) float64 { return l.coll().FAllreduce(x) }

// FetchAdd is Cray UPC's proprietary atomic add extension (aadd).
func (l *Lang) FetchAdd(rank, off int, delta uint64) uint64 {
	return l.ep.FetchAdd(l.Addr(rank, off), delta)
}

// CompareSwap is Cray UPC's proprietary atomic compare-and-swap extension.
func (l *Lang) CompareSwap(rank, off int, compare, swap uint64) uint64 {
	return l.ep.CompareSwap(l.Addr(rank, off), compare, swap)
}

// LoadW atomically reads one remote word.
func (l *Lang) LoadW(rank, off int) uint64 { return l.ep.LoadW(l.Addr(rank, off)) }

// StoreW atomically writes one remote word (deferred completion).
func (l *Lang) StoreW(rank, off int, v uint64) { l.ep.StoreW(l.Addr(rank, off), v) }

// WaitLocalWord blocks until pred holds for a word of the local segment,
// merging the writer's stamp.
func (l *Lang) WaitLocalWord(off int, pred func(uint64) bool) uint64 {
	aoff := hdrBytes + off
	l.ep.WaitLocal(func() bool { return pred(l.reg.LocalWord(aoff)) })
	l.ep.MergeStamp(l.reg, aoff, 8)
	return l.reg.LocalWord(aoff)
}

// LocalWord reads a word of the local segment without fabric cost.
func (l *Lang) LocalWord(off int) uint64 { return l.reg.LocalWord(hdrBytes + off) }

// LocalWordStore writes a word of the local segment (stamped at local time).
func (l *Lang) LocalWordStore(off int, v uint64) {
	l.reg.LocalWordStore(hdrBytes+off, v, l.ep.Now())
}

// Free releases the segment collectively.
func (l *Lang) Free() {
	l.p.Barrier()
	l.ep.Unregister(l.reg)
}

// Add is the nonblocking flavour of Cray UPC's atomic add extension
// (deferred completion, like upc put with defer_sync): the notification
// primitive of the MILC UPC port [34].
func (l *Lang) Add(rank, off int, delta uint64) { l.ep.AddNBI(l.Addr(rank, off), delta) }
