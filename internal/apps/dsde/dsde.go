// Package dsde implements the paper's second motif (§4.2): the dynamic
// sparse data exchange, where every rank has small messages for k random
// targets and no rank knows who will send to it. The four protocols of
// Hoefler, Siebert & Lumsdaine [15] are implemented, matching Fig. 7b:
//
//   - Alltoall: a dense personalized exchange carrying mostly empty slots.
//   - Reduce_scatter: count the senders per target, then send/recv.
//   - NBX: nonblocking barrier (ibarrier) combined with synchronous sends.
//   - RMA: one-sided accumulates in active target mode — a remote
//     fetch-and-add reserves a slot, a put deposits the payload, and a
//     fence closes the exchange. Run over both foMPI and the Cray
//     MPI-2.2 comparator.
package dsde

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"fompi/internal/core"
	"fompi/internal/mpi1"
	"fompi/internal/pgas"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

// Params configures one exchange.
type Params struct {
	K    int   // random targets per rank (the paper uses 6)
	Seed int64 // target selection; varied per repetition
}

func (p Params) withDefaults() Params {
	if p.K <= 0 {
		p.K = 6
	}
	return p
}

// Result is one rank's outcome: the received payloads and the virtual time
// of the complete exchange.
type Result struct {
	Elapsed  timing.Time
	Received []uint64
}

// payload encodes sender and sequence so receivers can verify the multiset.
func payload(rank, i int) uint64 { return uint64(rank)<<32 | uint64(i) }

// targetsOf returns the k (distinct) targets rank draws for this seed.
func targetsOf(prm Params, rank, ranks int) []int {
	rng := rand.New(rand.NewSource(prm.Seed*7919 + int64(rank)))
	if prm.K >= ranks {
		panic("dsde: K must be below the rank count")
	}
	seen := map[int]bool{}
	var ts []int
	for len(ts) < prm.K {
		t := rng.Intn(ranks)
		if !seen[t] {
			seen[t] = true
			ts = append(ts, t)
		}
	}
	return ts
}

// Expected computes the multiset every rank must receive (verification).
func Expected(prm Params, rank, ranks int) []uint64 {
	prm = prm.withDefaults()
	var out []uint64
	for s := 0; s < ranks; s++ {
		for i, t := range targetsOf(prm, s, ranks) {
			if t == rank {
				out = append(out, payload(s, i))
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// RunAlltoall exchanges via a dense alltoall: every rank ships a (flag,
// value) slot to every other rank, occupied or not — the O(p) lower bound
// that makes this protocol collapse at scale.
func RunAlltoall(c *mpi1.Comm, prm Params) Result {
	prm = prm.withDefaults()
	n := c.Size()
	send := make([]byte, n*16)
	for i, t := range targetsOf(prm, c.Rank(), n) {
		binary.LittleEndian.PutUint64(send[t*16:], 1)
		binary.LittleEndian.PutUint64(send[t*16+8:], payload(c.Rank(), i))
	}
	c.Barrier()
	start := c.Now()
	got := c.Alltoall(send, 16)
	elapsed := c.Now() - start
	var recv []uint64
	for s := 0; s < n; s++ {
		if binary.LittleEndian.Uint64(got[s*16:]) == 1 {
			recv = append(recv, binary.LittleEndian.Uint64(got[s*16+8:]))
		}
	}
	return Result{Elapsed: elapsed, Received: recv}
}

// RunReduceScatter first learns how many messages to expect via a
// reduce_scatter over the 0/1 target vector, then exchanges point-to-point.
func RunReduceScatter(c *mpi1.Comm, prm Params) Result {
	prm = prm.withDefaults()
	n := c.Size()
	targets := targetsOf(prm, c.Rank(), n)
	vec := make([]uint64, n)
	for _, t := range targets {
		vec[t]++
	}
	c.Barrier()
	start := c.Now()
	expect := c.ReduceScatterSum(vec)
	const tag = 11
	var reqs []*mpi1.Request
	for i, t := range targets {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], payload(c.Rank(), i))
		reqs = append(reqs, c.Isend(t, tag, b[:]))
	}
	recv := make([]uint64, 0, expect)
	for uint64(len(recv)) < expect {
		var b [8]byte
		c.Recv(mpi1.AnySource, tag, b[:])
		recv = append(recv, binary.LittleEndian.Uint64(b[:]))
	}
	c.WaitAll(reqs)
	return Result{Elapsed: c.Now() - start, Received: recv}
}

// RunNBX is the nonblocking-barrier protocol proved optimal in [15]:
// synchronous sends, opportunistic receives, and an ibarrier entered once
// the local sends completed; the exchange ends when the barrier does.
func RunNBX(c *mpi1.Comm, prm Params) Result {
	prm = prm.withDefaults()
	n := c.Size()
	targets := targetsOf(prm, c.Rank(), n)
	c.Barrier()
	start := c.Now()
	const tag = 12
	var reqs []*mpi1.Request
	for i, t := range targets {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], payload(c.Rank(), i))
		reqs = append(reqs, c.Issend(t, tag, b[:]))
	}
	var recv []uint64
	var ib *mpi1.IBarrier
	var b [8]byte // outside the loop: a receive buffer escapes, so each poll would allocate one
	for {
		if _, _, _, ok := c.TryRecv(mpi1.AnySource, tag, b[:]); ok {
			recv = append(recv, binary.LittleEndian.Uint64(b[:]))
			continue
		}
		if ib == nil {
			all := true
			for _, r := range reqs {
				if !c.Test(r) {
					all = false
					break
				}
			}
			if all {
				ib = c.IbarrierBegin()
			}
		} else if c.TestIB(ib) {
			break
		}
	}
	return Result{Elapsed: c.Now() - start, Received: recv}
}

// rmaLayer abstracts the one-sided operations the RMA protocol needs so it
// runs identically over foMPI and the Cray MPI-2.2 comparator.
type rmaLayer interface {
	fadd(rank, off int, delta uint64) uint64
	put8(rank, off int, v uint64)
	fence() // close the active-target epoch, all ops complete everywhere
	now() timing.Time
	localWord(off int) uint64
}

// rmaExchange is the shared protocol body: slot reservation by remote
// fetch-and-add, payload deposit, fence, local harvest.
func rmaExchange(l rmaLayer, prm Params, rank, ranks, cells int) Result {
	targets := targetsOf(prm, rank, ranks)
	l.fence()
	start := l.now()
	for i, t := range targets {
		idx := l.fadd(t, 0, 1)
		if int(idx) >= cells {
			panic(fmt.Sprintf("dsde: receive buffer exhausted at rank %d", t))
		}
		l.put8(t, 8+int(idx)*8, payload(rank, i))
	}
	l.fence()
	count := l.localWord(0)
	recv := make([]uint64, 0, count)
	for i := uint64(0); i < count; i++ {
		recv = append(recv, l.localWord(8+int(i)*8))
	}
	elapsed := l.now() - start
	return Result{Elapsed: elapsed, Received: recv}
}

// fompiLayer adapts a foMPI window.
type fompiLayer struct {
	p *spmd.Proc
	w *core.Win
	m []byte
}

func (f fompiLayer) fadd(r, off int, d uint64) uint64 {
	return f.w.FetchAndOp(core.AccSum, d, r, off)
}
func (f fompiLayer) put8(r, off int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.w.Put(b[:], r, off)
}
func (f fompiLayer) fence()           { f.w.Fence() }
func (f fompiLayer) now() timing.Time { return f.p.Now() }
func (f fompiLayer) localWord(off int) uint64 {
	return binary.LittleEndian.Uint64(f.m[off:])
}

// RunFoMPI runs the RMA protocol over MPI-3 (foMPI).
func RunFoMPI(p *spmd.Proc, prm Params) Result {
	prm = prm.withDefaults()
	cells := cellsFor(prm, p.Size())
	w, mem := core.Allocate(p, 8+cells*8, core.Config{})
	defer w.Free()
	for i := range mem {
		mem[i] = 0
	}
	res := rmaExchange(fompiLayer{p, w, mem}, prm, p.Rank(), p.Size(), cells)
	return res
}

// mpi22Layer adapts the Cray MPI-2.2 one-sided comparator.
type mpi22Layer struct{ l *pgas.Lang }

func (m mpi22Layer) fadd(r, off int, d uint64) uint64 { return m.l.FetchAdd(r, off, d) }
func (m mpi22Layer) put8(r, off int, v uint64)        { m.l.StoreW(r, off, v) }
func (m mpi22Layer) fence()                           { m.l.Barrier() }
func (m mpi22Layer) now() timing.Time                 { return m.l.Now() }
func (m mpi22Layer) localWord(off int) uint64         { return m.l.LocalWord(off) }

// RunMPI22 runs the RMA protocol over the Cray MPI-2.2 comparator.
func RunMPI22(p *spmd.Proc, prm Params) Result {
	prm = prm.withDefaults()
	cells := cellsFor(prm, p.Size())
	l := pgas.DialMPI22(p, 8+cells*8)
	defer l.Free()
	return rmaExchange(mpi22Layer{l}, prm, p.Rank(), p.Size(), cells)
}

// cellsFor bounds the receive buffer: k senders on average, with slack for
// the random-target skew.
func cellsFor(prm Params, ranks int) int {
	c := prm.K*8 + 64
	if c > ranks*prm.K {
		c = ranks * prm.K
	}
	return c
}
