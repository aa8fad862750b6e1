// Package milc is the proxy for the paper's full-application study (§4.4,
// Fig. 8): the MIMD Lattice Computation su3_rmd code. MILC's dominant cost
// is a conjugate-gradient solver over a four-dimensional lattice with
// nearest-neighbor (8-direction) halo exchange plus global allreductions.
// The paper changes only the communication layer, so this proxy implements
// exactly that layer three ways over one real 4-D stencil CG:
//
//   - MPI-1: nonblocking sends/receives of the packed halo faces.
//   - UPC: the scheme of Shan et al. [34] — the sender initializes its
//     "send" buffer, notifies each neighbor with an atomic add, and
//     neighbors pull the data with Cray's nonblocking upc_memget_nb.
//   - foMPI MPI-3: the identical scheme with MPI_Fetch_and_op notification
//     and MPI_Get + MPI_Win_flush inside a single lock_all epoch.
//
// All variants run the same arithmetic on the same data, so residuals agree
// bit-for-bit across transports, which the tests verify against a
// sequential reference solver.
package milc

import (
	"fmt"
	"math"

	"fompi/internal/core"
	"fompi/internal/mpi1"
	"fompi/internal/pgas"
	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

// Params configures one CG run on a weak-scaled lattice.
type Params struct {
	// Local is the per-rank lattice extent in each of the four dimensions
	// (the paper's weak-scaling benchmark uses 4×4×4×8 per process).
	Local [4]int
	// Grid is the process grid; Grid[0]*Grid[1]*Grid[2]*Grid[3] must equal
	// the rank count. Zero means a 1-D decomposition along t.
	Grid [4]int
	// Iters is the fixed number of CG iterations (the solver always runs
	// them all so every transport does identical work). Default 25.
	Iters int
	// Mass is the mass term; (8+m²) keeps the operator positive definite.
	// Default 0.1.
	Mass float64
	// NsPerFlop calibrates virtual compute cost. Default 0.5.
	NsPerFlop float64
	// Seed selects the right-hand side. Default 1.
	Seed int64
}

func (p Params) withDefaults(ranks int) Params {
	if p.Local == [4]int{} {
		p.Local = [4]int{4, 4, 4, 8}
	}
	if p.Grid == [4]int{} {
		p.Grid = [4]int{1, 1, 1, ranks}
	}
	if p.Iters <= 0 {
		p.Iters = 25
	}
	if p.Mass == 0 {
		p.Mass = 0.1
	}
	if p.NsPerFlop <= 0 {
		p.NsPerFlop = 0.5
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Grid[0]*p.Grid[1]*p.Grid[2]*p.Grid[3] != ranks {
		panic(fmt.Sprintf("milc: grid %v does not cover %d ranks", p.Grid, ranks))
	}
	for d := 0; d < 4; d++ {
		if p.Local[d] < 1 {
			panic("milc: local lattice dimensions must be at least 1")
		}
	}
	return p
}

// Result is one rank's outcome.
type Result struct {
	Elapsed  timing.Time // virtual time of the full solve
	Residual float64     // final global residual norm ||b - A·x||
	Sites    int         // local lattice sites
}

// rhs generates the deterministic right-hand side value at global site
// coordinates, shared by all variants and the reference solver.
func rhs(seed int64, g [4]int) float64 {
	h := uint64(seed) * 0x9e3779b97f4a7c15
	for _, c := range g {
		h ^= uint64(c) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(int64(h>>11))/float64(1<<52) - 1
}

// lattice holds one rank's field storage with one ghost layer per face.
type lattice struct {
	Params
	rank, ranks int
	coord       [4]int // this rank's position in the process grid
	dims        [4]int // Local
	vol         int    // product of Local
	faceLen     [4]int // sites on the face normal to dimension d
}

func newLattice(prm Params, rank, ranks int) *lattice {
	l := &lattice{Params: prm, rank: rank, ranks: ranks, dims: prm.Local}
	r := rank
	for d := 0; d < 4; d++ {
		l.coord[d] = r % prm.Grid[d]
		r /= prm.Grid[d]
	}
	l.vol = 1
	for d := 0; d < 4; d++ {
		l.vol *= l.dims[d]
	}
	for d := 0; d < 4; d++ {
		l.faceLen[d] = l.vol / l.dims[d]
	}
	return l
}

// neighbor returns the rank one step along dimension d (dir ±1), with
// periodic (toroidal) boundaries, as MILC uses.
func (l *lattice) neighbor(d, dir int) int {
	c := l.coord
	c[d] = (c[d] + dir + l.Grid[d]) % l.Grid[d]
	r := 0
	for dd := 3; dd >= 0; dd-- {
		r = r*l.Grid[dd] + c[dd]
	}
	return r
}

// idx flattens local coordinates (x fastest).
func (l *lattice) idx(c [4]int) int {
	return ((c[3]*l.dims[2]+c[2])*l.dims[1]+c[1])*l.dims[0] + c[0]
}

// global returns the global coordinates of a local site.
func (l *lattice) global(c [4]int) [4]int {
	var g [4]int
	for d := 0; d < 4; d++ {
		g[d] = l.coord[d]*l.dims[d] + c[d]
	}
	return g
}

// forEachSite visits all local sites.
func (l *lattice) forEachSite(f func(c [4]int, i int)) {
	var c [4]int
	for c[3] = 0; c[3] < l.dims[3]; c[3]++ {
		for c[2] = 0; c[2] < l.dims[2]; c[2]++ {
			for c[1] = 0; c[1] < l.dims[1]; c[1]++ {
				for c[0] = 0; c[0] < l.dims[0]; c[0]++ {
					f(c, l.idx(c))
				}
			}
		}
	}
}

// faceSites lists the local indices of the face at the low (dir=-1) or high
// (dir=+1) boundary of dimension d, in a deterministic order shared by
// sender and receiver.
func (l *lattice) faceSites(d, dir int) []int {
	edge := 0
	if dir > 0 {
		edge = l.dims[d] - 1
	}
	out := make([]int, 0, l.faceLen[d])
	l.forEachSite(func(c [4]int, i int) {
		if c[d] == edge {
			out = append(out, i)
		}
	})
	return out
}

// halo is the ghost storage: for each dimension and direction, the face
// received from that neighbor.
type halo [4][2][]float64

func (l *lattice) newHalo() *halo {
	var h halo
	for d := 0; d < 4; d++ {
		h[d][0] = make([]float64, l.faceLen[d])
		h[d][1] = make([]float64, l.faceLen[d])
	}
	return &h
}

// exchanger abstracts the three communication variants: fill the ghost
// faces of h from the 8 neighbors' boundary values of v.
type exchanger interface {
	exchange(v []float64, h *halo)
	allreduceSum(x float64) float64
	now() timing.Time
	compute(ns int64)
	name() string
}

// applyD computes out = (8+m²)·v − Σ_{d,±} v(neighbor), reading ghost faces
// for off-rank neighbors, and charges the stencil flops.
func (l *lattice) applyD(v []float64, h *halo, out []float64, ex exchanger) {
	m2 := 8 + l.Mass*l.Mass
	// Precompute halo lookup: position of each boundary site within its face.
	l.forEachSite(func(c [4]int, i int) {
		acc := m2 * v[i]
		for d := 0; d < 4; d++ {
			// low neighbor
			if c[d] > 0 {
				cc := c
				cc[d]--
				acc -= v[l.idx(cc)]
			} else {
				acc -= h[d][0][l.faceIndex(d, c)]
			}
			// high neighbor
			if c[d] < l.dims[d]-1 {
				cc := c
				cc[d]++
				acc -= v[l.idx(cc)]
			} else {
				acc -= h[d][1][l.faceIndex(d, c)]
			}
		}
		out[i] = acc
	})
	ex.compute(int64(l.NsPerFlop * float64(l.vol) * 10)) // 8 subs + mul + add
}

// faceIndex maps a boundary site to its position within the face normal to
// d (the flattened index with dimension d removed).
func (l *lattice) faceIndex(d int, c [4]int) int {
	i := 0
	for dd := 3; dd >= 0; dd-- {
		if dd == d {
			continue
		}
		i = i*l.dims[dd] + c[dd]
	}
	return i
}

// pack gathers the boundary face (d, dir) of v into buf.
func (l *lattice) pack(v []float64, d, dir int, buf []float64) {
	for j, i := range l.faceSites(d, dir) {
		buf[j] = v[i]
	}
}

// dot computes the global inner product, charging local flops and one
// allreduce.
func (l *lattice) dot(a, b []float64, ex exchanger) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	ex.compute(int64(l.NsPerFlop * float64(l.vol) * 2))
	return ex.allreduceSum(s)
}

// axpy computes y += alpha·x, charging flops.
func (l *lattice) axpy(alpha float64, x, y []float64, ex exchanger) {
	for i := range y {
		y[i] += alpha * x[i]
	}
	ex.compute(int64(l.NsPerFlop * float64(l.vol) * 2))
}

// cg runs Iters conjugate-gradient iterations solving D·x = b and returns
// the result with the final residual.
func (l *lattice) cg(ex exchanger) Result {
	b := make([]float64, l.vol)
	l.forEachSite(func(c [4]int, i int) { b[i] = rhs(l.Seed, l.global(c)) })
	x := make([]float64, l.vol)
	r := append([]float64(nil), b...) // r = b − D·0
	p := append([]float64(nil), b...)
	ap := make([]float64, l.vol)
	h := l.newHalo()

	start := ex.now()
	rr := l.dot(r, r, ex)
	for it := 0; it < l.Iters; it++ {
		ex.exchange(p, h)
		l.applyD(p, h, ap, ex)
		pap := l.dot(p, ap, ex)
		alpha := rr / pap
		l.axpy(alpha, p, x, ex)
		l.axpy(-alpha, ap, r, ex)
		rrNew := l.dot(r, r, ex)
		beta := rrNew / rr
		rr = rrNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		ex.compute(int64(l.NsPerFlop * float64(l.vol) * 2))
	}
	return Result{Elapsed: ex.now() - start, Residual: math.Sqrt(rr), Sites: l.vol}
}

// ---------------------------------------------------------------------------
// MPI-1 variant

type mpi1Ex struct {
	l *lattice
	c *mpi1.Comm
	// packed send buffers, retained across the nonblocking sends
	sendBuf [4][2][]byte
}

func newMPI1Ex(l *lattice, c *mpi1.Comm) *mpi1Ex {
	ex := &mpi1Ex{l: l, c: c}
	for d := 0; d < 4; d++ {
		ex.sendBuf[d][0] = make([]byte, l.faceLen[d]*8)
		ex.sendBuf[d][1] = make([]byte, l.faceLen[d]*8)
	}
	return ex
}

func (ex *mpi1Ex) name() string { return "CrayMPI1" }

// tag encodes (dimension, direction) so concurrent faces match correctly.
func tagOf(d, dir int) int {
	if dir > 0 {
		return d*2 + 1
	}
	return d * 2
}

func (ex *mpi1Ex) exchange(v []float64, h *halo) {
	l := ex.l
	var reqs []*mpi1.Request
	face := make([]float64, 0)
	for d := 0; d < 4; d++ {
		for di, dir := range [2]int{-1, +1} {
			if cap(face) < l.faceLen[d] {
				face = make([]float64, l.faceLen[d])
			}
			face = face[:l.faceLen[d]]
			l.pack(v, d, dir, face)
			buf := ex.sendBuf[d][di]
			for j, f := range face {
				putU64(buf[j*8:], math.Float64bits(f))
			}
			// My high face is the neighbor's low ghost and vice versa.
			reqs = append(reqs, ex.c.Isend(l.neighbor(d, dir), tagOf(d, dir), buf))
		}
	}
	recv := make([]byte, 0)
	for d := 0; d < 4; d++ {
		for di, dir := range [2]int{-1, +1} {
			if cap(recv) < l.faceLen[d]*8 {
				recv = make([]byte, l.faceLen[d]*8)
			}
			recv = recv[:l.faceLen[d]*8]
			// Receive the face the neighbor sent toward me: its direction is
			// opposite, so it carries tagOf(d, -dir).
			ex.c.Recv(l.neighbor(d, dir), tagOf(d, -dir), recv)
			dst := h[d][di]
			for j := range dst {
				dst[j] = math.Float64frombits(getU64(recv[j*8:]))
			}
		}
	}
	ex.c.WaitAll(reqs)
}

func (ex *mpi1Ex) allreduceSum(x float64) float64 {
	return math.Float64frombits(ex.c.Allreduce8(spmd.OpFSum, math.Float64bits(x)))
}
func (ex *mpi1Ex) now() timing.Time { return ex.c.Now() }
func (ex *mpi1Ex) compute(ns int64) { ex.c.Compute(ns) }

// RunMPI1 solves with the MPI-1 nonblocking halo exchange.
func RunMPI1(p *spmd.Proc, prm Params) Result {
	prm = prm.withDefaults(p.Size())
	l := newLattice(prm, p.Rank(), p.Size())
	c := mpi1.Dial(p)
	c.Barrier()
	return l.cg(newMPI1Ex(l, c))
}

// ---------------------------------------------------------------------------
// One-sided variants (UPC and foMPI share the notify+get scheme)

// segment layout per rank: 8 flag words (one per direction) followed by the
// 8 outgoing face buffers at fixed offsets.
type segLayout struct {
	flagOff [4][2]int
	faceOff [4][2]int
	bytes   int
}

func layoutFor(l *lattice) segLayout {
	var s segLayout
	off := 0
	for d := 0; d < 4; d++ {
		for di := 0; di < 2; di++ {
			s.flagOff[d][di] = off
			off += 8
		}
	}
	for d := 0; d < 4; d++ {
		for di := 0; di < 2; di++ {
			s.faceOff[d][di] = off
			off += l.faceLen[d] * 8
		}
	}
	s.bytes = off
	return s
}

// oneSided abstracts the few primitives the notify+get scheme needs, so UPC
// and foMPI run the identical protocol body.
type oneSided interface {
	// atomicAddFlag adds 1 to the flag word at the given rank's segment.
	atomicAddFlag(rank, off int)
	// waitFlagLocal blocks until the local flag word at off reaches want.
	waitFlagLocal(off int, want uint64)
	// writeFace stores the packed face into the LOCAL segment at off.
	writeFace(off int, face []float64)
	// getFace starts a nonblocking read from rank's segment at off into dst.
	getFace(dst []byte, rank, off int) simnet.Handle
	waitGet(h simnet.Handle)
	// fence makes local segment writes visible before the notify.
	fence()
}

type osEx struct {
	l    *lattice
	lay  segLayout
	os   oneSided
	nm   string
	ar   func(float64) float64
	nowF func() timing.Time
	cmp  func(int64)
	gen  uint64 // epoch counter: flags count notifications per direction
}

func (ex *osEx) name() string                   { return ex.nm }
func (ex *osEx) allreduceSum(x float64) float64 { return ex.ar(x) }
func (ex *osEx) now() timing.Time               { return ex.nowF() }
func (ex *osEx) compute(ns int64)               { ex.cmp(ns) }

func (ex *osEx) exchange(v []float64, h *halo) {
	l, lay := ex.l, ex.lay
	ex.gen++
	face := make([]float64, 0)
	// 1. Initialize the send buffers, make them visible, notify neighbors.
	for d := 0; d < 4; d++ {
		for di, dir := range [2]int{-1, +1} {
			if cap(face) < l.faceLen[d] {
				face = make([]float64, l.faceLen[d])
			}
			face = face[:l.faceLen[d]]
			l.pack(v, d, dir, face)
			ex.os.writeFace(lay.faceOff[d][di], face)
		}
	}
	ex.os.fence()
	for d := 0; d < 4; d++ {
		for di, dir := range [2]int{-1, +1} {
			// Tell the neighbor in direction (d,dir) that the face it will
			// read from me (my (d,di) buffer) is ready. Its ghost direction
			// index for data coming from me is the opposite one.
			ex.os.atomicAddFlag(l.neighbor(d, dir), lay.flagOff[d][1-di])
		}
	}
	// 2. Wait for all neighbors' notifications, then pull their faces.
	handles := make([]simnet.Handle, 0, 8)
	bufs := make([][]byte, 0, 8)
	dsts := make([][]float64, 0, 8)
	for d := 0; d < 4; d++ {
		for di, dir := range [2]int{-1, +1} {
			ex.os.waitFlagLocal(lay.flagOff[d][di], ex.gen)
			// Neighbor (d,dir)'s face pointing back at me is its (d,1-di)
			// buffer.
			buf := make([]byte, l.faceLen[d]*8)
			handles = append(handles, ex.os.getFace(buf, l.neighbor(d, dir), lay.faceOff[d][1-di]))
			bufs = append(bufs, buf)
			dsts = append(dsts, h[d][di])
		}
	}
	for i, hd := range handles {
		ex.os.waitGet(hd)
		for j := range dsts[i] {
			dsts[i][j] = math.Float64frombits(getU64(bufs[i][j*8:]))
		}
	}
}

// upcSided adapts the pgas UPC layer.
type upcSided struct {
	l *pgas.Lang
}

func (u upcSided) atomicAddFlag(rank, off int) { u.l.Add(rank, off, 1) }
func (u upcSided) waitFlagLocal(off int, want uint64) {
	u.l.WaitLocalWord(off, func(v uint64) bool { return v >= want })
}
func (u upcSided) writeFace(off int, face []float64) {
	b := u.l.Local()[off : off+len(face)*8]
	for j, f := range face {
		putU64(b[j*8:], math.Float64bits(f))
	}
}
func (u upcSided) getFace(dst []byte, rank, off int) simnet.Handle {
	return u.l.GetNB(dst, rank, off)
}
func (u upcSided) waitGet(h simnet.Handle) { u.l.WaitNB(h) }
func (u upcSided) fence()                  { u.l.Fence() }

// RunUPC solves with the Shan et al. UPC notify+get scheme.
func RunUPC(p *spmd.Proc, prm Params) Result {
	prm = prm.withDefaults(p.Size())
	l := newLattice(prm, p.Rank(), p.Size())
	lay := layoutFor(l)
	lang := pgas.DialUPC(p, lay.bytes)
	defer lang.Free()
	clearSegment(lang.Local(), lay)
	lang.Barrier()
	ex := &osEx{
		l: l, lay: lay, os: upcSided{lang}, nm: "CrayUPC",
		ar: func(x float64) float64 {
			lang.Fence() // the collective doubles as the epoch's memory sync
			return lang.FAllreduce(x)
		},
		nowF: func() timing.Time { return lang.Now() },
		cmp:  func(ns int64) { lang.Compute(ns) },
	}
	return l.cg(ex)
}

// fompiSided adapts a foMPI window in a lock_all epoch.
type fompiSided struct {
	w   *core.Win
	mem []byte
}

func (f fompiSided) atomicAddFlag(rank, off int) {
	// MPI_Accumulate(SUM) of one element: a nonblocking atomic add whose
	// remote completion the epoch's flush guarantees — the notify the
	// paper's MILC port issues (a fetching AMO would serialize on its
	// round trip here).
	var one [8]byte
	one[0] = 1
	f.w.Accumulate(core.AccSum, one[:], rank, off)
}
func (f fompiSided) waitFlagLocal(off int, want uint64) {
	f.w.WaitLocalWord(off, func(v uint64) bool { return v >= want })
}
func (f fompiSided) writeFace(off int, face []float64) {
	b := f.mem[off : off+len(face)*8]
	for j, v := range face {
		putU64(b[j*8:], math.Float64bits(v))
	}
}
func (f fompiSided) getFace(dst []byte, rank, off int) simnet.Handle {
	return f.w.RGet(dst, rank, off)
}
func (f fompiSided) waitGet(h simnet.Handle) { f.w.WaitRequest(h) }
func (f fompiSided) fence()                  { f.w.Sync(); f.w.FlushAll() }

// RunFoMPI solves with the MPI-3 RMA scheme: one lock_all epoch, atomic
// notify (MPI_Fetch_and_op), MPI_Rget pulls, MPI_Win_flush completion.
func RunFoMPI(p *spmd.Proc, prm Params) Result {
	prm = prm.withDefaults(p.Size())
	l := newLattice(prm, p.Rank(), p.Size())
	lay := layoutFor(l)
	w, mem := core.Allocate(p, lay.bytes, core.Config{})
	defer w.Free()
	clearSegment(mem, lay)
	p.Barrier()
	w.LockAll()
	defer w.UnlockAll()
	ex := &osEx{
		l: l, lay: lay, os: fompiSided{w, mem}, nm: "foMPI",
		ar: func(x float64) float64 {
			w.FlushAll()
			return math.Float64frombits(p.Allreduce8(spmd.OpFSum, math.Float64bits(x)))
		},
		nowF: func() timing.Time { return p.Now() },
		cmp:  func(ns int64) { p.Compute(ns) },
	}
	return l.cg(ex)
}

func clearSegment(b []byte, lay segLayout) {
	for i := 0; i < lay.bytes; i++ {
		b[i] = 0
	}
}

// Reference solves the same system sequentially on the full global lattice
// and returns the residual norm after the same iteration count, the oracle
// the parallel variants must match.
func Reference(prm Params, ranks int) float64 {
	prm = prm.withDefaults(ranks)
	full := prm
	for d := 0; d < 4; d++ {
		full.Local[d] = prm.Local[d] * prm.Grid[d]
	}
	full.Grid = [4]int{1, 1, 1, 1}
	l := newLattice(full, 0, 1)
	ex := &seqEx{l: l}
	return l.cg(ex).Residual
}

// seqEx is the trivial single-rank exchanger: ghosts wrap around locally
// (periodic boundaries on one rank read the opposite face directly).
type seqEx struct {
	l *lattice
	t timing.Time
}

func (s *seqEx) name() string                   { return "reference" }
func (s *seqEx) allreduceSum(x float64) float64 { return x }
func (s *seqEx) now() timing.Time               { return s.t }
func (s *seqEx) compute(ns int64)               { s.t += timing.Time(ns) }

func (s *seqEx) exchange(v []float64, h *halo) {
	l := s.l
	face := make([]float64, 0)
	for d := 0; d < 4; d++ {
		for di, dir := range [2]int{-1, +1} {
			// The ghost face in direction (d,di) is the opposite boundary
			// face of the same (single) rank.
			if cap(face) < l.faceLen[d] {
				face = make([]float64, l.faceLen[d])
			}
			face = face[:l.faceLen[d]]
			l.pack(v, d, -dir, face)
			copy(h[d][di], face)
		}
	}
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
