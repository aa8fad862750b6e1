package mpi1

import (
	"encoding/binary"

	"fompi/internal/spmd"
)

// Collective tag space: user code must keep tags below collTagBase. Each
// collective invocation consumes a distinct tag block so back-to-back
// collectives cannot cross-match (all ranks call collectives in the same
// order, as MPI requires).
const collTagBase = 1 << 24

func (c *Comm) collTag(round int) int {
	return collTagBase + c.seq*256 + round
}

// Barrier blocks until all ranks arrive (dissemination algorithm).
func (c *Comm) Barrier() {
	n := c.Size()
	if n == 1 {
		return
	}
	c.seq++
	one := c.word[:1]
	round := 0
	for dist := 1; dist < n; dist <<= 1 {
		to := (c.Rank() + dist) % n
		from := (c.Rank() - dist + n) % n
		c.SendRecv(to, c.collTag(round), one, from, c.collTag(round), one)
		round++
	}
}

// IBarrier is a nonblocking barrier in the LibNBC style: progress happens
// inside Test/WaitIB calls, one dissemination round at a time.
type IBarrier struct {
	round, dist int
	pending     *Request
	done        bool
	// The rounds' one-byte messages, allocated with the barrier. One send
	// token serves every round: a round's Isend follows the previous
	// round's Wait.
	token, sendToken [1]byte
}

// IbarrierBegin starts a nonblocking barrier.
func (c *Comm) IbarrierBegin() *IBarrier {
	c.seq++
	ib := &IBarrier{dist: 1, sendToken: [1]byte{1}}
	if c.Size() == 1 {
		ib.done = true
		return ib
	}
	ib.pending = c.Isend((c.Rank()+1)%c.Size(), c.collTag(0), ib.sendToken[:])
	return ib
}

// TestIB advances the barrier as far as possible without blocking and
// reports whether it completed.
func (c *Comm) TestIB(ib *IBarrier) bool { return c.progressIB(ib, false) }

// WaitIB blocks until the nonblocking barrier completes.
func (c *Comm) WaitIB(ib *IBarrier) { c.progressIB(ib, true) }

// progressIB runs the barrier's dissemination rounds until it completes, or —
// unless block is set — until a round's message has not arrived yet.
func (c *Comm) progressIB(ib *IBarrier, block bool) bool {
	n := c.Size()
	for !ib.done {
		from := (c.Rank() - ib.dist + n) % n
		if block {
			c.Recv(from, c.collTag(ib.round), ib.token[:])
		} else if _, _, _, ok := c.TryRecv(from, c.collTag(ib.round), ib.token[:]); !ok {
			return false
		}
		c.Wait(ib.pending)
		ib.dist <<= 1
		ib.round++
		if ib.dist >= n {
			ib.done = true
			break
		}
		ib.pending = c.Isend((c.Rank()+ib.dist)%n, c.collTag(ib.round), ib.sendToken[:])
	}
	return true
}

// Allreduce8 reduces one word over all ranks (recursive doubling with
// fold-in for non-power-of-two sizes).
func (c *Comm) Allreduce8(op spmd.Op, v uint64) uint64 {
	n := c.Size()
	if n == 1 {
		return v
	}
	c.seq++
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	rem := n - pow2
	w, out := c.word[:8], c.word[8:16]
	if c.Rank() >= pow2 {
		binary.LittleEndian.PutUint64(w, v)
		c.Send(c.Rank()-pow2, c.collTag(62), w)
		c.Recv(c.Rank()-pow2, c.collTag(63), w)
		return binary.LittleEndian.Uint64(w)
	}
	if c.Rank() < rem {
		c.Recv(c.Rank()+pow2, c.collTag(62), w)
		v = op.Apply(v, binary.LittleEndian.Uint64(w))
	}
	round := 0
	for mask := 1; mask < pow2; mask <<= 1 {
		peer := c.Rank() ^ mask
		binary.LittleEndian.PutUint64(out, v)
		c.SendRecv(peer, c.collTag(round), out, peer, c.collTag(round), w)
		v = op.Apply(v, binary.LittleEndian.Uint64(w))
		round++
	}
	if c.Rank() < rem {
		binary.LittleEndian.PutUint64(w, v)
		c.Send(c.Rank()+pow2, c.collTag(63), w)
	}
	return v
}

// Bcast broadcasts buf from root (binomial tree); all ranks pass equal-size
// buffers.
func (c *Comm) Bcast(root int, buf []byte) {
	n := c.Size()
	if n == 1 {
		return
	}
	c.seq++
	vrank := (c.Rank() - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			c.Recv((vrank-mask+root)%n, c.collTag(40), buf)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := vrank + mask; child < n {
			c.Send((child+root)%n, c.collTag(40), buf)
		}
	}
}

// Allgather gathers fixed-size blocks into rank order on every rank (ring).
func (c *Comm) Allgather(mine []byte) []byte {
	n, each := c.Size(), len(mine)
	out := make([]byte, n*each)
	copy(out[c.Rank()*each:], mine)
	if n == 1 {
		return out
	}
	c.seq++
	right, left := (c.Rank()+1)%n, (c.Rank()-1+n)%n
	for s := 0; s < n-1; s++ {
		sendIdx := (c.Rank() - s + n) % n
		recvIdx := (c.Rank() - s - 1 + n) % n
		c.SendRecv(right, c.collTag(s%200), out[sendIdx*each:(sendIdx+1)*each],
			left, c.collTag(s%200), out[recvIdx*each:(recvIdx+1)*each])
	}
	return out
}

// Alltoall delivers block j of send (Size blocks of each bytes) to rank j.
func (c *Comm) Alltoall(send []byte, each int) []byte {
	n := c.Size()
	if len(send) != n*each {
		panic("mpi1: Alltoall send length must be ranks*each")
	}
	c.seq++
	out := make([]byte, n*each)
	copy(out[c.Rank()*each:], send[c.Rank()*each:(c.Rank()+1)*each])
	for d := 1; d < n; d++ {
		dst := (c.Rank() + d) % n
		src := (c.Rank() - d + n) % n
		c.SendRecv(dst, c.collTag(d%200), send[dst*each:(dst+1)*each],
			src, c.collTag(d%200), out[src*each:(src+1)*each])
	}
	return out
}

// ReduceScatterSum reduces a Size-element vector element-wise and returns
// element `rank` to each rank (recursive halving for powers of two,
// alltoall fallback otherwise).
func (c *Comm) ReduceScatterSum(vec []uint64) uint64 {
	n := c.Size()
	if len(vec) != n {
		panic("mpi1: ReduceScatterSum needs one element per rank")
	}
	if n == 1 {
		return vec[0]
	}
	if n&(n-1) != 0 {
		buf := make([]byte, n*8)
		for i, v := range vec {
			binary.LittleEndian.PutUint64(buf[i*8:], v)
		}
		got := c.Alltoall(buf, 8)
		var sum uint64
		for i := 0; i < n; i++ {
			sum += binary.LittleEndian.Uint64(got[i*8:])
		}
		return sum
	}
	c.seq++
	acc := make([]uint64, n)
	copy(acc, vec)
	lo, cnt, round := 0, n, 0
	for mask := n / 2; mask > 0; mask >>= 1 {
		peer := c.Rank() ^ mask
		half := cnt / 2
		var sendLo, keepLo int
		if c.Rank()&mask == 0 {
			keepLo, sendLo = lo, lo+half
		} else {
			keepLo, sendLo = lo+half, lo
		}
		out := make([]byte, half*8)
		for i := 0; i < half; i++ {
			binary.LittleEndian.PutUint64(out[i*8:], acc[sendLo+i])
		}
		in := make([]byte, half*8)
		c.SendRecv(peer, c.collTag(round), out, peer, c.collTag(round), in)
		for i := 0; i < half; i++ {
			acc[keepLo+i] += binary.LittleEndian.Uint64(in[i*8:])
		}
		lo, cnt = keepLo, half
		round++
	}
	return acc[c.Rank()]
}
