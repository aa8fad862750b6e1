package spmd

import (
	"encoding/binary"
	"fmt"

	"fompi/internal/simnet"
	"fompi/internal/wordcoll"
)

// Scratch-region layout: the wordcoll collective header occupies the first
// HdrBytes; the variable tail holds allgather/alltoall flags (p words)
// followed by the payload area.
const hdrBytes = wordcoll.HdrBytes

// Op identifies a reduction operator for word-sized allreduce.
type Op = wordcoll.Op

// Reduction operators. OpFSum treats the word as float64 bits.
const (
	OpSum  = wordcoll.OpSum
	OpMin  = wordcoll.OpMin
	OpMax  = wordcoll.OpMax
	OpBand = wordcoll.OpBand
	OpBor  = wordcoll.OpBor
	OpFSum = wordcoll.OpFSum
)

func (p *Proc) nextSeq() uint64 { p.seq++; return p.seq }

// coll returns the rank's wordcoll handle over its scratch region.
func (p *Proc) coll() wordcoll.Group {
	return wordcoll.Group{
		EP: p.ep, Reg: p.scratchOf(p.rank), Key: 0, Base: 0,
		Rank: p.rank, Size: p.Size(), Seq: &p.seq,
	}
}

// waitFlagGE blocks until the local scratch word at off reaches seq, then
// merges the writer's completion stamp into the clock (gather-area flags).
func (p *Proc) waitFlagGE(off int, seq uint64) {
	reg := p.scratchOf(p.rank)
	p.ep.WaitLocal(func() bool { return reg.LocalWord(off) >= seq })
	p.ep.MergeStamp(reg, off, 8)
}

// Barrier synchronizes all ranks with a dissemination barrier:
// ceil(log2 p) rounds of one remote flag update each.
func (p *Proc) Barrier() { p.coll().Barrier() }

// Bcast8 broadcasts one word from root with a binomial tree.
func (p *Proc) Bcast8(root int, v uint64) uint64 { return p.coll().Bcast8(root, v) }

// Allreduce8 reduces one word across all ranks (recursive doubling); every
// rank returns the full reduction.
func (p *Proc) Allreduce8(op Op, v uint64) uint64 { return p.coll().Allreduce8(op, v) }

// gatherFlagOff returns the offset of gather-area flag slot i.
func (p *Proc) gatherFlagOff(i int) int { return hdrBytes + i*8 }

// gatherDataOff returns the offset of the gather payload area.
func (p *Proc) gatherDataOff() int { return hdrBytes + p.Size()*8 }

func (p *Proc) checkScratch(need int) {
	have := p.scratchOf(p.rank).Size() - p.gatherDataOff()
	if need > have {
		panic(fmt.Sprintf("spmd: collective payload %d B exceeds scratch %d B; raise Config.ScratchBytes", need, have))
	}
}

// Allgather gathers each rank's fixed-size block into rank order on every
// rank (ring algorithm: p-1 neighbor steps).
func (p *Proc) Allgather(mine []byte) []byte {
	n, each := p.Size(), len(mine)
	out := make([]byte, n*each)
	copy(out[p.rank*each:], mine)
	if n == 1 {
		return out
	}
	p.checkScratch(n * each)
	seq := p.nextSeq()
	reg := p.scratchOf(p.rank)
	right := (p.rank + 1) % n
	dataOff := p.gatherDataOff()
	for s := 0; s < n-1; s++ {
		sendIdx := (p.rank - s + n) % n
		var block []byte
		if sendIdx == p.rank {
			block = mine
		} else {
			block = reg.Bytes()[dataOff+sendIdx*each : dataOff+(sendIdx+1)*each]
		}
		p.ep.PutNBI(simnet.Addr{Rank: right, Key: 0, Off: dataOff + sendIdx*each}, block)
		p.ep.StoreW(simnet.Addr{Rank: right, Key: 0, Off: p.gatherFlagOff(s)}, seq)

		recvIdx := (p.rank - s - 1 + n) % n
		p.waitFlagGE(p.gatherFlagOff(s), seq)
		p.ep.MergeStamp(reg, dataOff+recvIdx*each, each)
		copy(out[recvIdx*each:], reg.Bytes()[dataOff+recvIdx*each:dataOff+(recvIdx+1)*each])
	}
	p.Barrier() // protect scratch reuse by the next collective
	return out
}

// Alltoall delivers block j of send (p blocks of each bytes) to rank j;
// the result holds block i from rank i.
func (p *Proc) Alltoall(send []byte, each int) []byte {
	n := p.Size()
	if len(send) != n*each {
		panic("spmd: Alltoall send length must be ranks*each")
	}
	p.checkScratch(n * each)
	seq := p.nextSeq()
	reg := p.scratchOf(p.rank)
	dataOff := p.gatherDataOff()
	out := make([]byte, n*each)
	copy(out[p.rank*each:], send[p.rank*each:(p.rank+1)*each])
	for d := 1; d < n; d++ {
		j := (p.rank + d) % n
		p.ep.PutNBI(simnet.Addr{Rank: j, Key: 0, Off: dataOff + p.rank*each},
			send[j*each:(j+1)*each])
	}
	for d := 1; d < n; d++ {
		j := (p.rank + d) % n
		p.ep.StoreW(simnet.Addr{Rank: j, Key: 0, Off: p.gatherFlagOff(p.rank)}, seq)
	}
	for d := 1; d < n; d++ {
		i := (p.rank - d + n) % n
		p.waitFlagGE(p.gatherFlagOff(i), seq)
		p.ep.MergeStamp(reg, dataOff+i*each, each)
		copy(out[i*each:], reg.Bytes()[dataOff+i*each:dataOff+(i+1)*each])
	}
	p.Barrier()
	return out
}

// ReduceScatterSum reduces a p-element uint64 vector element-wise across all
// ranks and returns element `rank` of the sum to each rank (the counting
// pattern DSDE uses). Power-of-two rank counts use recursive halving
// (log p rounds); others fall back to alltoall plus local summation.
func (p *Proc) ReduceScatterSum(vec []uint64) uint64 {
	n := p.Size()
	if len(vec) != n {
		panic("spmd: ReduceScatterSum needs one element per rank")
	}
	if n == 1 {
		return vec[0]
	}
	if n&(n-1) != 0 {
		buf := make([]byte, n*8)
		for i, v := range vec {
			binary.LittleEndian.PutUint64(buf[i*8:], v)
		}
		got := p.Alltoall(buf, 8)
		var sum uint64
		for i := 0; i < n; i++ {
			sum += binary.LittleEndian.Uint64(got[i*8:])
		}
		return sum
	}

	acc := make([]uint64, n)
	copy(acc, vec)
	p.checkScratch(n * 8) // per-round slots sum to < n words
	seq := p.nextSeq()
	reg := p.scratchOf(p.rank)
	dataOff := p.gatherDataOff()

	lo, cnt, round, slotOff := 0, n, 0, 0
	for mask := n / 2; mask > 0; mask >>= 1 {
		peer := p.rank ^ mask
		half := cnt / 2
		var sendLo, keepLo int
		if p.rank&mask == 0 {
			keepLo, sendLo = lo, lo+half
		} else {
			keepLo, sendLo = lo+half, lo
		}
		buf := make([]byte, half*8)
		for i := 0; i < half; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], acc[sendLo+i])
		}
		p.ep.PutNBI(simnet.Addr{Rank: peer, Key: 0, Off: dataOff + slotOff}, buf)
		p.ep.StoreW(simnet.Addr{Rank: peer, Key: 0, Off: p.gatherFlagOff(round)}, seq)

		p.waitFlagGE(p.gatherFlagOff(round), seq)
		p.ep.MergeStamp(reg, dataOff+slotOff, half*8)
		in := reg.Bytes()[dataOff+slotOff : dataOff+slotOff+half*8]
		for i := 0; i < half; i++ {
			acc[keepLo+i] += binary.LittleEndian.Uint64(in[i*8:])
		}
		lo, cnt = keepLo, half
		slotOff += half * 8
		round++
	}
	p.Barrier()
	return acc[p.rank]
}
