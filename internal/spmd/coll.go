package spmd

import (
	"fmt"
	"math"
	"math/bits"

	"fompi/internal/simnet"
	"fompi/internal/wordcoll"
)

// A rank's standing collective scratch is O(1): the wordcoll header — the
// flag and value words of Barrier, Bcast8 and Allreduce8 — then Allgather's
// handshake slot, a flag word and a value word its right neighbour writes.
// Allgather registers its O(p) area per call.
const (
	handOff  = wordcoll.HdrBytes
	hdrBytes = handOff + 16
)

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

// Barrier synchronizes all ranks with a dissemination barrier:
// ceil(log2 p) rounds of one remote flag update each.
func (p *Proc) Barrier() { p.coll().Barrier() }

// Bcast8 broadcasts one word from root with a binomial tree.
func (p *Proc) Bcast8(root int, v uint64) uint64 { return p.coll().Bcast8(root, v) }

// Allreduce8 reduces one word across all ranks (recursive doubling); every
// rank returns the full reduction.
func (p *Proc) Allreduce8(op Op, v uint64) uint64 { return p.coll().Allreduce8(op, v) }

// Allgather gathers each rank's block into rank order on every rank (ring
// algorithm: p-1 neighbor steps). Every rank's block must be of one size.
//
// The ring's area — p flag words, then the p blocks — is registered for the
// call alone, so a world holds no O(p) scratch between calls and only a caller
// of Allgather pays for one. The area comes from the transport's segment
// allocator at a power-of-two size, so its exact-size free lists serve the
// next call, whatever its block size. Each rank writes only into its right
// neighbour's area, so one handshake closes the registration: a rank
// registers, then hands its area's key and its block size to its left
// neighbour's header, and writes into its right neighbour's area only once
// that neighbour's handshake has arrived. The keys need not agree across
// ranks, and a rank whose block size differs from its right neighbour's
// faults, naming both sizes, before any block moves: around the ring, equal
// neighbours mean equal blocks everywhere.
func (p *Proc) Allgather(mine []byte) []byte {
	n, each := p.Size(), len(mine)
	out := make([]byte, n*each)
	copy(out[p.rank*each:], mine)
	if n == 1 {
		return out
	}
	if uint64(each) > math.MaxUint32 {
		panic(fmt.Sprintf("spmd: Allgather block of %d B does not fit the 32-bit size its handshake carries", each))
	}
	dataOff := n * 8
	seg := p.ep.AllocSeg(1 << bits.Len(uint(dataOff+n*each-1)))
	var reg simnet.Region
	p.ep.RegisterBufStampsInto(&reg, seg.Buf, seg.St)

	seq := p.nextSeq()
	left, right := (p.rank-1+n)%n, (p.rank+1)%n
	p.ep.StoreW(simnet.Addr{Rank: left, Key: 0, Off: handOff + 8}, uint64(reg.Key())<<32|uint64(each))
	p.ep.StoreW(simnet.Addr{Rank: left, Key: 0, Off: handOff}, seq)
	hdr := p.scratchOf(p.rank)
	p.ep.WaitLocal(func() bool { return hdr.LocalWord(handOff) >= seq })
	p.ep.MergeStamp(hdr, handOff, 16)
	theirs := hdr.LocalWord(handOff + 8)
	if size := int(uint32(theirs)); size != each {
		panic(fmt.Sprintf("spmd: Allgather blocks differ across ranks: rank %d gives %d B, rank %d gives %d B; every rank must give one size", p.rank, each, right, size))
	}
	key := simnet.Key(theirs >> 32) // the right neighbour's area

	for s := 0; s < n-1; s++ {
		sendIdx := (p.rank - s + n) % n
		var block []byte
		if sendIdx == p.rank {
			block = mine
		} else {
			block = reg.Bytes()[dataOff+sendIdx*each : dataOff+(sendIdx+1)*each]
		}
		p.ep.PutNBI(simnet.Addr{Rank: right, Key: key, Off: dataOff + sendIdx*each}, block)
		p.ep.StoreW(simnet.Addr{Rank: right, Key: key, Off: s * 8}, seq)

		recvIdx := (p.rank - s - 1 + n) % n
		p.ep.WaitLocal(func() bool { return reg.LocalWord(s*8) >= seq })
		p.ep.MergeStamp(&reg, s*8, 8)
		p.ep.MergeStamp(&reg, dataOff+recvIdx*each, each)
		copy(out[recvIdx*each:], reg.Bytes()[dataOff+recvIdx*each:dataOff+(recvIdx+1)*each])
	}
	// Every rank's ring is done, so no write reaches the area again, and the
	// handshake slot is read before any rank can write the next call's.
	p.Barrier()
	p.ep.Unregister(&reg)
	p.ep.RecycleSeg(seg)
	return out
}
