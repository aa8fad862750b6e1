// Package wordcoll implements word-sized collectives (dissemination
// barrier, recursive-doubling allreduce, binomial broadcast) over raw
// one-sided fabric operations. Both the SPMD runtime (internal/spmd) and
// the PGAS comparator layers (internal/pgas) instantiate it over their own
// endpoints and cost models, so a "upc_barrier" and an "MPI barrier" run
// the identical communication pattern and differ only by their calibrated
// software overheads — the property the paper's Figure 6b comparison needs.
//
// # Channel reuse discipline
//
// Flag channels are matched with monotonic ">= seq" waits (a writer may
// never be waited on with equality: overwrites could skip values). Because
// ranks may run one collective ahead of a peer — a dissemination round
// sends before it waits — each allreduce and barrier channel is
// double-buffered by invocation parity: writing invocation k+2 on a slot
// requires completing k+1, which requires the peer's k+1 message, which the
// peer sends only after fully finishing k. The parity argument needs
// consecutive same-primitive invocations to alternate parity OR be
// separated by a fully-synchronizing collective; Barrier is fully
// synchronizing and Bcast8 ends with one, so a shared sequence counter
// across all primitives preserves the invariant.
package wordcoll

import (
	"math"

	"fompi/internal/simnet"
)

// Layout of the collective header area within the backing region.
const (
	maxRounds = 40 // supports up to 2^40 ranks
	barOff    = 0
	redOff    = barOff + 2*maxRounds*8    // barrier flags, parity-doubled
	redSlot   = 16                        // flag word + value word
	redSlots  = 2*maxRounds + 4           // parity-doubled rounds + fold-in/out pairs
	bcOff     = redOff + redSlots*redSlot // bcast flag + value channel

	// HdrBytes is the size of the collective header a backing region must
	// reserve at Base.
	HdrBytes = bcOff + 16
)

// Op identifies a reduction operator for Allreduce8.
type Op int

// Reduction operators. OpFSum treats words as float64 bits.
const (
	OpSum Op = iota
	OpMin
	OpMax
	OpBand
	OpBor
	OpFSum
)

// Apply combines two words under the operator.
func (o Op) Apply(a, b uint64) uint64 {
	switch o {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpBand:
		return a & b
	case OpBor:
		return a | b
	case OpFSum:
		return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	default:
		panic("wordcoll: unknown reduction op")
	}
}

// Group is one rank's handle of a collective channel set. All ranks of the
// group must build Groups over symmetric regions: the same Key and Base on
// every rank, with HdrBytes of space reserved.
type Group struct {
	EP   *simnet.Endpoint
	Reg  *simnet.Region // this rank's backing region
	Key  simnet.Key     // symmetric region key
	Base int            // byte offset of the collective header in the region
	Rank int
	Size int
	Seq  *uint64 // shared invocation counter (owned by the caller's layer)
}

func (g Group) nextSeq() uint64 { *g.Seq++; return *g.Seq }

// addr names a header byte at a peer.
func (g Group) addr(rank, off int) simnet.Addr {
	return simnet.Addr{Rank: rank, Key: g.Key, Off: g.Base + off}
}

// waitFlagGE blocks until the local flag at off reaches seq and merges the
// writer's virtual completion stamp into the clock.
func (g Group) waitFlagGE(off int, seq uint64) {
	aoff := g.Base + off
	g.EP.WaitLocal(func() bool { return g.Reg.LocalWord(aoff) >= seq })
	g.EP.MergeStamp(g.Reg, aoff, 8)
}

// barSlotOff returns the parity-doubled barrier flag offset for a round.
func barSlotOff(round int, seq uint64) int { return barOff + (round*2+int(seq&1))*8 }

// Barrier synchronizes all ranks of the group: ceil(log2 p) dissemination
// rounds of one remote flag update each. O(1) memory, O(log p) time.
func (g Group) Barrier() {
	if g.Size == 1 {
		return
	}
	seq := g.nextSeq()
	round := 0
	for dist := 1; dist < g.Size; dist <<= 1 {
		peer := (g.Rank + dist) % g.Size
		off := barSlotOff(round, seq)
		g.EP.StoreW(g.addr(peer, off), seq)
		g.waitFlagGE(off, seq)
		round++
	}
}

func redSlotIdx(round int, seq uint64) int { return round*2 + int(seq&1) }
func foldInSlot(seq uint64) int            { return 2*maxRounds + int(seq&1) }
func foldOutSlot(seq uint64) int           { return 2*maxRounds + 2 + int(seq&1) }

// sendRed writes (value, flag=seq) into a peer's allreduce channel. No
// completion call separates the two stores: the receiver merges both words'
// virtual completion stamps, which orders value-before-flag causally without
// stalling the sender for a round trip per round.
func (g Group) sendRed(peer, slot int, seq, v uint64) {
	base := redOff + slot*redSlot
	g.EP.StoreW(g.addr(peer, base+8), v)
	g.EP.StoreW(g.addr(peer, base), seq)
}

// recvRed waits for the channel's flag and returns the delivered value,
// merging the value word's stamp as well as the flag's.
func (g Group) recvRed(slot int, seq uint64) uint64 {
	base := redOff + slot*redSlot
	g.waitFlagGE(base, seq)
	g.EP.MergeStamp(g.Reg, g.Base+base+8, 8)
	return g.Reg.LocalWord(g.Base + base + 8)
}

// Allreduce8 reduces one word across the group (recursive doubling with
// fold-in/fold-out for non-power-of-two sizes); every rank returns the full
// reduction. O(log p) time and messages.
func (g Group) Allreduce8(op Op, v uint64) uint64 {
	if g.Size == 1 {
		return v
	}
	seq := g.nextSeq()
	pow2 := 1
	for pow2*2 <= g.Size {
		pow2 *= 2
	}
	rem := g.Size - pow2

	// Fold-in: extra ranks contribute to their partner and wait for the
	// folded-out result.
	if g.Rank >= pow2 {
		g.sendRed(g.Rank-pow2, foldInSlot(seq), seq, v)
		return g.recvRed(foldOutSlot(seq), seq)
	}
	if g.Rank < rem {
		v = op.Apply(v, g.recvRed(foldInSlot(seq), seq))
	}
	round := 0
	for mask := 1; mask < pow2; mask <<= 1 {
		peer := g.Rank ^ mask
		g.sendRed(peer, redSlotIdx(round, seq), seq, v)
		v = op.Apply(v, g.recvRed(redSlotIdx(round, seq), seq))
		round++
	}
	if g.Rank < rem {
		g.sendRed(g.Rank+pow2, foldOutSlot(seq), seq, v)
	}
	return v
}

// Bcast8 broadcasts one word from root with a binomial tree, closed by a
// Barrier. The barrier is what makes channel reuse safe here: with varying
// roots the channel's writer changes between invocations, and without full
// synchronization a parent (which otherwise never waits) could start a
// later broadcast and overwrite the value before a slow child read it.
func (g Group) Bcast8(root int, v uint64) uint64 {
	if g.Size == 1 {
		return v
	}
	seq := g.nextSeq()
	vrank := (g.Rank - root + g.Size) % g.Size

	mask := 1
	for mask < g.Size {
		if vrank&mask != 0 {
			g.waitFlagGE(bcOff, seq)
			g.EP.MergeStamp(g.Reg, g.Base+bcOff+8, 8)
			v = g.Reg.LocalWord(g.Base + bcOff + 8)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := vrank + mask; vrank&(mask-1) == 0 && vrank&mask == 0 && child < g.Size {
			peer := (child + root) % g.Size
			g.EP.StoreW(g.addr(peer, bcOff+8), v)
			g.EP.StoreW(g.addr(peer, bcOff), seq)
		}
	}
	g.Barrier()
	return v
}

// FAllreduce reduces a float64 with OpFSum (convenience).
func (g Group) FAllreduce(x float64) float64 {
	return math.Float64frombits(g.Allreduce8(OpFSum, math.Float64bits(x)))
}
