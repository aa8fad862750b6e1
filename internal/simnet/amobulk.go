package simnet

import (
	"errors"
	"fmt"

	"fompi/internal/timing"
)

// AmoBulkNBI applies op element-wise between src (a multiple of 8 bytes)
// and the remote words starting at a, atomically per word, with implicit
// completion: one non-fetching Amo over the range, the same operation a
// fetching word AMO is. It models DMAPP's chained AMOs: one injection, then
// AmoPerElNs per element through the target's atomic unit — which is why
// accelerated accumulates cost 28 ns per element rather than a full
// injection each (P_acc,sum = 28 ns·s + 2.4 µs). Every accumulate whose
// operator the unit implements comes here, to FetchOpBulk or to FetchOp,
// whatever its length; only MIN, MAX and FSUM take core's
// lock-get-modify-put fallback.
func (ep *Endpoint) AmoBulkNBI(a Addr, op AmoOp, src []byte) {
	ep.implicitMax = timing.Max(ep.implicitMax, ep.amoBulk(a, op, src, nil))
}

// FetchOpBulk is AmoBulkNBI fetching: the prior words come back in old (as
// long as src), and it blocks until they do. It is DMAPP's fetching chained
// AMO — one Amo with a fetch buffer, one opAmo on the wire — priced as the
// non-fetching chain is. The chain holds the target's port, so each element
// is atomic, as MPI_Get_accumulate asks.
func (ep *Endpoint) FetchOpBulk(a Addr, op AmoOp, src, old []byte) {
	ep.AdvanceTo(ep.amoBulk(a, op, src, old))
}

// amoBulk issues one chained AMO, fetching into old unless it is nil, and
// returns its completion.
func (ep *Endpoint) amoBulk(a Addr, op AmoOp, src, old []byte) timing.Time {
	if len(src)%8 != 0 {
		panic("simnet: bulk AMO length must be a multiple of 8")
	}
	ep.paceOp()
	rt := ep.route(a)
	reg, pr, same := rt.reg, rt.pr, rt.same
	ep.clock += timing.Time(pr.InjectNs)
	n := len(src) / 8
	lat, xfer := pr.AmoNs+int64(n)*pr.AmoPerElNs, ep.xferNs(rt, len(src))
	var comp, free timing.Time
	if rm := reg.rmt; rm != nil {
		reg.check(a.Off, len(src))
		comp, _, free = rm.Amo(op, a.Off, src, 0, old, ep.clock, ep.nicFree, !same, lat, xfer)
	} else {
		comp, _, free = ep.exec(reg).Amo(op, a.Off, src, 0, old, ep.clock, ep.nicFree, !same, lat, xfer)
	}
	if !same {
		ep.nicFree = free
	}
	ep.ctr.Amos += int64(n)
	ep.ctr.BytesPut += int64(len(src))
	return comp
}

// ErrNotSameNode reports a shared-mapping request between ranks on different
// nodes: the XPMEM primitive only spans one node, on every backend.
var ErrNotSameNode = errors.New("simnet: XPMEM mapping requires same-node ranks")

// ErrNotMapped reports a shared-mapping request for a region the calling
// process cannot address: the target rank shares the caller's (virtual) node
// but lives in a process whose memory this backend does not map (the
// inter-node backend without a shared arena).
var ErrNotMapped = errors.New("simnet: region is not locally mapped (inter-node backend cannot map remote regions)")

// SharedErr maps a remote region into the caller's address space, the XPMEM
// primitive behind MPI-3 shared-memory windows. It is only legal between
// ranks on the same node; accesses are raw loads and stores with no virtual
// time accounting (call Compute for modelled work). Cross-node requests fail
// with ErrNotSameNode; same-node requests whose memory the backend cannot
// map fail with ErrNotMapped (both via errors.Is).
func (ep *Endpoint) SharedErr(a Addr, n int) ([]byte, error) {
	if !ep.sameNodeTo(a.Rank) {
		return nil, fmt.Errorf("%w (rank %d is on node %d, rank %d on node %d)",
			ErrNotSameNode, ep.rank, ep.node, a.Rank, a.Rank/ep.rpn)
	}
	reg := ep.route(a).reg
	if reg.rmt != nil {
		return nil, fmt.Errorf("%w (rank %d key %d is owned by another process)",
			ErrNotMapped, a.Rank, a.Key)
	}
	reg.check(a.Off, n)
	return reg.buf[a.Off : a.Off+n], nil
}

// Shared is SharedErr for callers that treat an unmappable target as fatal;
// it panics with the typed error (errors.Is works on the recovered value).
func (ep *Endpoint) Shared(a Addr, n int) []byte {
	b, err := ep.SharedErr(a, n)
	if err != nil {
		panic(err)
	}
	return b
}
