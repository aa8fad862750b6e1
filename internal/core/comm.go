package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"fompi/internal/simnet"
)

// Communication functions (§2.4). The contiguous fast path maps MPI_Put and
// MPI_Get directly onto one fabric operation (adding stepsPutGet software
// steps). An accumulate's path depends on its operator alone: the common
// 8-byte integer operators ride the DMAPP-accelerated atomic unit in every
// call (Accumulate, GetAccumulate, FetchAndOp), and MIN, MAX and FSUM take
// the paper's lock-get-accumulate-put protocol, so true passive mode never
// involves the target CPU. One operator, one path, is what makes same-op
// accumulates to a location atomic with respect to each other (MPI-3
// §11.7.1): the fallback's lock does not exclude the atomic unit.

// AccOp selects an accumulate operator.
type AccOp int

// Accumulate operators. SUM/BAND/BOR/BXOR/REPLACE on 8-byte integers, and
// NO_OP, ride the hardware atomic unit; MIN, MAX and FSUM (float64 sum) take
// the lock-based fallback, as on Gemini (§2.4, §3.1.3).
const (
	AccSum AccOp = iota
	AccBand
	AccBor
	AccBxor
	AccReplace
	AccMin
	AccMax
	AccFSum
	AccNoOp // fetch-only (MPI_NO_OP)
)

// amo returns the atomic-unit operator behind op; ok is false for the
// operators the fallback serves (MIN, MAX, FSUM). The path is a function of
// the operator and never of the operand's size: a multi-element accumulate
// that took the fallback would race the atomic unit's single-element calls.
func (op AccOp) amo() (aop simnet.AmoOp, ok bool) {
	switch op {
	case AccSum:
		return simnet.AmoSum, true
	case AccBand:
		return simnet.AmoBand, true
	case AccBor:
		return simnet.AmoBor, true
	case AccBxor:
		return simnet.AmoBxor, true
	case AccReplace:
		return simnet.AmoReplace, true
	case AccNoOp:
		return simnet.AmoNoOp, true
	}
	return 0, false
}

// apply computes op(target, operand): the fallback's arithmetic, defined for
// every operator so that it also states what the atomic unit computes.
func (op AccOp) apply(target, operand uint64) uint64 {
	switch op {
	case AccSum:
		return target + operand
	case AccBand:
		return target & operand
	case AccBor:
		return target | operand
	case AccBxor:
		return target ^ operand
	case AccReplace:
		return operand
	case AccMin:
		if operand < target {
			return operand
		}
		return target
	case AccMax:
		if operand > target {
			return operand
		}
		return target
	case AccFSum:
		return math.Float64bits(math.Float64frombits(target) + math.Float64frombits(operand))
	case AccNoOp:
		return target
	default:
		panic("core: unknown accumulate op")
	}
}

// checkEpochAccess faults on communication outside any epoch: bufferless
// protocols have nowhere to queue such operations.
func (w *Win) checkEpochAccess() {
	if w.epoch == epochNone {
		panic("core: RMA communication outside an access epoch (fence, start, or lock first)")
	}
}

// Put transfers src into target's window at displacement disp
// (MPI_Put: nonblocking, completed by the epoch's synchronization).
func (w *Win) Put(src []byte, target, disp int) {
	w.checkEpochAccess()
	w.ep.Steps(stepsPutGet)
	w.ep.PutNBI(w.addrOf(target, disp, len(src)), src)
}

// Get transfers target's window contents at disp into dst (MPI_Get).
func (w *Win) Get(dst []byte, target, disp int) {
	w.checkEpochAccess()
	w.ep.Steps(stepsPutGet)
	w.ep.GetNBI(dst, w.addrOf(target, disp, len(dst)))
}

// RPut is the request-based MPI_Rput: the returned handle completes the
// single operation without a bulk flush.
func (w *Win) RPut(src []byte, target, disp int) simnet.Handle {
	w.checkEpochAccess()
	w.ep.Steps(stepsPutGet)
	return w.ep.PutNB(w.addrOf(target, disp, len(src)), src)
}

// RGet is the request-based MPI_Rget.
func (w *Win) RGet(dst []byte, target, disp int) simnet.Handle {
	w.checkEpochAccess()
	w.ep.Steps(stepsPutGet)
	return w.ep.GetNB(dst, w.addrOf(target, disp, len(dst)))
}

// WaitRequest completes one request-based operation.
func (w *Win) WaitRequest(h simnet.Handle) { w.ep.Wait(h) }

// PutDyn and GetDyn address dynamic windows by (attach slot, offset); the
// origin-side cache protocol of §2.2 resolves them with at most one extra
// remote read per call.

// PutDyn puts src into the attached region slot at target.
func (w *Win) PutDyn(src []byte, target, slot, off int) {
	w.checkEpochAccess()
	w.ep.Steps(stepsPutGet)
	w.ep.PutNBI(w.dynResolve(target, slot, off, len(src)), src)
}

// GetDyn gets from the attached region slot at target.
func (w *Win) GetDyn(dst []byte, target, slot, off int) {
	w.checkEpochAccess()
	w.ep.Steps(stepsPutGet)
	w.ep.GetNBI(dst, w.dynResolve(target, slot, off, len(dst)))
}

// accLockAcquire takes the window-internal accumulate lock of target: the
// serialization point of the fallback protocol. It never involves the
// target CPU (remote CAS spin with back-off).
func (w *Win) accLockAcquire(target int) {
	a := w.ctlAddr(target, ctlAccLock)
	for w.ep.CompareSwap(a, 0, 1) != 0 {
		w.ep.PollRemoteWord(a, func(v uint64) bool { return v == 0 })
	}
}

func (w *Win) accLockRelease(target int) {
	w.ep.AddNBI(w.ctlAddr(target, ctlAccLock), neg(1))
}

// Accumulate applies op element-wise between the 8-byte words of src and
// the target window at disp (MPI_Accumulate with MPI_UINT64_T-sized
// elements, the paper's benchmark configuration). Accelerated operators
// ride the chained atomic unit; MIN, MAX and FSUM lock, get, accumulate
// locally, and put back (§2.4).
func (w *Win) Accumulate(op AccOp, src []byte, target, disp int) {
	w.checkEpochAccess()
	if len(src)%8 != 0 {
		panic("core: Accumulate needs a multiple of 8 bytes")
	}
	a := w.addrOf(target, disp, len(src))
	if aop, ok := op.amo(); ok {
		w.ep.AmoBulkNBI(a, aop, src)
		return
	}
	w.accLocked(op, src, nil, a, target)
}

// accLocked is the fallback protocol for MIN, MAX and FSUM: under target's
// accumulate lock it gets the target words (copied into old unless old is
// nil), applies op locally and puts the result back.
func (w *Win) accLocked(op AccOp, src, old []byte, a simnet.Addr, target int) {
	cur := make([]byte, len(src))
	w.accLockAcquire(target)
	w.ep.GetNBI(cur, a)
	w.ep.Gsync()
	copy(old, cur)
	for i := 0; i < len(src); i += 8 {
		t := binary.LittleEndian.Uint64(cur[i:])
		o := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(cur[i:], op.apply(t, o))
	}
	w.ep.Compute(accApplyNs * int64(len(src)/8))
	w.ep.PutNBI(a, cur)
	w.ep.Gsync()
	w.accLockRelease(target)
}

// accApplyNs is the local per-element cost of the fallback's accumulate
// loop; with the wire terms it yields the paper's P_acc,min slope of
// ~0.8 ns per byte.
const accApplyNs = 4

// GetAccumulate fetches the previous target contents into result while
// applying op(src) to the target (MPI_Get_accumulate). An accelerated op is
// one fetching AMO over one element and one fetching chained AMO over more:
// the chain holds the target's port, so every element is atomic, which is
// all MPI asks.
func (w *Win) GetAccumulate(op AccOp, src, result []byte, target, disp int) {
	w.checkEpochAccess()
	if len(src) != len(result) || len(src)%8 != 0 {
		panic("core: GetAccumulate needs equal, 8-byte-multiple buffers")
	}
	a := w.addrOf(target, disp, len(src))
	aop, ok := op.amo()
	switch {
	case !ok:
		w.accLocked(op, src, result, a, target)
	case len(src) == 8:
		binary.LittleEndian.PutUint64(result, w.ep.FetchOp(a, aop, binary.LittleEndian.Uint64(src)))
	case len(src) > 8:
		w.ep.FetchOpBulk(a, aop, src, result)
	}
}

// FetchAndOp is the single-element MPI_Fetch_and_op: op(target, src) with
// the previous value returned. An accelerated op is one fetching AMO (NO_OP
// an atomic read of the word); MIN, MAX and FSUM take the fallback.
func (w *Win) FetchAndOp(op AccOp, src uint64, target, disp int) uint64 {
	w.checkEpochAccess()
	a := w.addrOf(target, disp, 8)
	if op == AccNoOp {
		return w.ep.LoadW(a)
	}
	if aop, ok := op.amo(); ok {
		return w.ep.FetchOp(a, aop, src)
	}
	var sb, rb [8]byte
	binary.LittleEndian.PutUint64(sb[:], src)
	w.accLocked(op, sb[:], rb[:], a, target)
	return binary.LittleEndian.Uint64(rb[:])
}

// CompareAndSwap is MPI_Compare_and_swap on one 8-byte element.
func (w *Win) CompareAndSwap(compare, swap uint64, target, disp int) uint64 {
	w.checkEpochAccess()
	return w.ep.CompareSwap(w.addrOf(target, disp, 8), compare, swap)
}

// boundsErr formats a window access error (used by tests).
func boundsErr(off, n, size, rank int) string {
	return fmt.Sprintf("core: access [%d,%d) exceeds window of %d bytes at rank %d", off, off+n, size, rank)
}
