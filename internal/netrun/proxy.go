package netrun

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"fompi/internal/faultnet"
	"fompi/internal/rankio"
	"fompi/internal/simnet"
	"fompi/internal/timing"
)

// Requester side of the wire protocol: every Endpoint operation on a region
// owned by another rank becomes one request frame on this rank's connection
// to the owner. Requests are confined to the rank's goroutine — the
// Endpoint confinement contract — so replies match requests by order with
// no tags. Since v5 the put-shaped operations pipeline through the
// per-destination window (session.go): PutAsync and friends fuse into
// opBatch frames and deliver their completion times at the next drain,
// while value-returning operations still block — after draining every
// window frame ahead of them, which is what keeps the stream's
// request/reply order aligned.

// peerConn is one lazily dialed requester connection.
type peerConn struct {
	c    net.Conn
	rd   *bufio.Reader
	buf  []byte // request frame scratch, reused across requests
	rbuf []byte // reply frame scratch
}

// peerErr returns the connection to rank r, dialing it on first use. The
// dial retries with backoff inside dialAttempts — a peer's listener can be
// briefly unreachable on a congested fabric, and faultnet injects exactly
// that refusal — so one lost SYN never kills a world.
func (w *World) peerErr(r int) (*peerConn, error) {
	w.peerMu.Lock()
	p := w.peers[r]
	w.peerMu.Unlock()
	if p != nil {
		return p, nil
	}
	if err := w.AbortErr(); err != nil {
		panic(err)
	}
	var c net.Conn
	var err error
	for attempt, back := 0, dialBackoff; attempt < dialAttempts; attempt, back = attempt+1, back*2 {
		c, err = faultnet.DialData("tcp", w.Addrs()[r], rankio.BootTimeout)
		if err == nil {
			break
		}
		if err := w.AbortErr(); err != nil {
			panic(err)
		}
		if attempt < dialAttempts-1 {
			time.Sleep(back)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("cannot reach rank %d at %s: %w", r, w.Addrs()[r], err)
	}
	if tc, ok := c.(interface{ SetNoDelay(bool) error }); ok {
		tc.SetNoDelay(true) // requests are latency-bound RPCs, not bulk streams
	}
	p = &peerConn{c: c, rd: bufio.NewReader(c)}
	e := newEnc(nil)
	e.u8(opHello)
	e.i64(0)
	e.u32(uint32(w.rank))
	c.SetWriteDeadline(time.Now().Add(w.opTimeout))
	_, err = c.Write(e.finish())
	c.SetWriteDeadline(time.Time{})
	if err != nil {
		c.Close()
		return nil, err
	}
	w.peerMu.Lock()
	if w.peers[r] == nil {
		w.peers[r] = p
	} else {
		c.Close()
		p = w.peers[r]
	}
	w.peerMu.Unlock()
	return p, nil
}

// peer is peerErr for the non-retryable paths: a dial that exhausted its
// attempts is a peer failure.
func (w *World) peer(r int) *peerConn {
	p, err := w.peerErr(r)
	if err != nil {
		panic(w.netFault(r, err))
	}
	return p
}

// dropPeer discards a connection whose stream may be desynced (torn frame,
// timed-out round trip): the next use must redial with a fresh HELLO.
func (w *World) dropPeer(r int, p *peerConn) {
	w.peerMu.Lock()
	if w.peers[r] == p {
		w.peers[r] = nil
	}
	w.peerMu.Unlock()
	p.c.Close()
}

// req starts a request frame to rank r with the piggybacked clock.
func (w *World) req(p *peerConn, op uint8) enc {
	e := newEnc(p.buf)
	e.u8(op)
	e.i64(w.ownClock())
	return e
}

// callErr sends the built frame under the per-op deadline and returns the
// reply payload (past the status byte). Faults reported by the owner
// re-panic here typed (see remoteFault — they are world-level, not
// transport-level); transport failures — write error, reset, a round trip
// exceeding the op timeout — drop the connection (its stream may be
// desynced) and are returned for the caller to classify or retry.
func (w *World) callErr(r int, p *peerConn, e enc) (dec, error) {
	frame := e.finish()
	reply, err := w.wireCall(p, frame, time.Now().Add(w.opTimeout))
	p.buf = frame[:0]
	if err != nil {
		w.dropPeer(r, p)
		return dec{}, err
	}
	return w.replyDec(r, reply), nil
}

// callIdem issues one idempotent control request — a pure read or a
// re-armable wait (opRegQuery, opDoorGen, opDoorWait, opClock) — retrying
// with backoff across fresh connections: transient transport trouble on
// the control plane must not kill a world. Data-plane ops never come
// through here — they ride the session layer (reqData/callData), which
// recovers by resume-and-replay instead of blind reissue.
func (w *World) callIdem(r int, op uint8, args func(e *enc)) dec {
	// Control replies share the stream with pending data replies, and reply
	// matching is by order: the window to r must be empty before a control
	// request goes out. (Every callIdem caller runs on the rank's goroutine,
	// the same confinement the window state relies on.)
	w.drainDst(r)
	var lastErr error
	for attempt, back := 0, idemBackoff; attempt < idemAttempts; attempt, back = attempt+1, back*2 {
		if err := w.AbortErr(); err != nil {
			panic(err)
		}
		if attempt > 0 {
			time.Sleep(back)
		}
		p, err := w.peerErr(r)
		if err != nil {
			lastErr = err
			continue
		}
		e := w.req(p, op)
		if args != nil {
			args(&e)
		}
		d, err := w.callErr(r, p, e)
		if err != nil {
			lastErr = err
			continue
		}
		return d
	}
	panic(w.netFault(r, lastErr))
}

// netFault classifies a connection failure: after an abort every blocked
// requester unwinds through the abort panic (the Transport contract);
// otherwise this rank holds first-hand evidence that r is gone and unwinds
// with a typed *simnet.ErrPeerFailed naming it.
func (w *World) netFault(r int, err error) any {
	// A failure often races the abort broadcast: give the control stream a
	// moment to deliver the verdict so unwinding keeps the right reason.
	for i := 0; i < 100 && !w.Aborted(); i++ {
		time.Sleep(2 * time.Millisecond)
	}
	if err := w.AbortErr(); err != nil {
		return err
	}
	w.NoteFailedRank(r)
	return &simnet.ErrPeerFailed{Rank: r,
		Cause: fmt.Errorf("rank %d lost rank %d: %w", w.rank, r, err)}
}

// sendRing delivers a fire-and-forget doorbell ring to rank r's owner loop.
// Send errors are swallowed — a vanished peer either finished cleanly (its
// waiters are gone) or crashed (the abort broadcast is on its way) — but
// the connection is dropped: a deadline can tear a frame mid-write, and a
// torn frame desyncs the stream for every later request, so the next use
// must redial with a fresh HELLO.
func (w *World) sendRing(r int) {
	defer func() { recover() }()
	// Best effort: push any queued window frames out first so the ring
	// stays ordered behind the data it announces. (A reconnect can still
	// reorder them; waiters tolerate that — WaitDoor allows spurious
	// wakeups and re-polls on a timeout slice.)
	if len(w.rsess) > 0 && r != w.rank {
		w.sendPending(r)
	}
	p := w.peer(r)
	e := w.req(p, opRing)
	frame := e.finish()
	p.c.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_, err := p.c.Write(frame)
	p.c.SetWriteDeadline(time.Time{})
	if err != nil {
		w.dropPeer(r, p)
		return
	}
	p.buf = frame[:0]
}

// queryRegion resolves a foreign registration's liveness and size (a pure
// read: retried transparently).
func (w *World) queryRegion(r int, k simnet.Key) (uint8, int) {
	d := w.callIdem(r, opRegQuery, func(e *enc) { e.u32(uint32(k)) })
	state := d.u8()
	size := int(d.u64())
	return state, size
}

// rpcDoorGen samples rank r's doorbell generation over the wire (a pure
// read: retried transparently).
func (w *World) rpcDoorGen(r int) uint64 {
	d := w.callIdem(r, opDoorGen, nil)
	return d.u64()
}

// rpcDoorWait parks at rank r's door (for the owner's simnet.DoorSlice at
// most) and returns the generation current when the owner answered. The wait
// re-arms on a fresh connection after transient trouble — a timed-out slice
// answers with the current generation either way, so a retry is
// indistinguishable from a spurious wakeup (which the WaitDoor contract
// allows).
func (w *World) rpcDoorWait(r int, gen uint64) uint64 {
	d := w.callIdem(r, opDoorWait, func(e *enc) { e.u64(gen) })
	return d.u64()
}

// refreshClock fetches rank r's published clock into the pacer's table (the
// pacing hook's Refresh). When the peer is unreachable the cached value
// stands, and the abort, if any, ends the caller's block.
func (w *World) refreshClock(r int) {
	if w.Aborted() {
		return
	}
	defer func() { recover() }()
	d := w.callIdem(r, opClock, nil)
	w.pacer.Observe(r, d.i64())
}

// remoteMem is the simnet.RemoteMem proxy for one foreign registration: the
// requester-side stub whose methods are single wire round trips executed by
// the owner's RegionExec.
type remoteMem struct {
	w    *World
	rank int
	key  simnet.Key
	size int
}

var (
	_ simnet.RemoteMem = (*remoteMem)(nil)
	_ simnet.AsyncMem  = (*remoteMem)(nil)
)

// Size returns the registered length learned at materialization.
func (m *remoteMem) Size() int { return m.size }

// addrHdr appends the (key, off) prefix shared by all data-plane ops.
func (m *remoteMem) addrHdr(e *enc, off int) {
	e.u32(uint32(m.key))
	e.u64(uint64(off))
}

// Put ships the bytes and stamp work to the owner (see simnet.RemoteMem).
func (m *remoteMem) Put(off int, src []byte, reserve bool, arrival timing.Time, xfer int64) timing.Time {
	e := m.w.reqData(m.rank, opPut)
	m.addrHdr(&e, off)
	e.i64(int64(arrival))
	e.i64(xfer)
	e.boolByte(reserve)
	e.bytes(src)
	d := m.w.callData(m.rank, e)
	return timing.Time(d.i64())
}

// Get fetches the bytes and their completion time.
func (m *remoteMem) Get(dst []byte, off int, clockIn timing.Time, reserve bool, tail, xfer int64) timing.Time {
	e := m.w.reqData(m.rank, opGet)
	m.addrHdr(&e, off)
	e.u64(uint64(len(dst)))
	e.i64(int64(clockIn))
	e.i64(tail)
	e.i64(xfer)
	e.boolByte(reserve)
	d := m.w.callData(m.rank, e)
	comp := timing.Time(d.i64())
	copy(dst, d.rest())
	return comp
}

// StoreWord ships one word store (see simnet.RemoteMem).
func (m *remoteMem) StoreWord(off int, v uint64, reserve bool, arrival timing.Time, xfer int64) timing.Time {
	e := m.w.reqData(m.rank, opStoreW)
	m.addrHdr(&e, off)
	e.u64(v)
	e.i64(int64(arrival))
	e.i64(xfer)
	e.boolByte(reserve)
	d := m.w.callData(m.rank, e)
	return timing.Time(d.i64())
}

// LoadWord reads one word and its stamp in one round trip. (A pure read,
// but it rides the session layer with the rest of the data plane: one
// recovery path, and the reply cache keeps a retried load coherent with
// the interleaving it originally observed.)
func (m *remoteMem) LoadWord(off int) (uint64, timing.Time) {
	e := m.w.reqData(m.rank, opLoadW)
	m.addrHdr(&e, off)
	d := m.w.callData(m.rank, e)
	v := d.u64()
	return v, timing.Time(d.i64())
}

// WordAmo ships one word atomic (see simnet.RemoteMem).
func (m *remoteMem) WordAmo(op simnet.WordOp, off int, o1, o2 uint64, clockIn, srcFree timing.Time, reserve bool, lat, xfer int64) (old uint64, land, base, newFree timing.Time) {
	e := m.w.reqData(m.rank, opWordAmo)
	m.addrHdr(&e, off)
	e.u8(uint8(op))
	e.u64(o1)
	e.u64(o2)
	e.i64(int64(clockIn))
	e.i64(int64(srcFree))
	e.i64(lat)
	e.i64(xfer)
	e.boolByte(reserve)
	d := m.w.callData(m.rank, e)
	old = d.u64()
	land = timing.Time(d.i64())
	base = timing.Time(d.i64())
	newFree = timing.Time(d.i64())
	return old, land, base, newFree
}

// BulkAmo ships one chained atomic (see simnet.RemoteMem).
func (m *remoteMem) BulkAmo(op simnet.AmoOp, off int, src []byte, clockIn, srcFree timing.Time, reserve bool, lat, xfer int64) (comp, newFree timing.Time) {
	e := m.w.reqData(m.rank, opBulkAmo)
	m.addrHdr(&e, off)
	e.u8(uint8(op))
	e.i64(int64(clockIn))
	e.i64(int64(srcFree))
	e.i64(lat)
	e.i64(xfer)
	e.boolByte(reserve)
	e.bytes(src)
	d := m.w.callData(m.rank, e)
	comp = timing.Time(d.i64())
	newFree = timing.Time(d.i64())
	return comp, newFree
}

// Notify ships one ring deposit (see simnet.RemoteMem).
func (m *remoteMem) Notify(off int, word uint64, reserve bool, arrival timing.Time, xfer int64) timing.Time {
	e := m.w.reqData(m.rank, opNotify)
	m.addrHdr(&e, off)
	e.u64(word)
	e.i64(int64(arrival))
	e.i64(xfer)
	e.boolByte(reserve)
	d := m.w.callData(m.rank, e)
	return timing.Time(d.i64())
}

// PutAsync queues one put as a fused sub-op on the window to the owner (see
// simnet.AsyncMem): the field layout past the opcode is exactly Put's, and
// the completion time lands in sink at the next drain.
func (m *remoteMem) PutAsync(off int, src []byte, reserve bool, arrival timing.Time, xfer int64, sink *timing.Time, fold bool) {
	e := m.w.subOp(m.rank, opPut, sink, fold)
	m.addrHdr(&e, off)
	e.i64(int64(arrival))
	e.i64(xfer)
	e.boolByte(reserve)
	e.bytes(src)
	m.w.subDone(m.rank, e)
}

// StoreWordAsync queues one word store as a fused sub-op (see PutAsync).
func (m *remoteMem) StoreWordAsync(off int, v uint64, reserve bool, arrival timing.Time, xfer int64, sink *timing.Time, fold bool) {
	e := m.w.subOp(m.rank, opStoreW, sink, fold)
	m.addrHdr(&e, off)
	e.u64(v)
	e.i64(int64(arrival))
	e.i64(xfer)
	e.boolByte(reserve)
	m.w.subDone(m.rank, e)
}

// NotifyAsync queues one ring deposit as a fused sub-op (see PutAsync).
func (m *remoteMem) NotifyAsync(off int, word uint64, reserve bool, arrival timing.Time, xfer int64, sink *timing.Time, fold bool) {
	e := m.w.subOp(m.rank, opNotify, sink, fold)
	m.addrHdr(&e, off)
	e.u64(word)
	e.i64(int64(arrival))
	e.i64(xfer)
	e.boolByte(reserve)
	m.w.subDone(m.rank, e)
}
