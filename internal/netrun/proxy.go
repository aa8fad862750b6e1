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
// owned by another rank, and every question this rank asks of an off-host
// one (a region's liveness, a doorbell generation, a wait at its door, its
// clock), becomes one entry of a frame's list on this rank's connection to
// the owner (session.go). Requests are confined to the rank's goroutine —
// the Endpoint confinement contract — so replies match frames by order with
// no tags. A fire-class operation appends its entry and returns, its
// completion time delivered at the next drain; a value-class one appends
// itself last, sends the frame and blocks for the reply — behind every
// frame ahead of it in the window.

// peerConn is one lazily dialed requester connection.
type peerConn struct {
	c    net.Conn
	rd   *bufio.Reader
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
	c.SetWriteDeadline(time.Now().Add(w.budget))
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

// netFault classifies a request to rank r that ran out its budget: after an
// abort every blocked requester unwinds through the abort panic (the
// Transport contract). Otherwise r fell silent in a way the control plane
// cannot see — the coordinator's verdict would have arrived inside the
// budget — and this rank fails as itself: only the verdict declares a rank
// dead.
func (w *World) netFault(r int, err error) any {
	if err := w.AbortErr(); err != nil {
		return err
	}
	return fmt.Errorf("netrun: rank %d: no answer from rank %d within %v: %w", w.rank, r, w.budget, err)
}

// queryRegion resolves a foreign registration's liveness and size.
func (w *World) queryRegion(r int, k simnet.Key) (bool, int) {
	e := w.entry(r, opRegQuery, nil, false)
	e.u32(uint32(k))
	d := w.call(r, e)
	state, size := d.u8(), int(d.u64())
	d.complete(r)
	return state == regLive, size
}

// ctlWord asks rank r one control question whose argument, if it has one,
// and answer are a word each (opDoorGen, opDoorWait, opDoorRing, opClock).
func (w *World) ctlWord(r int, op uint8, arg ...uint64) uint64 {
	e := w.entry(r, op, nil, false)
	for _, a := range arg {
		e.u64(a)
	}
	d := w.call(r, e)
	v := d.u64()
	d.complete(r)
	return v
}

// refreshClock fetches rank r's published clock into the pacer's table (the
// pacing hook's Refresh). When the peer is unreachable the cached value
// stands, and the abort, if any, ends the caller's block.
func (w *World) refreshClock(r int) {
	if w.Aborted() {
		return
	}
	defer func() { recover() }()
	w.pacer.Observe(r, int64(w.ctlWord(r, opClock)))
}

// remoteMem is the simnet.RemoteMem proxy for one foreign registration: the
// requester-side stub whose methods are list entries executed by the owner's
// RegionExec.
type remoteMem struct {
	w    *World
	rank int
	key  simnet.Key
	size int
}

var _ simnet.RemoteMem = (*remoteMem)(nil)

// Size returns the registered length learned at materialization.
func (m *remoteMem) Size() int { return m.size }

// op begins one entry against this registration: the opcode and the
// (key, off) prefix every data-plane op shares.
func (m *remoteMem) op(code uint8, off int, sink *timing.Time, fold bool) enc {
	e := m.w.entry(m.rank, code, sink, fold)
	e.u32(uint32(m.key))
	e.u64(uint64(off))
	return e
}

// Put posts the bytes and stamp work to the owner, whose port release
// rings its doorbell (see simnet.RemoteMem).
func (m *remoteMem) Put(off int, src []byte, reserve bool, arrival timing.Time, xfer int64, sink *timing.Time, fold bool) {
	e := m.op(opPut, off, sink, fold)
	e.i64(int64(arrival))
	e.i64(xfer)
	e.boolByte(reserve)
	e.bytes(src)
	m.w.fire(m.rank, e)
}

// Get fetches the bytes and their completion time.
func (m *remoteMem) Get(dst []byte, off int, clockIn timing.Time, reserve bool, tail, xfer int64) timing.Time {
	e := m.op(opGet, off, nil, false)
	e.u64(uint64(len(dst)))
	e.i64(int64(clockIn))
	e.i64(tail)
	e.i64(xfer)
	e.boolByte(reserve)
	d := m.w.call(m.rank, e)
	comp := timing.Time(d.i64())
	data := d.rest()
	d.bad = d.bad || len(data) != len(dst)
	d.complete(m.rank)
	copy(dst, data)
	return comp
}

// Amo ships one atomic; a fetching one's prior words come back behind its
// times (see simnet.RemoteMem).
func (m *remoteMem) Amo(op simnet.AmoOp, off int, src []byte, swap uint64, old []byte, clockIn, srcFree timing.Time, reserve bool, lat, xfer int64) (land, base, newFree timing.Time) {
	e := m.op(opAmo, off, nil, false)
	e.u8(uint8(op))
	e.boolByte(old != nil)
	e.u64(swap)
	e.i64(int64(clockIn))
	e.i64(int64(srcFree))
	e.i64(lat)
	e.i64(xfer)
	e.boolByte(reserve)
	e.bytes(src)
	d := m.w.call(m.rank, e)
	land = timing.Time(d.i64())
	base = timing.Time(d.i64())
	newFree = timing.Time(d.i64())
	var fetched []byte
	if old != nil {
		fetched = d.rest()
		d.bad = d.bad || len(fetched) != len(old)
	}
	d.complete(m.rank)
	copy(old, fetched)
	return land, base, newFree
}

// Notify ships one ring deposit and returns its completion (see
// simnet.RemoteMem).
func (m *remoteMem) Notify(off int, word uint64, reserve bool, arrival timing.Time, xfer int64) timing.Time {
	e := m.op(opNotify, off, nil, false)
	e.u64(word)
	e.i64(int64(arrival))
	e.i64(xfer)
	e.boolByte(reserve)
	d := m.w.call(m.rank, e)
	comp := timing.Time(d.i64())
	d.complete(m.rank)
	return comp
}
