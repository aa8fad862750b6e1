package netrun

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"fompi/internal/simnet"
	"fompi/internal/sock"
	"fompi/internal/timing"
)

// Owner side of the wire protocol: one goroutine per inbound connection
// reads frames in order and executes their lists against this rank's
// regions through simnet.RegionExec — the paper's "no remote software
// agent" property necessarily softens to a service loop here, but the loop
// runs only transport work (byte movement, stamps, NIC booking, the ring each
// write carries in its port release), never protocol logic, and applies each
// source's operations in that source's issue order (TCP in-order delivery,
// list order within a frame).
// Cross-source interleaving is governed by the same word-atomic primitives
// the in-process fabric uses, so concurrency semantics match.

// acceptLoop admits peer connections until the listener closes (abort or
// process exit).
func (w *World) acceptLoop() {
	for {
		c, err := w.ln.Accept()
		if err != nil {
			return
		}
		w.svcMu.Lock()
		if w.svcClosed {
			w.svcMu.Unlock()
			c.Close()
			continue
		}
		w.svcConns[c] = struct{}{}
		w.svcWg.Add(1)
		w.svcMu.Unlock()
		go func() {
			defer w.svcWg.Done()
			w.serveConn(c)
			w.svcMu.Lock()
			delete(w.svcConns, c)
			w.svcMu.Unlock()
		}()
	}
}

// stopService closes the data-plane listener and every inbound service
// connection, then waits for their goroutines to drain. After it returns no
// remote operation can touch this rank's memory, so the caller may safely
// release arena-backed regions. Called only once the world is over —
// after BYE or abort — when nobody is waiting on a frame still buffered on an
// inbound stream.
func (w *World) stopService() {
	w.ln.Close()
	w.svcMu.Lock()
	w.svcClosed = true
	for c := range w.svcConns {
		c.Close()
	}
	w.svcMu.Unlock()
	w.svcWg.Wait()
}

// serveConn runs one peer's request stream: a HELLO, then session frames.
func (w *World) serveConn(c sock.Conn) {
	defer c.Close()
	rd := bufio.NewReader(c)
	var inBuf, outBuf []byte
	src := -1 // rank behind this connection, learned from opHello
	for {
		frame, err := readFrame(rd, inBuf)
		if err != nil {
			return // EOF: peer finished, died, or the world aborted
		}
		inBuf = frame
		d := dec{b: frame}
		op := d.u8()
		clk := d.i64()
		if op == opHello {
			// Bound the claimed rank: the data listener is reachable by
			// anything on the network in host-list mode, and a stray
			// connection must not be able to crash the clock table.
			if r := int(d.u32()); r >= 0 && r < w.Size() {
				src = r
				continue
			}
			return
		}
		// Anything but a session frame leaves the stream unreadable, and an
		// anonymous connection (its HELLO was lost — faultnet can blackhole
		// it) must not touch session state: drop it so the requester's
		// recovery redials and re-identifies.
		if op != opBatch || src < 0 {
			return
		}
		if w.pacer != nil {
			w.pacer.Observe(src, clk)
		}
		sid, seq, ack := d.u64(), d.u64(), d.u64()
		if d.bad {
			return // truncated session header: the stream is desynced
		}
		reply, cached := w.sessionApply(src, sid, seq, ack, &d, outBuf)
		// Bound the reply write: a requester that vanished mid-read must not
		// park this service goroutine on a full TCP buffer forever.
		c.SetWriteDeadline(time.Now().Add(w.budget))
		_, err = c.Write(reply)
		c.SetWriteDeadline(time.Time{})
		if err != nil {
			return
		}
		if !cached {
			// A cached reply is the session window's property — recycling it
			// as scratch would corrupt a future replay.
			outBuf = reply[:0]
		}
	}
}

// applyList executes one frame's list and builds its reply: the entries in
// order, each through handle, their sub-replies behind a count. A faulting
// entry ends the list with its fault as the last sub-reply; the requester
// re-panics it when the frame drains. A malformed list is refused whole,
// before any entry executes.
func (w *World) applyList(list, scratch []byte) []byte {
	subs, err := parseBatch(list)
	if err != nil {
		return faultReply(scratch, faultGeneric, w.rank, err.Error())
	}
	e := newEnc(scratch)
	e.u8(stOK)
	nAt := len(e.b)
	e.u32(0) // sub-reply count, patched below
	n := 0
	for _, ent := range subs {
		n++
		if !w.handle(ent[0], &dec{b: ent, pos: 1}, &e) {
			break
		}
	}
	binary.LittleEndian.PutUint32(e.b[nAt:], uint32(n))
	return e.finish()
}

// handle executes one entry and appends its length-prefixed sub-reply to e,
// reporting whether it succeeded. Faults — bounds violations, dead
// registrations, ring overflow, an abort that ended a wait — are the same
// panics the inline path raises; they are caught here and shipped back for
// the requester to re-panic, so the fault surfaces in the process that
// issued the bad operation.
func (w *World) handle(op uint8, d *dec, e *enc) (ok bool) {
	at := len(e.b)
	e.u32(0) // sub-reply length, patched below
	e.u8(stOK)
	defer func() {
		if r := recover(); r != nil {
			// Classify before shipping: the requester re-panics a typed value
			// (abort, peer failure with its culprit rank, or a RemoteFault
			// carrying this rank and the message) instead of a bare string.
			kind, rank := faultGeneric, w.rank
			if pf, isPF := r.(*simnet.ErrPeerFailed); isPF {
				kind, rank = faultPeerFailed, pf.Rank
			} else if simnet.IsAbortPanic(r) {
				kind = faultAborted
			}
			e.b = e.b[:at+4]
			e.fault(kind, rank, fmt.Sprint(r))
		}
		binary.LittleEndian.PutUint32(e.b[at:], uint32(len(e.b)-at-4))
	}()
	switch op {
	case opPut:
		x := w.exec(d)
		off := int(d.u64())
		arrival := timing.Time(d.i64())
		xfer := d.i64()
		reserve := d.boolVal()
		src := d.rest()
		d.must()
		e.i64(int64(x.Put(off, src, reserve, arrival, xfer)))
	case opGet:
		x := w.exec(d)
		off := int(d.u64())
		n := int(d.u64())
		clockIn := timing.Time(d.i64())
		tail := d.i64()
		xfer := d.i64()
		reserve := d.boolVal()
		d.must()
		// The requester checked the range against the size it learned at
		// materialization; a longer read is a corrupt frame, refused before
		// the reply grows by it.
		if n < 0 || n > x.Reg.Size() {
			panic(fmt.Sprintf("netrun: malformed get length %d", n))
		}
		// Copy the bytes straight into the reply frame (comp is patched in
		// once known): no per-request buffer on the service loop.
		compAt := len(e.b)
		e.i64(0)
		start := len(e.b)
		e.b = slices.Grow(e.b, n)[:start+n]
		comp := x.Get(e.b[start:start+n], off, clockIn, reserve, tail, xfer)
		binary.LittleEndian.PutUint64(e.b[compAt:], uint64(comp))
	case opAmo:
		x := w.exec(d)
		off := int(d.u64())
		op := simnet.AmoOp(d.u8())
		fetch := d.boolVal()
		swap := d.u64()
		clockIn := timing.Time(d.i64())
		srcFree := timing.Time(d.i64())
		lat, xfer := d.i64(), d.i64()
		reserve := d.boolVal()
		src := d.rest()
		d.must()
		// The times lead the reply and are patched in once known; the
		// fetched words go straight into the frame behind them, as a get's
		// bytes do.
		at := len(e.b)
		e.b = append(e.b, make([]byte, 24)...)
		var old []byte
		if fetch {
			start := len(e.b)
			e.b = slices.Grow(e.b, len(src))[:start+len(src)]
			old = e.b[start:]
		}
		land, base, free := x.Amo(op, off, src, swap, old, clockIn, srcFree, reserve, lat, xfer)
		binary.LittleEndian.PutUint64(e.b[at:], uint64(land))
		binary.LittleEndian.PutUint64(e.b[at+8:], uint64(base))
		binary.LittleEndian.PutUint64(e.b[at+16:], uint64(free))
	case opNotify:
		x := w.exec(d)
		off := int(d.u64())
		word := d.u64()
		arrival := timing.Time(d.i64())
		xfer := d.i64()
		reserve := d.boolVal()
		d.must()
		e.i64(int64(x.Notify(off, word, reserve, arrival, xfer)))
	case opRegQuery:
		k := simnet.Key(d.u32())
		d.must()
		state, size := regDead, 0
		if reg := w.mine.Get(k); reg != nil {
			state, size = regLive, reg.Size()
		}
		e.u8(state)
		e.u64(uint64(size))
	case opDoorGen:
		e.u64(w.portOf(w.self).Gen())
	case opDoorWait:
		// The handler parks on its requester's behalf under this rank's door
		// slot, beside every other waiter on this rank's port.
		gen := d.u64()
		d.must()
		e.u64(w.door.DoorWait(w.portOf(w.self), w.self, gen))
	case opDoorRing:
		w.RingDoorbell(w.rank)
		e.u64(w.portOf(w.self).Gen())
	case opClock:
		e.i64(w.ownClock())
	default:
		panic(fmt.Sprintf("netrun: unknown opcode %d", op))
	}
	return true
}

// exec resolves the request's region key into an executor over this rank's
// memory, whose writes ring this rank's doorbell as the inline path's do.
// Dead or unknown keys fault with the unregistered-region message the inline
// path uses.
func (w *World) exec(d *dec) simnet.RegionExec {
	return simnet.RegionExec{Reg: w.mine.Lookup(simnet.Addr{Rank: w.rank, Key: simnet.Key(d.u32())}), Ring: w}
}
