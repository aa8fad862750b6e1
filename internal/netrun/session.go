package netrun

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"fompi/internal/faultnet"
	"fompi/internal/simnet"
	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

// The session layer (DESIGN.md §9): every requester→owner stream carries a
// resumable session, so a transient transport fault — a mid-op TCP reset, a
// blackholed write — is recovered by re-dialing and retransmitting instead
// of tearing the world down. Everything a requester sends after HELLO is one
// kind of frame — a list of operations stamped (sid, seq, ack) — and it keeps
// a byte-capped window of them in flight; the owner records applied seqs
// with their cached reply bytes in a window bounded by the requester's
// cumulative ack. After a reset the requester retransmits the whole unacked
// suffix verbatim on a fresh connection: every frame it still retains was
// built with an ack below the suffix, so the owner's cache necessarily covers
// the already-applied prefix and answers it byte-identically, in order,
// while the rest executes fresh — each frame therefore executes exactly once
// however many times the connection under it dies, and, since recovery is
// pure real-time plumbing below the Transport line, virtual time stays
// bit-identical to a fault-free run.
//
// Genuinely dead peers still fail fast: each drained reply shares one
// budget across its retransmissions, every iteration observes the
// coordinator's abort verdict, and exhausting the budget lands in netFault's
// classification.

// RemoteFault is a fault reported by an owner's service loop in reply to a
// wire operation this rank issued — the remote half of the "faults surface
// in the process that issued the bad operation" contract. It preserves
// which rank reported the fault and the owner-side message verbatim.
type RemoteFault struct {
	Rank int    // rank whose service loop reported the fault
	Msg  string // the owner-side panic message, verbatim
}

func (e *RemoteFault) Error() string {
	return fmt.Sprintf("%s [remote fault reported by rank %d]", e.Msg, e.Rank)
}

// sidFor builds this process's session identity: the rank (shifted clear of
// the entropy bits) so owners can reject a session claimed from the wrong
// connection, plus the pid as a tiebreaker against a stray same-rank
// process from a stale world wandering in through a recycled address.
func sidFor(rank, pid int) uint64 {
	return (uint64(rank)+1)<<32 | uint64(uint32(pid))
}

// sidRank recovers the rank a session identity was minted for.
func sidRank(sid uint64) int { return int(sid>>32) - 1 }

// sinkRef records where one fire-class entry's completion time lands when
// its reply drains: folded with timing.Max (the implicit-completion
// accumulator) or assigned (an explicit handle's slot). The zero sinkRef
// stands for a value-class entry, whose sub-reply goes back to its caller.
type sinkRef struct {
	p    *timing.Time
	fold bool
}

// pendOp is one window entry: a frame queued or in flight to an owner. The
// frame bytes are retained verbatim until its reply is processed — a
// reconnect retransmits the whole unacked suffix byte-identically, and the
// owner's session cache answers the already-applied prefix in order. sinks
// has one element per list entry.
type pendOp struct {
	seq   uint64
	frame []byte
	sinks []sinkRef
	// sentAt stamps the first wire write (unix ns; telemetry only, 0 when
	// disabled): a later write of the same entry is a retransmission, and
	// the reply pop records first-send-to-reply as the frame's wire RTT.
	sentAt int64
}

// reqSession is the requester half of one rank-pair session: the sequence
// counters, the window of frames in flight, and the frame builder. All of
// it is confined to the rank's goroutine (the Endpoint confinement
// contract), like the proxies table.
type reqSession struct {
	seq   uint64 // last sequence issued
	acked uint64 // last sequence whose reply this rank has processed

	inflight []*pendOp // oldest-first frames awaiting replies
	free     []*pendOp // recycled entries (frame + sink storage reuse)
	bytes    int       // total frame bytes in flight (window byte cap)
	conn     *peerConn // connection the sent prefix was written to
	sent     int       // frames of inflight written to conn (a prefix)

	// The frame builder: entries accumulate here until flush seals them into
	// one frame.
	bstart int    // offset of the entry being built (entry/seal)
	bbuf   []byte // encoded entries, each length-prefixed
	bsinks []sinkRef
	bfire  int // fire-class entries among them (net.batches, net.fused_ops)
}

// The window's one cap: winBytesCap bounds the bytes in flight per
// destination (replies to fire-class entries are tiny, and a value-class
// entry leaves the window empty, so bounding requests bounds both TCP
// buffers — the socket can never fill in a way deadlines cannot recover), and
// batchBuildMax flushes an oversized builder early. Together they bound the
// depth too: every value-class op leaves the window empty, and between two
// of them a frame leaves the builder only once it holds batchBuildMax bytes,
// so at most winBytesCap/batchBuildMax full frames plus the one being queued
// are ever in flight (TestWindowReplayUnderRecurringResets asserts it).
const (
	winBytesCap   = 1 << 20
	batchBuildMax = 256 << 10
)

// winRoom drains the oldest in-flight frames until the window to r has room
// for one more frame of size add.
func (w *World) winRoom(r int, add int) {
	s := &w.rsess[r]
	for len(s.inflight) > 0 && s.bytes+add > winBytesCap {
		w.drainOne(r)
	}
}

// entry begins one list entry to rank r. sink is where a fire-class entry's
// completion time lands when its reply drains; a value-class entry passes
// nil. The returned enc is positioned after the opcode: the caller appends
// the op fields and seals with fire or call.
func (w *World) entry(r int, op uint8, sink *timing.Time, fold bool) enc {
	s := &w.rsess[r]
	s.bsinks = append(s.bsinks, sinkRef{p: sink, fold: fold})
	s.bstart = len(s.bbuf)
	e := enc{append(s.bbuf, 0, 0, 0, 0)} // entry length, patched by seal
	e.u8(op)
	return e
}

// seal closes the entry begun by entry.
func (s *reqSession) seal(e enc) {
	binary.LittleEndian.PutUint32(e.b[s.bstart:], uint32(len(e.b)-s.bstart-4))
	s.bbuf = e.b
}

// fire seals a fire-class entry and returns without sending: the frame
// leaves at the next value-class op or drain, or here once the builder
// crosses its cap (several frames per issue burst then).
func (w *World) fire(r int, e enc) {
	s := &w.rsess[r]
	s.seal(e)
	s.bfire++
	if len(s.bbuf) >= batchBuildMax {
		w.flush(r)
	}
}

// call seals a value-class entry as the last of its frame, sends the frame
// and drains the window up to its reply, which it returns positioned past
// the status byte (valid until the next read from r). Transient transport
// faults recover inside drainOne; a fault reply — this entry's or one ahead
// of it — re-panics typed in deliver.
func (w *World) call(r int, e enc) dec {
	w.rsess[r].seal(e)
	return w.drain(r)
}

// drain flushes r's builder and drains its window to empty, returning the
// last frame's value-class sub-reply (the zero dec if it carried none).
func (w *World) drain(r int) (val dec) {
	w.flush(r)
	for s := &w.rsess[r]; len(s.inflight) > 0; {
		val = w.drainOne(r)
	}
	return val
}

// flush seals the accumulated entries into one frame and queues it on the
// window to r — the send is pipelined: nothing blocks for the reply until a
// drain needs it.
func (w *World) flush(r int) {
	s := &w.rsess[r]
	if len(s.bsinks) == 0 {
		return
	}
	var po *pendOp
	if n := len(s.free); n > 0 {
		po, s.free = s.free[n-1], s.free[:n-1]
	} else {
		po = &pendOp{}
	}
	w.winRoom(r, len(s.bbuf)+64)
	if s.bfire > 0 {
		mBatches.Inc()
		mFusedOps.Record(uint64(s.bfire))
	}
	s.seq++
	e := newEnc(po.frame)
	e.u8(opBatch)
	e.i64(w.ownClock())
	e.u64(w.sid)
	e.u64(s.seq)
	e.u64(s.acked)
	e.u32(uint32(len(s.bsinks)))
	e.bytes(s.bbuf)
	po.frame = e.finish()
	po.seq = s.seq
	po.sentAt = 0 // recycled entries must not inherit the old send stamp
	po.sinks = append(po.sinks[:0], s.bsinks...)
	s.bbuf = s.bbuf[:0]
	s.bsinks = s.bsinks[:0]
	s.bfire = 0
	s.inflight = append(s.inflight, po)
	s.bytes += len(po.frame)
	mWindow.Record(uint64(len(s.inflight)))
	w.sendPending(r) // best effort: a failure is recovered in drainOne
}

// sendPending writes every queued-but-unsent window frame to r's current
// connection. A fresh connection restarts the whole unacked suffix (the
// retransmission that makes resets recoverable); a write failure drops the
// connection and leaves the frames queued for drainOne's recovery loop.
func (w *World) sendPending(r int) error {
	s := &w.rsess[r]
	p, err := w.peerErr(r)
	if err != nil {
		return err
	}
	if p != s.conn {
		s.conn, s.sent = p, 0
	}
	for s.sent < len(s.inflight) {
		po := s.inflight[s.sent]
		if telemetry.On() {
			if po.sentAt == 0 {
				po.sentAt = time.Now().UnixNano()
			} else {
				mRetransmits.Inc()
				telemetry.RecordEvent(telemetry.EvRetransmit, uint64(r), po.seq)
			}
		}
		p.c.SetWriteDeadline(time.Now().Add(w.budget))
		_, err := p.c.Write(po.frame)
		p.c.SetWriteDeadline(time.Time{})
		if err != nil {
			w.dropPeer(r, p)
			s.conn, s.sent = nil, 0
			return err
		}
		s.sent++
	}
	return nil
}

// drainOne blocks for the oldest in-flight frame's reply and delivers it:
// completion times into their recorded sinks, a value-class entry's
// sub-reply to the caller (returned; the zero dec otherwise). Transient
// transport faults recover by redialing and retransmitting the unacked
// suffix verbatim: every retained frame was built with an ack below the
// suffix, so the owner never evicted a cached reply the replay needs — the
// applied prefix replays byte-identically and the rest executes fresh, in
// order, exactly once. One budget bounds the recovery; a dead peer the
// coordinator can see is judged inside it, so the abort ends the loop first.
func (w *World) drainOne(r int) dec {
	s := &w.rsess[r]
	po := s.inflight[0]
	deadline := time.Now().Add(w.budget)
	// Per-attempt reply deadline: a blackholed write must not consume the
	// whole budget waiting for a reply that never left, or there would be
	// no budget left to retransmit in.
	slice := w.budget / 4
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := w.AbortErr(); err != nil {
			panic(err)
		}
		if attempt > 0 && time.Now().After(deadline) {
			panic(w.netFault(r, lastErr))
		}
		if err := w.sendPending(r); err != nil {
			lastErr = err // peerErr already backed off across its dial attempts
			continue
		}
		p := s.conn
		p.c.SetReadDeadline(attemptDeadline(deadline, slice))
		reply, err := readFrame(p.rd, p.rbuf)
		if err == nil && len(reply) == 0 {
			err = fmt.Errorf("empty reply")
		}
		if err != nil {
			lastErr = err
			w.dropPeer(r, p)
			s.conn, s.sent = nil, 0
			mResumes.Inc()
			telemetry.RecordEvent(telemetry.EvReconnect, uint64(r), po.seq)
			faultnet.Logf("netrun: rank %d lost rank %d mid-window (head seq %d, %d in flight): %v; reconnecting",
				w.rank, r, po.seq, len(s.inflight), err)
			continue
		}
		p.c.SetReadDeadline(time.Time{})
		p.rbuf = reply
		// The head is answered: pop it and advance the cumulative ack
		// before delivery, so a fault reply re-panics with the window in
		// its post-op state.
		s.inflight = s.inflight[:copy(s.inflight, s.inflight[1:])]
		s.sent--
		s.acked = po.seq
		s.bytes -= len(po.frame)
		if po.sentAt != 0 && telemetry.On() {
			mRTT.Record(uint64(time.Now().UnixNano() - po.sentAt))
		}
		val := w.deliver(r, po, reply)
		s.free = append(s.free, po)
		return val
	}
}

// deliver decodes one frame's reply — the owner's per-entry sub-replies
// behind a count — landing each completion time in its recorded sink and
// returning a value-class entry's sub-reply, positioned past its status
// byte, for the issuer to decode. It is the one place a requester reads
// reply bytes: a faulting entry re-panics typed, a reply that accounts for
// fewer entries than were sent without reporting a fault is a protocol
// violation, and so is one that ends early (see dec.complete).
func (w *World) deliver(r int, po *pendOp, reply []byte) (val dec) {
	if reply[0] == stFault {
		panic(w.remoteFault(r, reply))
	}
	d := dec{b: reply, pos: 1}
	n := int(d.u32())
	if d.bad || n > len(po.sinks) {
		panic(&RemoteFault{Rank: r, Msg: fmt.Sprintf("netrun: frame reply claims %d of %d entries", n, len(po.sinks))})
	}
	for i := 0; i < n; i++ {
		sub := d.n(int(d.u32()))
		if d.bad || len(sub) == 0 {
			panic(&RemoteFault{Rank: r, Msg: "netrun: truncated frame reply"})
		}
		if sub[0] == stFault {
			panic(w.remoteFault(r, sub))
		}
		sd := dec{b: sub, pos: 1}
		sk := po.sinks[i]
		if sk.p == nil {
			val = sd
			continue
		}
		comp := timing.Time(sd.i64())
		sd.complete(r)
		if sk.fold {
			*sk.p = timing.Max(*sk.p, comp)
		} else {
			*sk.p = comp
		}
	}
	if n < len(po.sinks) {
		panic(&RemoteFault{Rank: r, Msg: fmt.Sprintf("netrun: frame reply answered %d of %d entries without a fault", n, len(po.sinks))})
	}
	return val
}

// complete is the requester's must(): a sub-reply that ran out before its
// last field re-panics typed. Zero-filled fields would otherwise pass for a
// completion time, a fetched value, a get's bytes.
func (d *dec) complete(owner int) {
	if d.bad {
		panic(&RemoteFault{Rank: owner, Msg: "netrun: truncated sub-reply"})
	}
}

// DrainWire implements simnet.WireDrainer: it flushes every destination's
// builder and blocks until every window is empty, so every posted entry's
// completion time has landed in its sink. Endpoints call it at every
// blocking point (Gsync, Wait, doorbell parks).
func (w *World) DrainWire() {
	for r := range w.rsess {
		w.drain(r)
	}
}

// attemptDeadline bounds one attempt: the per-attempt slice, clipped to the
// overall budget.
func attemptDeadline(deadline time.Time, slice time.Duration) time.Time {
	if d := time.Now().Add(slice); d.Before(deadline) {
		return d
	}
	return deadline
}

// remoteFault decodes a structured fault reply into the value the requester
// unwinds with: ErrAborted for an owner that was itself unwinding the world
// abort, *simnet.ErrPeerFailed carrying the rank the owner's verdict blamed
// (recorded locally too, so this rank's own abort panic names it), and
// *RemoteFault for a genuine program fault at the owner.
func (w *World) remoteFault(owner int, reply []byte) any {
	d := dec{b: reply, pos: 1}
	kind := d.u8()
	rank := int(d.u32())
	msg := string(d.rest())
	if d.bad {
		return &RemoteFault{Rank: owner, Msg: string(reply[1:])}
	}
	switch kind {
	case faultAborted:
		return simnet.ErrAborted
	case faultPeerFailed:
		w.NoteFailedRank(rank)
		return &simnet.ErrPeerFailed{Rank: rank}
	}
	return &RemoteFault{Rank: owner, Msg: msg}
}

// fault appends a structured fault (a whole reply's, or one entry's).
func (e *enc) fault(kind uint8, rank int, msg string) {
	e.u8(stFault)
	e.u8(kind)
	e.u32(uint32(rank))
	e.bytes([]byte(msg))
}

// faultReply builds a reply frame that refuses its whole request.
func faultReply(scratch []byte, kind uint8, rank int, msg string) []byte {
	f := newEnc(scratch)
	f.fault(kind, rank, msg)
	return f.finish()
}

// ownerSession is the owner half of one requester's session: the highest
// applied sequence and the cached reply frames not yet covered by the
// requester's cumulative ack. The cache holds what the requester's window
// does: a reply stays until a later frame's ack covers it, and the requester
// keeps at most winBytesCap of frames unacked.
type ownerSession struct {
	mu      sync.Mutex
	applied uint64
	replies map[uint64][]byte // seq -> full reply frame, evicted once acked
}

// evictLocked drops every cached reply the requester has acknowledged.
func (s *ownerSession) evictLocked(ack uint64) {
	for k := range s.replies {
		if k <= ack {
			delete(s.replies, k)
		}
	}
}

// session resolves (creating on first use) the state of one session.
func (w *World) session(sid uint64) *ownerSession {
	w.sessMu.Lock()
	defer w.sessMu.Unlock()
	s := w.sessions[sid]
	if s == nil {
		s = &ownerSession{replies: make(map[uint64][]byte)}
		w.sessions[sid] = s
	}
	return s
}

// sessionApply executes one frame exactly once: a seq already in the window
// replays its cached reply byte-identically (fromCache=true — the caller
// must not recycle it as scratch); a fresh seq executes its list (d is
// positioned at it) under the session lock — held across check, execute, and
// record, so a zombie connection's handler can never interleave a second
// execution of the same seq — and its reply is cached until the requester
// acks past it.
func (w *World) sessionApply(src int, sid, seq, ack uint64, d *dec, scratch []byte) (reply []byte, fromCache bool) {
	if r := sidRank(sid); r != src {
		return faultReply(scratch, faultGeneric, w.rank,
			fmt.Sprintf("netrun: session %#x claims rank %d but its connection said HELLO as rank %d", sid, r, src)), false
	}
	s := w.session(sid)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked(ack)
	if cached, ok := s.replies[seq]; ok {
		mDedupHits.Inc()
		telemetry.RecordEvent(telemetry.EvDedupHit, uint64(src), seq)
		return cached, true
	}
	if seq <= s.applied {
		// Applied, acked, evicted — and now re-sent: the requester broke the
		// cumulative-ack contract, and replaying is no longer possible.
		return faultReply(scratch, faultGeneric, w.rank,
			fmt.Sprintf("netrun: session %#x replayed seq %d past its own ack", sid, seq)), false
	}
	reply = w.applyList(d.rest(), scratch)
	s.applied = seq
	s.replies[seq] = append([]byte(nil), reply...)
	return reply, false
}
