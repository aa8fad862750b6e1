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

// The data-plane session layer (DESIGN.md §11) and the pipelined wire
// engine riding on it (DESIGN.md §12): every requester→owner stream
// carries a resumable session, so a transient transport fault — a mid-op
// TCP reset, a blackholed write — is recovered by re-dialing and
// retransmitting instead of tearing the world down. The requester stamps
// each data-plane request with (sid, seq, ack) and keeps up to the window
// depth of them in flight; the owner records applied seqs with their
// cached reply bytes in a window bounded by the requester's cumulative
// ack. After a reset the requester retransmits the whole unacked suffix
// verbatim on a fresh connection: every frame it still retains was built
// with an ack below the suffix, so the owner's cache necessarily covers
// the already-applied prefix and answers it byte-identically, in order,
// while the rest executes fresh — each op therefore executes exactly once
// however many times the connection under it dies, and, since recovery is
// pure real-time plumbing below the Transport line, virtual time stays
// bit-identical to a fault-free run.
//
// Genuinely dead peers still fail fast: each drained reply shares one
// opTimeout budget across its retransmissions, every iteration observes
// the coordinator's abort verdict, and exhausting the budget lands in the
// same netFault classification the pre-session code used.

// RemoteFault is a fault reported by an owner's service loop in reply to a
// wire operation this rank issued — the remote half of the "faults surface
// in the process that issued the bad operation" contract. It preserves
// which rank reported the fault and the owner-side message verbatim
// (callErr used to re-panic the bare string, losing both).
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

// sinkRef records where one fused sub-op's completion time lands when its
// reply drains: folded with timing.Max (the implicit-completion
// accumulator) or assigned (an explicit handle's slot).
type sinkRef struct {
	p    *timing.Time
	fold bool
}

// pendOp is one window entry: a frame queued or in flight to an owner. The
// frame bytes are retained verbatim until its reply is processed — a
// reconnect retransmits the whole unacked suffix byte-identically, and the
// owner's session cache answers the already-applied prefix in order.
// sinks is nil for a synchronous op (its reply goes back to the caller)
// and one entry per sub-op for an opBatch frame.
type pendOp struct {
	seq   uint64
	frame []byte
	sinks []sinkRef
	// sentAt stamps the first wire write (unix ns; telemetry only, 0 when
	// disabled): a later write of the same entry is a retransmission, and
	// the reply pop records first-send-to-reply as the op's wire RTT.
	sentAt int64
}

// reqSession is the requester half of one rank-pair session: the sequence
// counters, the outstanding-request window, and the fused-frame builder.
// All of it is confined to the rank's goroutine (the Endpoint confinement
// contract), like the proxies table.
type reqSession struct {
	seq   uint64 // last sequence issued
	acked uint64 // last sequence whose reply this rank has processed
	buf   []byte // synchronous-frame build scratch, reused across requests

	inflight []*pendOp // oldest-first frames awaiting replies
	free     []*pendOp // recycled batch entries (frame + sink storage reuse)
	bytes    int       // total frame bytes in flight (window byte cap)
	conn     *peerConn // connection the sent prefix was written to
	sent     int       // frames of inflight written to conn (a prefix)

	// Fused-frame builder: put-shaped async sub-ops accumulate here until
	// a window slot flushes them as one opBatch frame.
	bops   int
	bstart int    // offset of the sub-op being built (subOp/subDone)
	bbuf   []byte // encoded sub-ops, each length-prefixed
	bsinks []sinkRef
	bring  bool // a doorbell ring rides the next flush
}

// The window's one cap: winBytesCap bounds the bytes in flight per
// destination (replies are tiny, so bounding requests bounds both TCP
// buffers — the socket can never fill in a way deadlines cannot recover), and
// batchBuildMax flushes an oversized builder early. Together they bound the
// depth too: every blocking op leaves the window empty, and between two of
// them a frame leaves the builder only once it holds batchBuildMax bytes, so
// at most winBytesCap/batchBuildMax full frames plus the one being queued
// are ever in flight (TestWindowReplayUnderRecurringResets asserts it).
const (
	winBytesCap   = 1 << 20
	batchBuildMax = 256 << 10
)

// reqData starts a sessioned data-plane request to rank r: the common
// header plus (sid, seq, ack). The builder flushes first so fused sub-ops
// issued before this op keep their place in the stream order the owner
// applies. ack is cumulative — under the outstanding-request window it may
// trail seq by up to the window depth — and lets the owner evict all
// cached replies at or below it.
func (w *World) reqData(r int, op uint8) enc {
	w.flushFused(r)
	s := &w.rsess[r]
	s.seq++
	e := newEnc(s.buf)
	e.u8(op)
	e.i64(w.ownClock())
	e.u64(w.sid)
	e.u64(s.seq)
	e.u64(s.acked)
	return e
}

// callData issues one sessioned data-plane request and blocks for its
// reply, draining every window frame ahead of it first (replies match
// requests by order). Transient transport faults recover inside drainOne;
// fault replies re-panic typed via replyDec.
func (w *World) callData(r int, e enc) dec {
	s := &w.rsess[r]
	frame := e.finish()
	s.buf = frame // keep the backing array for the next request
	w.winRoom(r, len(frame))
	// The pendOp aliases s.buf, which is safe: this call does not return
	// until the op's reply pops it from the window, and only then can the
	// next reqData reuse the scratch.
	s.inflight = append(s.inflight, &pendOp{seq: s.seq, frame: frame})
	s.bytes += len(frame)
	mWindow.Record(uint64(len(s.inflight)))
	w.sendPending(r) // best effort: a failure is recovered in drainOne
	for {
		if reply := w.drainOne(r); reply != nil {
			return w.replyDec(r, reply)
		}
	}
}

// winRoom drains the oldest in-flight frames until the window to r has room
// for one more frame of size add.
func (w *World) winRoom(r int, add int) {
	s := &w.rsess[r]
	for len(s.inflight) > 0 && s.bytes+add > winBytesCap {
		w.drainOne(r)
	}
}

// subOp begins one fused sub-op to rank r, recording where its completion
// time will land when the reply drains. The returned enc is positioned
// after the sub-op's opcode; the caller appends the op fields (the exact
// layout the unfused request carries after its session header) and seals
// with subDone.
func (w *World) subOp(r int, op uint8, sink *timing.Time, fold bool) enc {
	s := &w.rsess[r]
	s.bsinks = append(s.bsinks, sinkRef{p: sink, fold: fold})
	s.bops++
	s.bstart = len(s.bbuf)
	e := enc{append(s.bbuf, 0, 0, 0, 0)} // sub-op length, patched by subDone
	e.u8(op)
	return e
}

// subDone seals the sub-op begun by subOp, flushing the builder once it
// crosses the build cap (several opBatch frames per issue burst then).
func (w *World) subDone(r int, e enc) {
	s := &w.rsess[r]
	binary.LittleEndian.PutUint32(e.b[s.bstart:], uint32(len(e.b)-s.bstart-4))
	s.bbuf = e.b
	if len(s.bbuf) >= batchBuildMax {
		w.flushFused(r)
	}
}

// flushFused seals the accumulated sub-ops into one opBatch frame and
// queues it on the window to r — the send is pipelined: nothing blocks for
// the reply until a drain needs it.
func (w *World) flushFused(r int) {
	s := &w.rsess[r]
	if s.bops == 0 {
		if s.bring {
			s.bring = false
			w.sendRing(r)
		}
		return
	}
	var po *pendOp
	if n := len(s.free); n > 0 {
		po, s.free = s.free[n-1], s.free[:n-1]
	} else {
		po = &pendOp{}
	}
	w.winRoom(r, len(s.bbuf)+64)
	mBatches.Inc()
	mFusedOps.Record(uint64(s.bops))
	s.seq++
	e := newEnc(po.frame)
	e.u8(opBatch)
	e.i64(w.ownClock())
	e.u64(w.sid)
	e.u64(s.seq)
	e.u64(s.acked)
	e.boolByte(s.bring)
	e.u32(uint32(s.bops))
	e.bytes(s.bbuf)
	po.frame = e.finish()
	po.seq = s.seq
	po.sentAt = 0 // recycled entries must not inherit the old send stamp
	po.sinks = append(po.sinks[:0], s.bsinks...)
	s.bbuf = s.bbuf[:0]
	s.bsinks = s.bsinks[:0]
	s.bops = 0
	s.bring = false
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
		p.c.SetWriteDeadline(time.Now().Add(w.opTimeout))
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
// fused completion times into their recorded sinks (returns nil), a
// synchronous op's reply to the caller (returned). Transient transport
// faults recover by redialing and retransmitting the unacked suffix
// verbatim: every retained frame was built with an ack below the suffix,
// so the owner never evicted a cached reply the replay needs — the
// applied prefix replays byte-identically and the rest executes fresh,
// in order, exactly once. One opTimeout budget bounds the recovery so a
// genuinely dead peer still surfaces as a typed failure within the PR 7
// detection promise.
func (w *World) drainOne(r int) []byte {
	s := &w.rsess[r]
	po := s.inflight[0]
	deadline := time.Now().Add(w.opTimeout)
	// Per-attempt reply deadline: a blackholed write must not consume the
	// whole budget waiting for a reply that never left, or there would be
	// no budget left to retransmit in.
	slice := w.opTimeout / 4
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
		if po.sinks == nil {
			return reply
		}
		w.deliverBatch(r, po, reply)
		s.free = append(s.free, po)
		return nil
	}
}

// deliverBatch decodes one opBatch reply — the owner's per-sub-op reply
// frames concatenated behind a count — landing each completion time in its
// recorded sink. A faulting sub-op re-panics typed exactly as its unfused
// call would have; a reply that accounts for fewer sub-ops than were sent
// without reporting a fault is a protocol violation.
func (w *World) deliverBatch(r int, po *pendOp, reply []byte) {
	if reply[0] == stFault {
		panic(w.remoteFault(r, reply))
	}
	d := dec{b: reply, pos: 1}
	n := int(d.u32())
	if d.bad || n > len(po.sinks) {
		panic(&RemoteFault{Rank: r, Msg: fmt.Sprintf("netrun: batch reply claims %d of %d sub-ops", n, len(po.sinks))})
	}
	for i := 0; i < n; i++ {
		sub := d.n(int(d.u32()))
		if d.bad || len(sub) == 0 {
			panic(&RemoteFault{Rank: r, Msg: "netrun: truncated batch reply"})
		}
		if sub[0] == stFault {
			panic(w.remoteFault(r, sub))
		}
		sd := dec{b: sub, pos: 1}
		comp := timing.Time(sd.i64())
		if sd.bad {
			panic(&RemoteFault{Rank: r, Msg: "netrun: truncated batch sub-reply"})
		}
		if sk := po.sinks[i]; sk.fold {
			*sk.p = timing.Max(*sk.p, comp)
		} else {
			*sk.p = comp
		}
	}
	if n < len(po.sinks) {
		panic(&RemoteFault{Rank: r, Msg: fmt.Sprintf("netrun: batch reply answered %d of %d sub-ops without a fault", n, len(po.sinks))})
	}
}

// drainDst flushes r's fused-frame builder and drains its window to empty.
// Control-plane calls (callIdem) run it first: their replies share the
// stream with pending data replies, and reply matching is by order.
func (w *World) drainDst(r int) {
	if len(w.rsess) == 0 || r == w.rank {
		return
	}
	w.flushFused(r)
	for len(w.rsess[r].inflight) > 0 {
		w.drainOne(r)
	}
}

// DrainWire implements simnet.WireDrainer: it flushes every destination's
// fused-frame builder and blocks until every window is empty, so all async
// completion times have landed in their sinks. Endpoints call it at every
// blocking point (Gsync, Wait, doorbell parks).
func (w *World) DrainWire() {
	for r := range w.rsess {
		w.drainDst(r)
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

// wireCall runs one framed round trip on p under a deadline. On success the
// reply buffer is retained in p.rbuf for reuse; on any error the caller
// must drop the connection (its stream may be desynced).
func (w *World) wireCall(p *peerConn, frame []byte, deadline time.Time) ([]byte, error) {
	p.c.SetDeadline(deadline)
	if _, err := p.c.Write(frame); err != nil {
		return nil, err
	}
	reply, err := readFrame(p.rd, p.rbuf)
	if err != nil {
		return nil, err
	}
	p.c.SetDeadline(time.Time{})
	p.rbuf = reply
	if len(reply) == 0 {
		return nil, fmt.Errorf("empty reply")
	}
	return reply, nil
}

// replyDec classifies one reply payload: faults re-panic typed (RemoteFault
// preserving the owner's rank and message, composed with the abort
// machinery per the fault kind), successes decode past the status byte.
func (w *World) replyDec(owner int, reply []byte) dec {
	if reply[0] == stFault {
		panic(w.remoteFault(owner, reply))
	}
	return dec{b: reply, pos: 1}
}

// remoteFault decodes a structured fault reply into the value the requester
// unwinds with: ErrAborted for an owner that was itself unwinding the world
// abort, *simnet.ErrPeerFailed carrying the blamed rank (recorded locally
// too, so this rank's own abort panic names it), and *RemoteFault for a
// genuine program fault at the owner.
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
		return &simnet.ErrPeerFailed{Rank: rank, Cause: &RemoteFault{Rank: owner, Msg: msg}}
	}
	return &RemoteFault{Rank: owner, Msg: msg}
}

// faultReply builds a structured fault reply frame.
func faultReply(scratch []byte, kind uint8, rank int, msg string) []byte {
	f := newEnc(scratch)
	f.u8(stFault)
	f.u8(kind)
	f.u32(uint32(rank))
	f.bytes([]byte(msg))
	return f.finish()
}

// ownerSession is the owner half of one requester's session: the highest
// applied sequence and the cached reply frames not yet covered by the
// requester's cumulative ack. The window stays tiny — the requester has at
// most one op in flight, so at most the current op's reply (plus, briefly,
// its predecessor's) is retained.
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

// sessionApply executes one sessioned request exactly once: a seq already
// in the window replays its cached reply byte-identically (fromCache=true —
// the caller must not recycle it as scratch); a fresh seq executes under
// the session lock — held across check, execute, and record, so a zombie
// connection's handler can never interleave a second execution of the same
// seq — and its reply is cached until the requester acks past it.
func (w *World) sessionApply(src int, sid, seq, ack uint64, op uint8, d *dec, scratch []byte) (reply []byte, fromCache bool) {
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
	reply = w.handle(op, d, scratch)
	s.applied = seq
	s.replies[seq] = append([]byte(nil), reply...)
	return reply, false
}
