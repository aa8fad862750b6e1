// Package mpi1 is the message-passing comparator: a Cray-MPI-like MPI-1
// point-to-point layer (plus the collectives the applications need) built
// over the same simulated fabric as foMPI. It deliberately implements the
// mechanisms that make message passing over RDMA more expensive than native
// RMA (§1 of the paper): software tag matching on the receiver, an eager
// protocol with receiver-side buffering (an extra copy), and a rendezvous
// protocol for large messages (an extra round trip that synchronizes the
// sender). Those costs are charged where they structurally occur, so the
// baseline loses for the paper's reasons, not by fiat.
//
// The messages travel over registered memory, as send/recv over notified
// access does (Belli & Hoefler, IPDPS'15), so the layer runs on every
// backend. Each rank registers one region at Dial: its inbox, a notification
// ring, then its staging arena and a chunk buffer. A send stages the
// message's header (and an eager payload) in the sender's arena and
// announces it in the receiver's inbox; the receiver fetches the header and
// the eager payload when it drains the announcement — the eager protocol's
// receiver-side buffering — and pulls a rendezvous payload through the
// sender's chunk buffer when it matches the message. Its ack frees the
// sender's staging at once; a completion notice completes a synchronous
// send. Virtual time is the closed-form cost model's alone: each formula
// time travels as its notification's stamp, and the moves themselves charge
// nothing (simnet's Endpoint.NotifyAt and Endpoint.Fetch).
package mpi1

import (
	"encoding/binary"
	"fmt"
	"slices"

	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

// AnyTag matches any user tag in Recv and Probe (tags below collTagBase: the
// collectives' messages are a context of their own, as in MPI).
const AnyTag = -1

// AnySource matches any sender in Recv and Probe.
const AnySource = -1

// The bounds: a rank's registered memory is its inbox — Size + maxOut ring
// slots, see Dial — stageBytes of arena and a chunk buffer of
// simnet.EagerMax bytes, whatever the traffic. A rank has at most one request
// notice (an announcement, a completion or a chunk request) in flight to each
// rank, at most maxOut in all, and at most maxStaged of them announcements. A
// staged message holds its extent only until its announcement's ack, so a
// receiver may match a sender's messages in any order, as many as there are;
// a synchronous send then waits for its completion notice unstaged. A notice
// past a bound waits in the rank's queue, and the next call of the layer
// posts it.
const (
	maxStaged  = 16              // announcements in flight at once
	maxOut     = 2*maxStaged + 1 // request notices in flight at once: the rest complete and pull
	stageBytes = 16 << 10        // the arena; an eager message fits whole
	hdrBytes   = 24              // a staged message's header: tag, length, send id
	maxID      = 1 << 26         // synchronous send ids, reused in turn
)

// The notices a ring word carries. An announcement, a completion and a chunk
// request are requests: each is answered by a reply, an ack or (to a chunk
// request) a ready. Only an announcement and a completion carry a time, as
// their stamp.
const (
	kindAnn   = iota + 1 // a message is staged; stamp: the time its payload is visible
	kindAck              // the receiver drained the announcement, or the sender the completion
	kindDone             // the receiver matched a synchronous message; stamp: the match
	kindNext             // the receiver pulls a rendezvous payload's next chunk
	kindReady            // the sender put that chunk in its chunk buffer
)

// note is a ring word unpacked: the kind in bits 0–2, the synchronous flag
// in bit 3, the argument in bits 4–29 and the sender in bits 30–62. An
// announcement's argument is its staging offset in 8-byte units (12 bits)
// under its eager payload's length; a completion's or chunk request's is the
// send's id at its sender.
type note struct {
	kind        int
	sync        bool
	off, n, src int
	id          int
}

func (m note) word() uint64 {
	arg := uint64(m.id)
	if m.kind == kindAnn {
		arg = uint64(m.off/8) | uint64(m.n)<<12
	}
	w := uint64(m.kind) | arg<<4 | uint64(m.src)<<30
	if m.sync {
		w |= 1 << 3
	}
	return w
}

func noteOf(w uint64) note {
	m := note{kind: int(w & 7), sync: w&(1<<3) != 0, src: int(w >> 30)}
	if arg := int(w >> 4 & (maxID - 1)); m.kind == kindAnn {
		m.off, m.n = arg&0xfff*8, arg>>12
	} else {
		m.id = arg
	}
	return m
}

// send is one send from Isend until it completes.
type send struct {
	dst, tag  int
	data      []byte // the payload: the caller's buffer, or a queued eager send's copy
	sync, rdv bool
	sendTime  timing.Time // virtual time the payload (or the RTS) is visible
	off, size int         // the staging extent, while the announcement awaits its ack
	id        int         // a synchronous send's id, once staged
	sent      int         // rendezvous: payload bytes put in the chunk buffer so far
	done      bool        // the request is complete
	at        timing.Time // the match time, once a synchronous send is done
}

// inbound is a drained announcement: one entry of the unexpected queue.
type inbound struct {
	src, tag, n int
	sync, rdv   bool
	sendTime    timing.Time
	id          int    // a synchronous message's send id at its sender
	data        []byte // an eager payload
}

// peer is a rank's outbound traffic to one rank.
type peer struct {
	sends []*send  // sends not yet staged, in Isend order
	ctl   []notice // completions and chunk requests not yet posted
	ann   *send    // the staged send whose announcement awaits its ack
	busy  bool     // a request to the rank awaits its reply
}

// notice is a queued completion or chunk request with its stamp.
type notice struct {
	m  note
	at timing.Time
}

// Comm is one rank's communicator handle over the MPI-1 layer.
type Comm struct {
	proc  *spmd.Proc
	ep    *simnet.Endpoint
	poll  *simnet.Endpoint // takes the ring's poll charge: the formulas price every wait
	model *simnet.CostModel
	reg   *simnet.Region
	key   simnet.Key
	arena int // the staging arena's offset in reg, after the inbox
	inbox simnet.NotifyRing
	seq   int // collective invocation counter (tag isolation)

	unexpected []*inbound    // the matching engine's queue, in drain order
	peers      map[int]*peer // by rank, for the ranks this one has sent to
	waiting    []int         // ranks with queued notices, oldest first
	out        int           // requests awaiting their replies
	staged     []*send       // sends holding staging, by offset
	pend       map[int]*send // synchronous sends awaiting completion, by id
	nextID     int           // the id of the next synchronous send staged
	chunkFor   *send         // the send whose chunk is in the chunk buffer
	chunkQ     []*send       // sends whose receivers wait for the chunk buffer
	pulled     bool          // the rendezvous chunk being pulled is in the buffer
	pulling    *inbound      // the rendezvous message being pulled
}

// Dial attaches the MPI-1 layer to p's world and returns this rank's
// communicator. It is collective: every rank registers its inbox, arena and
// chunk buffer, and Dial checks that the key is the same on every rank.
//
// The inbox holds every notice that can be in flight to the rank at once: a
// request from each rank (a rank sends the next request to a rank once the
// last one's reply is back) and a reply to each of the rank's own requests.
// O(p) words, whatever the traffic.
func Dial(p *spmd.Proc) *Comm {
	fab, me, model := p.Fabric(), p.Rank(), simnet.CrayMPI1()
	c := &Comm{proc: p, model: model,
		ep: simnet.NewEndpoint(fab, me, model), poll: simnet.NewEndpoint(fab, me, model),
		peers: map[int]*peer{}, pend: map[int]*send{}}
	ringCap := p.Size() + maxOut
	c.arena = simnet.NotifyRingBytes(ringCap)
	c.reg = c.ep.Register(c.arena + stageBytes + simnet.EagerMax)
	c.inbox.Bind(c.reg, 0, ringCap)
	c.key = c.reg.Key()
	// The allreduce is also the barrier: no rank announces into an inbox
	// before its owner has bound it.
	if hi := p.Allreduce8(spmd.OpMax, uint64(c.key)); hi != uint64(c.key) {
		panic(fmt.Sprintf("mpi1: inbox key %d on rank %d, %d on another; Dial collectively in the same order on every rank", c.key, me, hi))
	}
	return c
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.proc.Rank() }

// Size returns the world size.
func (c *Comm) Size() int { return c.proc.Size() }

// Now returns this layer's virtual clock for the rank.
func (c *Comm) Now() timing.Time { return c.ep.Now() }

// Compute charges local computation to this layer's clock.
func (c *Comm) Compute(ns int64) { c.ep.Compute(ns) }

func (c *Comm) profile(peer int) *simnet.Profile {
	return c.model.For(c.proc.SameNode(peer))
}

// Request tracks a nonblocking send until completion.
type Request struct{ s *send }

// Isend starts a nonblocking standard-mode send. Small messages go eager
// (complete once posted); large ones rendezvous (complete when the receiver
// has pulled the payload — buf must stay untouched until Wait).
func (c *Comm) Isend(dst, tag int, buf []byte) *Request {
	return c.isend(dst, tag, buf, false)
}

// Issend starts a nonblocking synchronous-mode send: it completes only once
// the receiver has matched the message (the NBX/DSDE building block).
func (c *Comm) Issend(dst, tag int, buf []byte) *Request {
	return c.isend(dst, tag, buf, true)
}

func (c *Comm) isend(dst, tag int, buf []byte, synchronous bool) *Request {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi1: send to invalid rank %d", dst))
	}
	pr := c.profile(dst)
	s := &send{dst: dst, tag: tag, data: buf, sync: synchronous}
	if len(buf) > simnet.EagerMax {
		s.rdv, s.sync = true, true
		c.ep.Compute(pr.InjectNs)
		s.sendTime = c.ep.Now() + timing.Time(pr.PutLatNs) // RTS arrival
	} else {
		c.ep.Compute(pr.InjectNs + int64(float64(len(buf))*pr.CopyNsPB))
		s.sendTime = c.ep.Now() + timing.Time(pr.PutLatNs) +
			timing.Time(float64(len(buf))*pr.NsPerByte)
	}
	q := c.peer(dst)
	q.sends = append(q.sends, s)
	c.progress()
	if !s.rdv && s.data != nil {
		s.data = append([]byte(nil), buf...) // still queued: the buffer is the caller's on return
	}
	return &Request{s}
}

// progress drains the inbox, then posts what the freed staging allows. Every
// call of the layer runs it, and a parked rank runs it on every wake; it
// charges no virtual time.
func (c *Comm) progress() {
	for {
		w, stamp, ok := c.inbox.TryPopStamped(c.poll)
		if !ok {
			break
		}
		c.handle(noteOf(w), stamp)
	}
	c.serveChunk()
	c.post()
}

// handle acts on one notice.
func (c *Comm) handle(m note, stamp timing.Time) {
	switch m.kind {
	case kindAnn:
		// Fetch the header, and an eager payload with it: the eager protocol
		// buffers at the receiver, which frees the sender's staging.
		b := make([]byte, hdrBytes+m.n)
		c.ep.Fetch(b, c.staging(m.src, m.off))
		in := &inbound{src: m.src, sync: m.sync, sendTime: stamp,
			tag: int(int64(binary.LittleEndian.Uint64(b))), n: int(binary.LittleEndian.Uint64(b[8:])),
			id: int(binary.LittleEndian.Uint64(b[16:]))}
		if in.rdv = in.n > simnet.EagerMax; !in.rdv {
			in.data = b[hdrBytes:]
		}
		c.unexpected = append(c.unexpected, in)
		c.notify(m.src, note{kind: kindAck}, 0)
	case kindAck:
		if s := c.replied(m.src); s != nil {
			c.free(s)
		}
	case kindDone:
		s := c.pending(m.id)
		c.release(s)
		s.at, s.done = stamp, true
		delete(c.pend, m.id)
		c.notify(m.src, note{kind: kindAck}, 0)
	case kindNext:
		s := c.pending(m.id)
		c.release(s)
		c.chunkQ = append(c.chunkQ, s)
	case kindReady:
		c.replied(m.src)
		c.pulled = true
	default:
		panic(fmt.Sprintf("mpi1: rank %d's inbox holds an unknown notice %#x", c.Rank(), m.word()))
	}
}

// peer returns the rank's outbound state for rank r.
func (c *Comm) peer(r int) *peer {
	q := c.peers[r]
	if q == nil {
		q = &peer{}
		c.peers[r] = q
	}
	if len(q.sends)+len(q.ctl) == 0 {
		c.waiting = append(c.waiting, r)
	}
	return q
}

// queue posts a completion or chunk request to rank r, or queues it.
func (c *Comm) queue(r int, m note, at timing.Time) {
	q := c.peer(r)
	q.ctl = append(q.ctl, notice{m, at})
	c.post()
}

// post sends queued notices, one request at a time to each rank: a
// completion or chunk request first, else the next send in Isend order,
// staged while the arena has room. No send is announced to the rank being
// pulled from, so the pull's next request, which frees that rank's chunk
// buffer, goes out at once.
func (c *Comm) post() {
	kept, full := c.waiting[:0], false
	for _, r := range c.waiting {
		q := c.peers[r]
		if !q.busy && c.out < maxOut {
			if len(q.ctl) > 0 {
				c.request(r, q.ctl[0].m, q.ctl[0].at)
				q.ctl = q.ctl[1:]
			} else if !full && (c.pulling == nil || c.pulling.src != r) {
				if full = !c.stage(q.sends[0]); !full {
					q.sends[0], q.sends = nil, q.sends[1:]
				}
			}
		}
		if len(q.sends)+len(q.ctl) > 0 {
			kept = append(kept, r)
		}
	}
	c.waiting = kept
}

// request sends a request to rank r; its reply frees the way for the next.
func (c *Comm) request(r int, m note, at timing.Time) {
	c.peers[r].busy = true
	c.out++
	c.notify(r, m, at)
}

// replied takes rank r's reply to the request in flight to it and returns
// the send whose announcement it answers, if it does.
func (c *Comm) replied(r int) *send {
	q := c.peers[r]
	if q == nil || !q.busy {
		panic(fmt.Sprintf("mpi1: rank %d has a reply from rank %d, to which no request is in flight", c.Rank(), r))
	}
	s := q.ann
	q.ann, q.busy = nil, false
	c.out--
	return s
}

// stage copies s's header, and an eager payload, into a free extent of the
// arena and announces it, or reports that no extent is free.
func (c *Comm) stage(s *send) bool {
	size := hdrBytes
	if !s.rdv {
		size += len(s.data)
	}
	if !c.alloc(s, (size+7)&^7) {
		return false
	}
	if s.sync {
		if c.pend[c.nextID] != nil {
			panic(fmt.Sprintf("mpi1: rank %d's synchronous send id %d, issued %d synchronous sends ago, still awaits completion", c.Rank(), c.nextID, maxID))
		}
		s.id, c.nextID = c.nextID, (c.nextID+1)%maxID
		c.pend[s.id] = s
	}
	a := c.reg.Bytes()[c.arena+s.off:]
	binary.LittleEndian.PutUint64(a, uint64(s.tag))
	binary.LittleEndian.PutUint64(a[8:], uint64(len(s.data)))
	binary.LittleEndian.PutUint64(a[16:], uint64(s.id))
	m := note{kind: kindAnn, off: s.off, sync: s.sync}
	if !s.rdv {
		m.n = copy(a[hdrBytes:], s.data)
		s.data, s.done = nil, !s.sync
	}
	c.peers[s.dst].ann = s
	c.request(s.dst, m, s.sendTime)
	return true
}

// pending returns the synchronous send a notice names.
func (c *Comm) pending(id int) *send {
	if s := c.pend[id]; s != nil {
		return s
	}
	panic(fmt.Sprintf("mpi1: rank %d has a notice for send id %d, where no synchronous send awaits completion", c.Rank(), id))
}

// serveChunk puts the next chunk of the longest-waiting pull in the chunk
// buffer, once the buffer is free, and says so to its receiver.
func (c *Comm) serveChunk() {
	if c.chunkFor != nil || len(c.chunkQ) == 0 {
		return
	}
	s := c.chunkQ[0]
	c.chunkQ[0], c.chunkQ = nil, c.chunkQ[1:]
	k := min(len(s.data)-s.sent, simnet.EagerMax)
	copy(c.reg.Bytes()[c.arena+stageBytes:], s.data[s.sent:s.sent+k])
	s.sent += k
	c.chunkFor = s
	c.notify(s.dst, note{kind: kindReady}, 0)
}

// release frees the chunk buffer if s's chunk is in it: its receiver asks
// for the next chunk, or is done, only once it has fetched this one.
func (c *Comm) release(s *send) {
	if c.chunkFor == s {
		c.chunkFor = nil
	}
}

// alloc gives s the first free extent of size bytes, first fit over the
// staged sends, which it keeps ordered by offset.
func (c *Comm) alloc(s *send, size int) bool {
	if len(c.staged) == maxStaged {
		return false
	}
	at, i := 0, 0
	for ; i < len(c.staged) && c.staged[i].off-at < size; i++ {
		at = c.staged[i].off + c.staged[i].size
	}
	if i == len(c.staged) && stageBytes-at < size {
		return false
	}
	s.off, s.size = at, size
	c.staged = slices.Insert(c.staged, i, s)
	return true
}

// free returns s's extent.
func (c *Comm) free(s *send) {
	c.staged = slices.DeleteFunc(c.staged, func(t *send) bool { return t == s })
}

// staging addresses rank's staging at off.
func (c *Comm) staging(rank, off int) simnet.Addr {
	return simnet.Addr{Rank: rank, Key: c.key, Off: c.arena + off}
}

// notify deposits m, from this rank, in rank's inbox, stamped at.
func (c *Comm) notify(rank int, m note, at timing.Time) {
	m.src = c.Rank()
	c.ep.NotifyAt(simnet.Addr{Rank: rank, Key: c.key}, m.word(), at)
}

// await runs progress until ready holds, parking the rank at its own door
// between tries. Every notice rings the door of the rank it lands at, and
// the generation is sampled before each try, so no wakeup is lost. It
// charges no virtual time (the protocol's formulas price the wait), and in a
// dead world WaitDoor unwinds with the world's abort value.
func (c *Comm) await(ready func() bool) {
	fab, me := c.proc.Fabric(), c.Rank()
	for gen := fab.DoorGen(me); ; gen = fab.WaitDoor(me, gen) {
		c.progress()
		if ready() {
			return
		}
	}
}

// Wait blocks until the request completes and merges its completion time.
func (c *Comm) Wait(r *Request) {
	s := r.s
	if !s.done {
		c.await(func() bool { return s.done })
	}
	if s.sync {
		c.ep.AdvanceTo(s.at)
	}
}

// Test reports (without blocking) whether the request has completed.
func (c *Comm) Test(r *Request) bool {
	if !r.s.done {
		c.progress()
	}
	return r.s.done
}

// WaitAll waits for every request.
func (c *Comm) WaitAll(rs []*Request) {
	for _, r := range rs {
		c.Wait(r)
	}
}

// Send transmits buf to dst with tag (standard mode, blocking).
func (c *Comm) Send(dst, tag int, buf []byte) { c.Wait(c.Isend(dst, tag, buf)) }

// Ssend transmits in synchronous mode: it returns only after the receiver
// has matched the message.
func (c *Comm) Ssend(dst, tag int, buf []byte) { c.Wait(c.Issend(dst, tag, buf)) }

// match scans the unexpected queue; scanned counts the entries examined
// before the hit, charged by the receiver (matching is a linear search in
// real MPI implementations — the cost that grows with message pressure).
func (c *Comm) match(src, tag int, remove bool) (m *inbound, scanned int) {
	for i, m := range c.unexpected {
		if (src == AnySource || m.src == src) && (m.tag == tag || tag == AnyTag && m.tag < collTagBase) {
			if remove {
				c.unexpected = slices.Delete(c.unexpected, i, i+1)
			}
			return m, i
		}
	}
	return nil, len(c.unexpected)
}

// Recv receives a message matching (src, tag) into buf, returning the
// sender, the tag, and the byte count.
func (c *Comm) Recv(src, tag int, buf []byte) (from, gotTag, n int) {
	var m *inbound
	var scanned int
	c.await(func() bool {
		m, scanned = c.match(src, tag, true)
		return m != nil
	})
	c.ep.Compute(int64(scanned) * scanNs)
	return c.deliver(m, buf)
}

// scanNs is the charge per unexpected-queue entry examined during matching.
const scanNs = 150

// TryRecv receives a matching message if one is immediately available.
func (c *Comm) TryRecv(src, tag int, buf []byte) (from, gotTag, n int, ok bool) {
	c.progress()
	m, scanned := c.match(src, tag, true)
	if m == nil {
		// A miss costs no virtual time: a real progress loop spins until
		// the message physically arrives, and that waiting shows up as the
		// receiver's clock advancing to the arrival time on the hit —
		// charging per real iteration would couple virtual time to host
		// scheduling noise.
		return -1, 0, 0, false
	}
	c.ep.Compute(int64(scanned)*scanNs + c.profile(c.Rank()).PollNs)
	from, gotTag, n = c.deliver(m, buf)
	return from, gotTag, n, true
}

// deliver completes a matched message and charges the receiver-side costs.
func (c *Comm) deliver(m *inbound, buf []byte) (from, gotTag, n int) {
	pr := c.profile(m.src)
	c.ep.Compute(pr.MatchNs) // software matching on the critical path
	if m.rdv {
		// CTS round trip plus the pull of the payload.
		n = min(len(buf), m.n)
		c.pull(m, buf[:n])
		c.ep.AdvanceTo(timing.Max(c.ep.Now(), m.sendTime) +
			timing.Time(pr.GetLatNs) + timing.Time(float64(n)*pr.NsPerByte))
	} else {
		n = copy(buf, m.data)
		// Copy out of the eager pool: the receiver-side copy RMA avoids.
		c.ep.AdvanceTo(timing.Max(c.ep.Now(), m.sendTime) +
			timing.Time(float64(n)*pr.CopyNsPB))
	}
	if m.sync {
		c.queue(m.src, note{kind: kindDone, id: m.id}, c.ep.Now())
	}
	return m.src, m.tag, n
}

// pull fetches a rendezvous payload's first len(dst) bytes through the
// sender's chunk buffer: for each chunk it asks, waits until the sender's
// next call of the layer has put the chunk there, and fetches it.
func (c *Comm) pull(m *inbound, dst []byte) {
	a := c.staging(m.src, stageBytes)
	c.pulling = m
	for got := 0; got < len(dst); got += simnet.EagerMax {
		c.pulled = false
		c.queue(m.src, note{kind: kindNext, id: m.id}, 0)
		c.await(func() bool { return c.pulled })
		c.ep.Fetch(dst[got:min(got+simnet.EagerMax, len(dst))], a)
	}
	c.pulling = nil
}

// Probe reports whether a message matching (src, tag) is available, without
// receiving it.
func (c *Comm) Probe(src, tag int) (from int, ok bool) {
	c.progress()
	m, scanned := c.match(src, tag, false)
	if m == nil {
		return -1, false
	}
	c.ep.Compute(c.model.Intra.PollNs + int64(scanned)*scanNs)
	return m.src, true
}

// SendRecv exchanges messages (deadlock-free: the send is nonblocking).
func (c *Comm) SendRecv(dst, sendTag int, sendBuf []byte, src, recvTag int, recvBuf []byte) int {
	req := c.Isend(dst, sendTag, sendBuf)
	_, _, n := c.Recv(src, recvTag, recvBuf)
	c.Wait(req)
	return n
}
