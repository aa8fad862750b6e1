// Package mpi1 is the message-passing comparator: a Cray-MPI-like MPI-1
// point-to-point layer (plus the collectives the applications need) built
// over the same simulated fabric as foMPI. It deliberately implements the
// mechanisms that make message passing over RDMA more expensive than native
// RMA (§1 of the paper): software tag matching on the receiver, an eager
// protocol with receiver-side buffering (an extra copy), and a rendezvous
// protocol for large messages (an extra round trip that synchronizes the
// sender). Those costs are charged where they structurally occur, so the
// baseline loses for the paper's reasons, not by fiat.
package mpi1

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

// AnyTag matches any user tag in Recv and Probe (tags below collTagBase: the
// collectives' messages are a context of their own, as in MPI).
const AnyTag = -1

// AnySource matches any sender in Recv and Probe.
const AnySource = -1

// message is one in-flight point-to-point message. A sender that waits for
// the match (rendezvous, synchronous mode) reads its completion off the
// message: the receiver stores at, then done, then rings the sender's
// doorbell.
type message struct {
	src, tag   int
	data       []byte      // eager payload (copied at send)
	sendTime   timing.Time // virtual time the payload becomes visible
	rendezvous bool        // payload pulled by receiver on match
	srcBuf     []byte      // rendezvous source buffer
	sync       bool        // the sender waits for the match
	at         timing.Time // completion time, valid once done
	done       atomic.Bool
}

// mailbox is the per-rank matching engine (the receiver-side software Cray
// MPI runs; its cost is charged via Profile.MatchNs).
type mailbox struct {
	mu         sync.Mutex
	unexpected []*message
}

func (mb *mailbox) push(m *message) {
	mb.mu.Lock()
	mb.unexpected = append(mb.unexpected, m)
	mb.mu.Unlock()
}

// match scans the unexpected queue; scanned counts the entries examined
// before the hit, charged by the receiver (matching is a linear search in
// real MPI implementations — the cost that grows with message pressure).
func (mb *mailbox) match(src, tag int, remove bool) (m *message, scanned int) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, m := range mb.unexpected {
		if (src == AnySource || m.src == src) && (m.tag == tag || tag == AnyTag && m.tag < collTagBase) {
			if remove {
				mb.unexpected = append(mb.unexpected[:i], mb.unexpected[i+1:]...)
			}
			return m, i
		}
	}
	return nil, len(mb.unexpected)
}

// world holds the mailboxes shared by the ranks of one world, in its slot
// (spmd.Proc.Shared): it lives and dies with the world.
type world struct {
	boxes []mailbox
	model *simnet.CostModel
}

// Comm is one rank's communicator handle over the MPI-1 layer.
type Comm struct {
	proc *spmd.Proc
	ep   *simnet.Endpoint
	w    *world
	seq  int // collective invocation counter (tag isolation)
}

// Dial attaches the MPI-1 layer to p's world and returns this rank's
// communicator. All communicating ranks must Dial. The mailboxes are this
// process's memory, so a process world refuses by name.
func Dial(p *spmd.Proc) *Comm {
	if _, inProc := p.Fabric().(*simnet.Fabric); !inProc {
		panic("mpi1: two-sided runs in process only")
	}
	w := p.Shared(func() any {
		return &world{boxes: make([]mailbox, p.Size()), model: simnet.CrayMPI1()}
	}).(*world)
	return &Comm{proc: p, ep: simnet.NewEndpoint(p.Fabric(), p.Rank(), w.model), w: w}
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.proc.Rank() }

// Size returns the world size.
func (c *Comm) Size() int { return c.proc.Size() }

// Now returns this layer's virtual clock for the rank.
func (c *Comm) Now() timing.Time { return c.ep.Now() }

// Compute charges local computation to this layer's clock.
func (c *Comm) Compute(ns int64) { c.ep.Compute(ns) }

// EP exposes the layer endpoint (bench instrumentation).
func (c *Comm) EP() *simnet.Endpoint { return c.ep }

func (c *Comm) profile(peer int) *simnet.Profile {
	return c.w.model.For(c.proc.SameNode(peer))
}

// Request tracks a nonblocking send until completion: the message whose
// match it waits for, nil when the send completed locally.
type Request struct{ m *message }

// Isend starts a nonblocking standard-mode send. Small messages go eager
// (locally complete immediately); large ones rendezvous (complete when the
// receiver pulls the payload — buf must stay untouched until Wait).
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
	m := &message{src: c.Rank(), tag: tag, sync: synchronous}
	if len(buf) > simnet.EagerMax {
		m.rendezvous, m.sync = true, true
		m.srcBuf = buf
		c.ep.Compute(pr.InjectNs)
		m.sendTime = c.ep.Now() + timing.Time(pr.PutLatNs) // RTS arrival
	} else {
		m.data = append([]byte(nil), buf...)
		c.ep.Compute(pr.InjectNs + int64(float64(len(buf))*pr.CopyNsPB))
		m.sendTime = c.ep.Now() + timing.Time(pr.PutLatNs) +
			timing.Time(float64(len(buf))*pr.NsPerByte)
	}
	c.w.boxes[dst].push(m)
	c.proc.Fabric().RingDoorbell(dst)
	if !m.sync {
		return &Request{}
	}
	return &Request{m}
}

// await parks the rank at its own door until ready holds. Whatever can make
// it hold — a message pushed into this rank's mailbox, the match of one of
// its sends — rings this rank's doorbell afterwards, and ready is re-checked
// after every return, so no wakeup is lost. It charges no virtual time (the
// protocol's formulas price the wait), and in a dead world WaitDoor unwinds
// with the world's abort value.
func (c *Comm) await(ready func() bool) {
	fab, me := c.proc.Fabric(), c.Rank()
	for gen := fab.DoorGen(me); !ready(); {
		gen = fab.WaitDoor(me, gen)
	}
}

// Wait blocks until the request completes and merges its completion time.
func (c *Comm) Wait(r *Request) {
	if r.m != nil {
		c.await(r.m.done.Load)
		c.ep.AdvanceTo(r.m.at)
	}
}

// Test reports (without blocking) whether the request has completed.
func (c *Comm) Test(r *Request) bool { return r.m == nil || r.m.done.Load() }

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

// Recv receives a message matching (src, tag) into buf, returning the
// sender, the tag, and the byte count.
func (c *Comm) Recv(src, tag int, buf []byte) (from, gotTag, n int) {
	mb := &c.w.boxes[c.Rank()]
	var m *message
	var scanned int
	c.await(func() bool {
		m, scanned = mb.match(src, tag, true)
		return m != nil
	})
	c.ep.Compute(int64(scanned) * scanNs)
	return c.deliver(m, buf)
}

// scanNs is the charge per unexpected-queue entry examined during matching.
const scanNs = 150

// TryRecv receives a matching message if one is immediately available.
func (c *Comm) TryRecv(src, tag int, buf []byte) (from, gotTag, n int, ok bool) {
	m, scanned := c.w.boxes[c.Rank()].match(src, tag, true)
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
func (c *Comm) deliver(m *message, buf []byte) (from, gotTag, n int) {
	pr := c.profile(m.src)
	c.ep.Compute(pr.MatchNs) // software matching on the critical path
	if m.rendezvous {
		// CTS round trip plus the pull of the payload.
		n = copy(buf, m.srcBuf)
		c.ep.AdvanceTo(timing.Max(c.ep.Now(), m.sendTime) +
			timing.Time(pr.GetLatNs) + timing.Time(float64(n)*pr.NsPerByte))
	} else {
		n = copy(buf, m.data)
		// Copy out of the eager pool: the receiver-side copy RMA avoids.
		c.ep.AdvanceTo(timing.Max(c.ep.Now(), m.sendTime) +
			timing.Time(float64(n)*pr.CopyNsPB))
	}
	if m.sync {
		m.at = c.ep.Now()
		m.done.Store(true)
		c.proc.Fabric().RingDoorbell(m.src)
	}
	return m.src, m.tag, n
}

// Probe reports whether a message matching (src, tag) is available, without
// receiving it.
func (c *Comm) Probe(src, tag int) (from int, ok bool) {
	m, scanned := c.w.boxes[c.Rank()].match(src, tag, false)
	if m == nil {
		return -1, false
	}
	c.ep.Compute(c.w.model.Intra.PollNs + int64(scanned)*scanNs)
	return m.src, true
}

// SendRecv exchanges messages (deadlock-free: the send is nonblocking).
func (c *Comm) SendRecv(dst, sendTag int, sendBuf []byte, src, recvTag int, recvBuf []byte) int {
	req := c.Isend(dst, sendTag, sendBuf)
	_, _, n := c.Recv(src, recvTag, recvBuf)
	c.Wait(req)
	return n
}
