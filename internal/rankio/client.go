package rankio

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fompi/internal/simnet"
	"fompi/internal/sock"
	"fompi/internal/telemetry"
)

// byeTimeout is a failsafe only: a finished rank must keep serving its
// memory until every rank is done (coordinator death is caught by the
// control-stream watcher), so this bounds nothing but a wedged-alive
// coordinator and is deliberately generous.
const byeTimeout = 10 * time.Minute

// Client is one rank's end of the control plane: the handshake (Join, World,
// Ready), the status reports (Finish, Fail) and the watcher that turns
// coordinator lines into this process's abort state. Backends embed it; what
// an abort means for their data plane they say with OnAbort.
type Client struct {
	o            Options
	conn         sock.Conn
	rd           *bufio.Scanner
	wr           sync.Mutex // serializes status lines against the watcher's PONGs
	tm           Timeouts
	rank         int
	addrs, hosts []string // the WORLD catalog, by rank

	aborted atomic.Bool
	// failedRank is the rank blamed for the abort (NoteFailedRank); -1 while
	// the world is healthy or the abort has no known culprit.
	failedRank atomic.Int32
	done, bye  chan struct{}
	abortOnce  sync.Once
	hookMu     sync.Mutex
	hooks      []func()
}

// HostKey resolves the host key this rank joins under — ranks with equal keys
// share a physical host, unless the launcher's placement overrides the
// catalog (Options.HostKeys): EnvHost (set by the operator), then the
// hostname. The key rides space-separated control lines and the
// comma-joined WORLD catalog, so what token would refuse is rewritten.
func HostKey() string {
	h := os.Getenv(EnvHost)
	if h == "" {
		h, _ = os.Hostname()
	}
	h = strings.Map(func(r rune) rune {
		if separator(r) {
			return '-'
		}
		return r
	}, h)
	if h == "" {
		h = "host0"
	}
	return h
}

// Join opens this rank's control conversation on conn with its JOIN line:
// the world shape o, the rank it claims (-1 to be assigned one in join order),
// its data-plane address for the catalog and its HostKey. The coordinator
// answers only once every rank has joined; World waits for that.
func Join(conn sock.Conn, o Options, rank int, addr string) (*Client, error) {
	tm, err := ResolveTimeouts()
	if err != nil {
		return nil, err
	}
	c := &Client{o: o, conn: conn, rd: newLineReader(conn), tm: tm, rank: rank,
		done: make(chan struct{}), bye: make(chan struct{})}
	c.failedRank.Store(-1)
	err = c.send(ctlLine{kind: lnJoin, backend: o.Backend, rank: rank, addr: addr, host: HostKey(),
		ranks: o.Ranks, rpn: o.RanksPerNode, pace: o.PaceWindowNs})
	if err != nil {
		return nil, fmt.Errorf("rankio: send JOIN: %w", err)
	}
	return c, nil
}

// World blocks for the WORLD catalog and fixes this rank (a rankless joiner is
// assigned one here). The catalog arrives only once every rank has joined, so
// the wait is bounded by the coordinator's join timeout, not the boot timeout.
func (c *Client) World() error {
	wait := BootTimeout
	if c.o.JoinTimeout > BootTimeout {
		wait = c.o.JoinTimeout + 10*time.Second
	}
	c.conn.SetReadDeadline(time.Now().Add(wait))
	l, err := readLine(c.rd)
	c.conn.SetReadDeadline(time.Time{})
	switch {
	case err != nil:
		return fmt.Errorf("rankio: world catalog handshake: %w", err)
	case l.kind != lnWorld || len(l.addrs) != c.Size() || len(l.hosts) != c.Size() || l.rank < 0 || l.rank >= c.Size():
		return fmt.Errorf("rankio: malformed world catalog (%d addrs, %d hosts, rank %d)", len(l.addrs), len(l.hosts), l.rank)
	}
	c.rank, c.addrs, c.hosts = l.rank, l.addrs, l.hosts
	return nil
}

// Addrs and Hosts are the catalog: each rank's data-plane address (ephemeral
// ports make the joined list world-unique) and host key (ranks with equal
// keys share a physical host). Callers must not modify them.
func (c *Client) Addrs() []string { return c.addrs }
func (c *Client) Hosts() []string { return c.hosts }

// Rank returns this process's rank (-1 before World assigned one).
func (c *Client) Rank() int { return c.rank }

// Size and RanksPerNode are the world's shape.
func (c *Client) Size() int         { return c.o.Ranks }
func (c *Client) RanksPerNode() int { return c.o.RanksPerNode }

// send writes lines as one locked, bounded write: a wedged coordinator cannot
// park the caller on a full socket buffer.
func (c *Client) send(lines ...ctlLine) error {
	var b []byte
	for _, l := range lines {
		b = append(b, formatLine(l)...)
	}
	c.wr.Lock()
	defer c.wr.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_, err := c.conn.Write(b)
	c.conn.SetWriteDeadline(time.Time{})
	return err
}

// Ready enters the bootstrap barrier: it tells the coordinator this rank's
// setup registrations are addressable, blocks until every rank's are, then
// starts watching the control stream. A rank that claimed its rank and needs
// nothing from the catalog may skip World: its READY goes out at once, and
// the catalog is read here, behind it.
func (c *Client) Ready() error {
	if err := c.send(ctlLine{kind: lnReady, rank: c.rank}); err != nil {
		return fmt.Errorf("rankio: report READY: %w", err)
	}
	if c.addrs == nil {
		if err := c.World(); err != nil {
			return err
		}
	}
	// A dead or wedged coordinator must not strand workers: bound the wait.
	c.conn.SetReadDeadline(time.Now().Add(BootTimeout))
	l, err := readLine(c.rd)
	c.conn.SetReadDeadline(time.Time{})
	if err != nil || l.kind != lnGo {
		return fmt.Errorf("rankio: bootstrap barrier failed (%v)", err)
	}
	go c.watch()
	return nil
}

// watch surfaces coordinator-pushed lines after GO: PING answers the liveness
// probe, RANKFAIL records which rank the verdict blamed (so blocked
// primitives unwind with *simnet.ErrPeerFailed instead of the bare
// ErrAborted), ABORT aborts this process, BYE releases Finish, DUMP answers
// with this rank's telemetry so far — measured or not — and then writes every
// goroutine's stack to stderr under a header naming the rank. A dead
// coordinator — a read error, a line that does not parse, or a control
// stream silent for the SilenceBudget (its host vanished without a FIN) —
// aborts too, so no rank hangs on a vanished world; that includes a finished
// rank waiting for BYE, which the abort releases.
func (c *Client) watch() {
	for {
		c.conn.SetReadDeadline(time.Now().Add(c.tm.SilenceBudget()))
		l, err := readLine(c.rd)
		switch {
		case err != nil || l.kind == lnAbort:
			c.localAbort()
			return
		case l.kind == lnPing:
			c.send(ctlLine{kind: lnPong, rank: c.rank})
		case l.kind == lnRankFail:
			c.NoteFailedRank(l.rank) // the ABORT that follows the verdict tears down
			telemetry.RecordEvent(telemetry.EvRankFail, uint64(l.rank), 0)
		case l.kind == lnBye:
			close(c.bye)
			return
		case l.kind == lnDump:
			c.send(ctlLine{kind: lnStats, text: string(telemetry.Capture(c.rank).JSON())})
			os.Stderr.Write(append(fmt.Appendf(nil, "dump[pid %d]: rank %d goroutines\n", os.Getpid(), c.rank), allStacks()...))
		}
	}
}

// allStacks is runtime.Stack of every goroutine, in a buffer grown until it fits.
func allStacks() []byte {
	for buf := make([]byte, 64<<10); ; buf = make([]byte, 2*len(buf)) {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return buf[:n]
		}
	}
}

// report sends a DONE or FAIL line behind this rank's telemetry snapshot, when
// telemetry is on: one write, so the coordinator merges the snapshot before
// it can account the rank finished — and therefore before the world can reach
// BYE and any backend can tear its data plane down — and a victim's
// flight-recorder tail arrives with the failure it explains. (A snapshot past
// the line bound is cut, fails to parse at the coordinator and is dropped.)
func (c *Client) report(status ctlLine) {
	if telemetry.On() {
		c.send(ctlLine{kind: lnStats, text: string(telemetry.Capture(c.rank).JSON())}, status)
		return
	}
	c.send(status)
}

// Finish reports clean completion and blocks until the coordinator releases
// the world (BYE): this rank's memory stays remotely addressable until every
// rank is done, on every backend.
func (c *Client) Finish() {
	c.report(ctlLine{kind: lnDone, rank: c.rank})
	select {
	case <-c.bye:
	case <-c.done:
	case <-time.After(byeTimeout):
	}
	c.conn.Close()
}

// Fail aborts the world and reports msg to the coordinator; the caller exits
// nonzero afterwards.
func (c *Client) Fail(msg string) {
	c.report(ctlLine{kind: lnFail, rank: c.rank, text: msg})
	c.localAbort()
	c.conn.Close()
}

// localAbort runs this process's abort consequences exactly once.
func (c *Client) localAbort() {
	c.abortOnce.Do(func() {
		telemetry.RecordEvent(telemetry.EvAbort, uint64(c.rank), 0)
		c.aborted.Store(true)
		close(c.done)
		c.hookMu.Lock()
		hooks := append([]func(){}, c.hooks...)
		c.hookMu.Unlock()
		for _, fn := range hooks {
			fn()
		}
	})
}

// OnAbort registers fn to run when this process observes the abort; if the
// world already aborted, fn runs immediately.
func (c *Client) OnAbort(fn func()) {
	c.hookMu.Lock()
	c.hooks = append(c.hooks, fn)
	c.hookMu.Unlock()
	if c.Aborted() {
		fn()
	}
}

// Aborted reports whether this process has observed the world's abort, and
// Done returns a channel closed when it does.
func (c *Client) Aborted() bool         { return c.aborted.Load() }
func (c *Client) Done() <-chan struct{} { return c.done }

// NoteFailedRank records the first rank blamed for the world's death: the
// one the coordinator's verdict names (on this stream, or relayed by an owner
// that heard it first), or this rank when it fails of its own accord.
// FailedRank returns it, -1 while the world is healthy or the abort has no
// known culprit.
func (c *Client) NoteFailedRank(r int) { c.failedRank.CompareAndSwap(-1, int32(r)) }
func (c *Client) FailedRank() int      { return int(c.failedRank.Load()) }

// AbortErr is nil while the world stands, and after an abort the value
// blocked primitives unwind with (a parking hook's Aborted):
// *simnet.ErrPeerFailed when the verdict named the dead rank, the bare
// simnet.ErrAborted otherwise. Both satisfy
// errors.Is(err, simnet.ErrAborted).
func (c *Client) AbortErr() error {
	if !c.Aborted() {
		return nil
	}
	if r := c.FailedRank(); r >= 0 {
		return &simnet.ErrPeerFailed{Rank: r}
	}
	return simnet.ErrAborted
}
