package rankio

import (
	"bufio"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fompi/internal/sock"
	"fompi/internal/telemetry"
)

// A spawned rank learns its world from two variables: EnvCoord names the
// backend and the coordinator's socket as "backend:network:address" (host-list
// operators export the same variable), EnvRank the rank — optional in
// host-list mode, where join order assigns the unclaimed slots. EnvHost is a
// deployment setting: the host key a rank joins under (see HostKey).
const (
	EnvCoord = "FOMPI_COORD"
	EnvRank  = "FOMPI_RANK"
	EnvHost  = "FOMPI_NET_HOST"
)

const (
	// BootTimeout bounds each bootstrap step that has no timeout of its own:
	// a dial, the READY/GO barrier.
	BootTimeout = 60 * time.Second
	// abortGrace bounds the time between the abort broadcast and the
	// coordinator force-dropping unaccounted ranks; together with the
	// requester-side deadlines it is what makes "a dead rank surfaces as a
	// typed error within ten seconds" a testable promise.
	abortGrace      = 8 * time.Second
	joinProgressDot = 5 * time.Second
)

// WorkerBackend names the backend whose world this process was started as a
// rank of, "" in any other process.
func WorkerBackend() string {
	backend, _, _ := strings.Cut(os.Getenv(EnvCoord), ":")
	return backend
}

// WorkerOf reads this worker's identity: the coordinator socket EnvCoord
// names — which must be a world of backend — and the rank EnvRank claims, -1
// when it claims none.
func WorkerOf(backend string, ranks int) (network, addr string, rank int, err error) {
	coord := os.Getenv(EnvCoord)
	got, rest, _ := strings.Cut(coord, ":")
	network, addr, _ = strings.Cut(rest, ":")
	switch {
	case network == "" || addr == "":
		return "", "", -1, fmt.Errorf("rankio: not a worker process: %s=%q (want backend:network:address)", EnvCoord, coord)
	case got != backend:
		return "", "", -1, fmt.Errorf("%w: %s names a %s world, this rank runs the %s backend", ErrBackendMismatch, EnvCoord, got, backend)
	}
	rank = -1
	if s := os.Getenv(EnvRank); s != "" {
		if rank, err = strconv.Atoi(s); err != nil || rank < 0 || rank >= ranks {
			return "", "", -1, fmt.Errorf("rankio: bad %s=%q for world of %d ranks", EnvRank, s, ranks)
		}
	}
	return network, addr, rank, nil
}

// Options describes one cross-process world, to its launcher and to each of
// its workers. The two must agree on Backend, Ranks, RanksPerNode (both at
// least 1) and PaceWindowNs: every JOIN carries them, and the coordinator
// refuses a worker whose differ.
type Options struct {
	Backend      string // the placement's name (netrun.Launch); a JOIN under another is refused
	Ranks        int
	RanksPerNode int
	PaceWindowNs int64
	// ArenaBytes is each rank's registered-memory arena when it shares one
	// with host-mates; zero means 16 MiB.
	ArenaBytes int
	// Listen is the coordinator's TCP listen address, in a world that has
	// one. Empty means 127.0.0.1:0 in spawn mode, :7077 in host-list mode.
	Listen string
	// Hosts, when non-empty, selects host-list mode: the
	// coordinator spawns nothing and waits for Ranks workers the operator
	// starts on the listed machines with EnvCoord set. The list is advisory
	// placement documentation, quoted in the launch banner; ranks follow
	// explicit EnvRank claims, then join order.
	Hosts []string
	// Relaunch is the worker command line spawn mode executes once per rank
	// on this machine; nil re-executes os.Args. TagOutput prefixes each
	// spawned rank's stdout/stderr with "[rank N]".
	Relaunch  []string
	TagOutput bool
	// HostKeys is the launcher's placement: rank r's host key in the WORLD
	// catalog is HostKeys[r], whatever its JOIN said. Empty (every rank keeps
	// the key it resolved, see HostKey) or exactly Ranks long.
	HostKeys []string
	// JoinTimeout bounds the rendezvous: how long the coordinator waits for
	// every rank to JOIN before failing with an *ErrJoinTimeout naming the
	// absent ones. Zero means BootTimeout.
	JoinTimeout time.Duration
}

// ErrBackendMismatch reports a worker of one backend joining another's world
// (the backends disagree on where registered memory lives).
var ErrBackendMismatch = errors.New("rankio: worker and world are of different backends")

// ErrJoinTimeout reports a rendezvous that ran out its join timeout with
// ranks still absent. Missing lists the rank slots no worker claimed, under
// the same assignment rule a completed join would have used (explicit
// EnvRank claims first, join-order workers filling the lowest free slots).
type ErrJoinTimeout struct {
	Joined, Ranks int
	Timeout       time.Duration
	Missing       []int
}

func (e *ErrJoinTimeout) Error() string {
	return fmt.Sprintf("rankio: rendezvous timed out after %v with %d of %d ranks joined; missing ranks %v",
		e.Timeout, e.Joined, e.Ranks, e.Missing)
}

// member is the coordinator's view of one joined rank.
type member struct {
	conn sock.Conn
	rd   *bufio.Scanner
	join ctlLine
}

type coord struct {
	Options
	tm      Timeouts
	onReady func()
	quit    chan os.Signal // SIGQUIT to the launcher: DUMP every rank
	ln      sock.Listener
	cmds    []*Cmd    // nil in host-list mode
	joined  []*member // in join order
	members []*member // by rank, once assigned
}

// Coordinate runs one world from the launcher side over ln: spawn (or the
// host-list banner), the JOIN/WORLD rendezvous, the READY/GO barrier, then
// the status loop until every rank is accounted for. A backend may supply
// onReady, run once every rank is READY, before GO releases them. The verdict
// of a failed world — RANKFAIL naming the culprit, then ABORT — travels on
// every rank's control stream and nowhere else, and so does the answer to a
// SIGQUIT to the launcher: DUMP to every rank, each of which answers with its
// STATS line and writes its goroutines to its own stderr. Coordinate returns
// nil only if every rank finished cleanly; a failed world is a *RankError
// naming the causal rank and carrying the first non-zero worker exit code.
func Coordinate(ln sock.Listener, o Options, onReady func()) error {
	tm, err := ResolveTimeouts()
	if err != nil {
		return err // a bad timeout spec fails the launch, like a bad -faults spec
	}
	// A signal during bootstrap waits in the buffer for the status loop.
	c := &coord{Options: o, tm: tm, onReady: onReady, quit: make(chan os.Signal, 1), ln: ln}
	signal.Notify(c.quit, syscall.SIGQUIT)
	defer signal.Stop(c.quit)
	if len(o.HostKeys) != 0 && len(o.HostKeys) != o.Ranks {
		return fmt.Errorf("rankio: %d host keys for %d ranks", len(o.HostKeys), o.Ranks)
	}
	err = c.spawn()
	for _, phase := range []func() error{c.rendezvous, c.barrier, c.status} {
		if err == nil {
			err = phase()
		}
	}
	if err != nil {
		// Redundant after a completed status phase (everyone has exited),
		// load-bearing after a bootstrap failure: don't leave orphans.
		KillAll(c.cmds)
		ReapAll(c.cmds)
	}
	for _, m := range c.joined {
		m.conn.Close()
	}
	return err
}

// spawn starts the ranks, or in host-list mode tells the operator how to.
func (c *coord) spawn() error {
	at := c.ln.Addr()
	coordEnv := EnvCoord + "=" + c.Backend + ":" + c.ln.Network() + ":"
	if len(c.Hosts) != 0 {
		// A wildcard bind address is not dialable from another machine;
		// tell the operator to substitute this host's address.
		dial := at
		if ap, err := netip.ParseAddrPort(at); err == nil && ap.Addr().IsUnspecified() {
			dial = fmt.Sprintf("<this-host>:%d", ap.Port())
		}
		Logf("rankio",
			"coordinator listening on %s; start %d workers across {%s} with\n"+
				"  %s%s [%s=<rank>] [%s=<host-key>] <program> ...",
			at, c.Ranks, strings.Join(c.Hosts, ", "), coordEnv, dial, EnvRank, EnvHost)
		return nil
	}
	argv := c.Relaunch
	if len(argv) == 0 {
		argv = os.Args
	}
	c.cmds = make([]*Cmd, c.Ranks)
	for r := range c.cmds {
		env := []string{coordEnv + at, EnvRank + "=" + strconv.Itoa(r)}
		cmd, err := Start(argv, env, r, c.TagOutput)
		if err != nil {
			return fmt.Errorf("rankio: spawn rank %d (%s): %w", r, argv[0], err)
		}
		c.cmds[r] = cmd
	}
	return nil
}

// missingRanks lists the rank slots still unclaimed if the join phase ended
// now: explicit claims hold their slots, and the workers that claimed none
// would fill the lowest free slots first, in join order.
func (c *coord) missingRanks() []int {
	var free []int
	for r, m := range c.members {
		if m == nil {
			free = append(free, r)
		}
	}
	for _, m := range c.joined {
		if m.join.rank < 0 && len(free) > 0 {
			free = free[1:]
		}
	}
	return free
}

// rendezvous collects one JOIN per rank, assigns the unclaimed slots in join
// order and answers every rank with the WORLD catalog.
func (c *coord) rendezvous() error {
	joinTO := BootTimeout
	if c.JoinTimeout > 0 {
		joinTO = c.JoinTimeout
	}
	deadline := time.Now().Add(joinTO)
	progress := time.Now().Add(joinProgressDot)
	c.members = make([]*member, c.Ranks)
	for len(c.joined) < c.Ranks {
		// Wake before the final deadline in host-list mode so the operator
		// sees who the world is waiting for while they bring hosts up.
		next := deadline
		if len(c.Hosts) != 0 && progress.Before(next) {
			next = progress
		}
		c.ln.SetDeadline(next)
		conn, err := c.ln.Accept()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) && time.Now().Before(deadline) {
				Logf("rankio", "still waiting for ranks %v (%d of %d joined)",
					c.missingRanks(), len(c.joined), c.Ranks)
				progress = time.Now().Add(joinProgressDot)
				continue
			}
			return &ErrJoinTimeout{Joined: len(c.joined), Ranks: c.Ranks, Timeout: joinTO, Missing: c.missingRanks()}
		}
		conn.SetDeadline(deadline)
		m := &member{conn: conn, rd: newLineReader(conn)}
		m.join, err = readLine(m.rd)
		j := m.join
		switch {
		case err != nil && (j.kind == lnJoin || errors.Is(err, ErrLineTooLong)):
			conn.Close()
			return fmt.Errorf("rankio: refused a worker's JOIN: %w", err)
		case err != nil || j.kind != lnJoin:
			// Not a worker: a liveness probe, a port scan, or a connection
			// dropped mid-handshake. Ignore it without consuming a rank slot
			// (the join deadline still bounds the wait).
			conn.Close()
			continue
		}
		c.joined = append(c.joined, m)
		switch {
		case j.backend != c.Backend:
			err = fmt.Errorf("%w: %s worker joined a %s world", ErrBackendMismatch, j.backend, c.Backend)
		case j.ranks != c.Ranks || j.rpn != c.RanksPerNode || j.pace != c.PaceWindowNs:
			err = fmt.Errorf("rankio: worker config (ranks %d, ppn %d, pace %d) does not match the coordinator's (ranks %d, ppn %d, pace %d); launcher and workers must run the same configuration",
				j.ranks, j.rpn, j.pace, c.Ranks, c.RanksPerNode, c.PaceWindowNs)
		case j.rank >= c.Ranks:
			err = fmt.Errorf("rankio: worker claims rank %d outside world of %d", j.rank, c.Ranks)
		case j.rank >= 0 && c.members[j.rank] != nil:
			err = fmt.Errorf("rankio: two workers claim rank %d", j.rank)
		}
		if err != nil {
			return err
		}
		if j.rank >= 0 {
			c.members[j.rank] = m
		}
		conn.SetDeadline(time.Time{})
	}
	// Assign join-order workers to the free slots, lowest rank first.
	next := 0
	for _, m := range c.joined {
		if m.join.rank < 0 {
			for c.members[next] != nil {
				next++
			}
			c.members[next] = m
		}
	}
	world := ctlLine{kind: lnWorld, addrs: make([]string, c.Ranks), hosts: make([]string, c.Ranks)}
	for r, m := range c.members {
		world.addrs[r], world.hosts[r] = m.join.addr, m.join.host
	}
	if len(c.HostKeys) != 0 {
		world.hosts = c.HostKeys
	}
	for r, m := range c.members {
		world.rank = r
		if _, err := m.conn.Write(formatLine(world)); err != nil {
			return fmt.Errorf("rankio: send world catalog to rank %d: %w", r, err)
		}
	}
	return nil
}

// barrier collects every rank's READY and releases them with GO. It gets a
// fresh deadline: the join phase may have consumed most of its own.
func (c *coord) barrier() error {
	deadline := time.Now().Add(BootTimeout)
	for r, m := range c.members {
		m.conn.SetReadDeadline(deadline)
		l, err := readLine(m.rd)
		if err != nil || l.kind != lnReady || l.rank != r {
			return fmt.Errorf("rankio: rank %d READY handshake failed: %v", r, err)
		}
		m.conn.SetReadDeadline(time.Time{})
	}
	if c.onReady != nil {
		c.onReady()
	}
	c.broadcast(ctlLine{kind: lnGo})
	return nil
}

// broadcast sends l to every rank, best effort: a rank that cannot take the
// line is found by its stream ending or its heartbeat going stale.
func (c *coord) broadcast(l ctlLine) {
	line := formatLine(l)
	for _, m := range c.members {
		m.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		m.conn.Write(line)
		m.conn.SetWriteDeadline(time.Time{})
	}
}

// event is one line of a rank's control conversation after GO, or its end
// (kind 0, with the process exit status in spawn mode), funneled to the
// single-threaded status loop.
type event struct {
	from int // the rank whose stream this is (not the rank a line claims)
	ctlLine
	end  error
	code int
}

// follow forwards rank r's lines to the status loop until the stream ends.
func (c *coord) follow(r int, events chan<- event) {
	m := c.members[r]
	for {
		l, err := readLine(m.rd)
		if err == nil {
			events <- event{from: r, ctlLine: l}
			continue
		}
		code := 0
		if c.cmds != nil {
			code = c.cmds[r].Wait()
		}
		events <- event{from: r, end: err, code: code}
		return
	}
}

// status collects DONE/FAIL/PONG/STATS lines and stream ends until every
// rank is accounted for. The first FAIL, early exit or stale heartbeat aborts
// the world: a RANKFAIL verdict naming the culprit (unless the first report
// is a peer-abort symptom) so every survivor's blocked primitive can unwind
// with *simnet.ErrPeerFailed, then ABORT, then — abortGrace later — a kill of
// whatever is left. This verdict is the only way a rank is declared failed.
// The stale check runs every heartbeat, so a rank that falls silent is judged
// at most stale + one heartbeat later, inside every survivor's SilenceBudget.
// Once every rank has reported DONE the coordinator broadcasts BYE: a
// finished rank keeps serving its memory until then.
// A STATS line is a rank's telemetry so far, and its counters only grow: the
// loop prints each one and keeps each rank's latest, and the world's
// aggregate merges those once, at the end, so a DUMP's snapshot is never
// counted beside the one the rank ships with its DONE/FAIL.
func (c *coord) status() error {
	// One slot per reader: a burst of DONEs does not queue behind the loop.
	events := make(chan event, c.Ranks)
	for r := range c.members {
		go c.follow(r, events)
	}
	latest := make([]telemetry.Snapshot, c.Ranks)
	done := make([]bool, c.Ranks)
	gone := make([]bool, c.Ranks)
	lastPong := make([]time.Time, c.Ranks)
	for r := range lastPong {
		lastPong[r] = time.Now()
	}
	doneCount, exited := 0, 0
	aborting, byeSent := false, false
	grace := time.NewTimer(24 * time.Hour)
	defer grace.Stop()
	var firstErr error
	firstCode, firstRank, firstSymptom := 0, -1, false
	// fail records one rank's failure and, the first time, aborts the world.
	fail := func(rank int, msg string, code int) {
		// A peer-abort report is a symptom; keep looking for the cause. Any
		// later report that is not a symptom displaces a symptom-only error,
		// and the culprit's own report, not the symptom, names it.
		symptom := strings.Contains(msg, PeerAbortMsg)
		if firstErr == nil || (firstSymptom && !symptom) {
			firstErr = fmt.Errorf("%s world: rank %d: %s", c.Backend, rank, msg)
			firstRank, firstSymptom = rank, symptom
		}
		if firstCode == 0 {
			firstCode = code
		}
		if aborting {
			return
		}
		aborting = true
		if !symptom {
			c.broadcast(ctlLine{kind: lnRankFail, rank: rank, text: msg})
		}
		c.broadcast(ctlLine{kind: lnAbort})
		grace.Reset(abortGrace)
	}
	heartbeat := time.NewTicker(c.tm.HeartbeatEvery)
	defer heartbeat.Stop()
	for exited < c.Ranks {
		select {
		case ev := <-events:
			switch ev.kind {
			case lnDone:
				if !done[ev.from] {
					done[ev.from] = true
					doneCount++
				}
				if doneCount == c.Ranks && !aborting && !byeSent {
					c.broadcast(ctlLine{kind: lnBye})
					byeSent = true
				}
			case lnPong:
				lastPong[ev.from] = time.Now()
			case lnStats:
				// A report ships its STATS line before its DONE/FAIL line:
				// stream order keeps the snapshot before the rank is
				// accounted finished.
				if snap, err := telemetry.ParseSnapshot([]byte(ev.text)); err == nil {
					latest[ev.from] = snap
					Logf("stats", "rank %d stats %s", ev.from, ev.text)
				}
			case lnFail:
				fail(ev.from, ev.text, 0)
			case 0:
				exited++
				gone[ev.from] = true
				if !done[ev.from] && firstErr == nil && !aborting {
					// Crashed without a FAIL line (e.g. killed): report the
					// exit and abort the survivors.
					msg := fmt.Sprintf("control channel closed before DONE: %v", ev.end)
					if ev.code != 0 {
						msg = fmt.Sprintf("exited with status %d before DONE", ev.code)
					}
					fail(ev.from, msg, ev.code)
				} else if firstCode == 0 {
					firstCode = ev.code
				}
			}
		case <-heartbeat.C:
			// Liveness probe: catches the silent deaths the control stream
			// cannot — a host that vanished without a FIN (power loss,
			// network partition), a process stopped or wedged but not dead.
			if aborting {
				break
			}
			c.broadcast(ctlLine{kind: lnPing})
			for r := range lastPong {
				if !done[r] && !gone[r] && time.Since(lastPong[r]) > c.tm.HeartbeatStale {
					msg := fmt.Sprintf("no heartbeat for %v (host dead or partitioned, process stopped?)", c.tm.HeartbeatStale)
					fail(r, msg, 0)
					break
				}
			}
		case <-c.quit:
			c.broadcast(ctlLine{kind: lnDump})
		case <-grace.C:
			// The grace period after an abort expired with ranks still
			// unaccounted for. Kill local processes and drop every control
			// connection — in host-list mode there is nothing to kill, and
			// closing the conns is what forces the readers to deliver their
			// final events so the loop can drain.
			KillAll(c.cmds)
			for _, m := range c.members {
				m.conn.Close()
			}
		}
	}
	// Failure paths publish too — a RANKFAIL post-mortem is exactly when the
	// merged flight-recorder tails matter most.
	agg := telemetry.Snapshot{Rank: -1}
	for _, snap := range latest {
		agg.Merge(snap)
	}
	telemetry.Publish(agg)
	if firstErr != nil {
		if firstCode == 0 {
			firstCode = 1
		}
		return &RankError{Err: firstErr, Code: firstCode, Rank: firstRank}
	}
	if !byeSent {
		c.broadcast(ctlLine{kind: lnBye})
	}
	return nil
}
