// Package netrun is the inter-node transport backend: each rank of an SPMD
// world is an OS process on (potentially) a different machine, and every
// remote-memory operation — put, get, atomics, notified access — travels as
// a length-prefixed message over TCP to a per-rank service loop that
// executes it against locally owned segments (simnet.RegionExec). It is the
// backend that removes the single-machine ceiling of internal/mprun: the
// same simnet.Transport contract, with the shared mmap replaced by a wire
// protocol (DESIGN.md §9).
//
// A world bootstraps through one coordinator socket. In loopback mode (the
// CI mode) the launcher spawns the worker processes itself, exactly like
// mprun; in host-list mode the launcher only listens, and the operator
// starts one worker per rank on each machine with FOMPI_NET_COORD pointing
// at it. Workers JOIN with their data-listener address, the coordinator
// broadcasts the rank/address catalog, and after a READY/GO barrier the
// ranks dial each other lazily as traffic demands.
//
// Everything virtual-time stays above the Transport line: the requester-side
// halves of each operation (cost-model charges, source-NIC serialization)
// run in simnet.Endpoint, the owner-side halves (byte movement, stamps,
// target-NIC booking) replay through simnet.RegionExec, and the conformance
// suite in internal/transporttest pins the results bit-identical to the
// in-process and multi-process backends.
package netrun

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fompi/internal/faultnet"
	"fompi/internal/rankio"
	"fompi/internal/segpool"
	"fompi/internal/simnet"
	"fompi/internal/telemetry"
)

const (
	envCoord = "FOMPI_NET_COORD"
	envRank  = "FOMPI_NET_RANK"
	envHost  = "FOMPI_NET_HOST"
	// EnvTimeouts overrides the failure-model timing knobs (see Timeouts);
	// worker processes inherit it, so one setting governs a whole world.
	EnvTimeouts = "FOMPI_NET_TIMEOUTS"

	// netWindow is the per-destination outstanding-request window depth of
	// the pipelined wire engine (DESIGN.md §12); the byte cap in session.go
	// binds first for bulk frames.
	netWindow = 64

	bootTimeout = 60 * time.Second
	// abortGrace bounds the time between the abort broadcast and the
	// coordinator force-dropping unaccounted ranks; together with the
	// requester-side deadlines it is what makes "a dead rank surfaces as a
	// typed error within ten seconds" a testable promise.
	abortGrace = 8 * time.Second
	// byeTimeout is a failsafe only: a finished rank must keep serving its
	// memory until every rank is done (coordinator death is caught by the
	// control-stream watcher), so this bounds nothing but a wedged-alive
	// coordinator and is deliberately generous.
	byeTimeout = 10 * time.Minute

	// opTimeout is the per-request deadline on every data-plane wire call:
	// a peer that neither answers nor resets within it is treated as dead.
	opTimeout = 15 * time.Second
	// Idempotent control requests (opRegQuery, opClock, opDoorGen,
	// opDoorWait re-arm) retry up to idemAttempts times across fresh
	// connections, backing off from idemBackoff.
	idemAttempts = 4
	idemBackoff  = 25 * time.Millisecond
	// Peer dials retry inside peerErr (the listener may not be reachable
	// for a moment on a congested fabric, and faultnet injects exactly
	// that); dialAttempts bounds them.
	dialAttempts = 5
	dialBackoff  = 50 * time.Millisecond

	// The coordinator PINGs every heartbeatEvery once the world is running;
	// a rank whose PONG is older than heartbeatStale is declared dead. The
	// worker mirrors the check: a control stream idle past ctlIdleTimeout
	// means the coordinator (or its host) vanished without a FIN.
	heartbeatEvery  = 2 * time.Second
	heartbeatStale  = 10 * time.Second
	ctlIdleTimeout  = 30 * time.Second
	joinProgressDot = 5 * time.Second
)

// Options describes an inter-node world. Launcher and workers must agree on
// the world-shape fields (the JOIN handshake validates them).
type Options struct {
	Ranks        int
	RanksPerNode int
	PaceWindowNs int64
	// Listen is the coordinator's listen address. Empty means loopback
	// spawn mode: listen on 127.0.0.1:0 and re-execute the worker argv once
	// per rank locally.
	Listen string
	// Hosts, when non-empty, selects host-list mode: the coordinator does
	// not spawn anything and instead waits for Ranks workers — started on
	// the listed machines with FOMPI_NET_COORD set — to join. The list is
	// advisory placement documentation (rank assignment follows explicit
	// FOMPI_NET_RANK values, then join order); it mainly sizes the
	// operator's expectations and the launch banner.
	Hosts []string
	// Relaunch is the worker argv for loopback spawn mode; nil re-executes
	// os.Args.
	Relaunch []string
	// TagOutput prefixes each spawned rank's stdout/stderr with "[rank N]"
	// (loopback spawn mode only; remote workers own their streams).
	TagOutput bool

	// HostKey names the physical host of this worker for topology-aware
	// backends (the hybrid backend groups ranks whose keys match into one
	// shared-memory arena). Empty falls back to $FOMPI_NET_HOST, then
	// os.Hostname(). Spaces and commas are rewritten on join (the key rides
	// space-separated control lines and a comma-joined catalog).
	HostKey string
	// HostKeys, in loopback spawn mode, assigns rank r the host key
	// HostKeys[r] through the spawn environment; the hybrid backend's
	// loopback mode uses it to emulate a multi-host placement on one
	// machine. Empty leaves the workers to their own defaults (one shared
	// hostname). Must be empty or exactly Ranks long.
	HostKeys []string
	// ExtraEnv is appended to each spawned worker's environment (loopback
	// spawn mode; the hybrid backend uses it to mark its workers).
	ExtraEnv []string

	// JoinTimeout bounds the rendezvous: how long the coordinator waits for
	// all Ranks workers to JOIN before giving up with an *ErrJoinTimeout
	// naming the absent ranks. Zero means bootTimeout (60 s). In host-list
	// mode the coordinator also prints a "still waiting for ranks […]"
	// progress line every few seconds while short of quorum.
	JoinTimeout time.Duration

	// Timeouts overrides the failure-model timing knobs; zero fields fall
	// back to the EnvTimeouts environment spec, then to the defaults.
	// Launch re-exports the resolved values through EnvTimeouts so spawned
	// workers agree with the coordinator.
	Timeouts Timeouts
}

// Timeouts are the failure-model timing knobs (DESIGN.md §11), configurable
// per world so chaos tests and latency-sensitive deployments need not wait
// out the conservative defaults. The environment spec (EnvTimeouts,
// `fompi-run -net-timeouts`) is a comma-separated key=value list of Go
// durations:
//
//	heartbeat=500ms   coordinator PING cadence after GO
//	stale=3s          missing-PONG budget before a rank is declared dead
//	optimeout=2s      per-request data-plane budget (also the whole
//	                  reconnect-and-resume budget of one op)
//	ctlidle=6s        worker-side idle-control-stream cutoff (a vanished
//	                  coordinator)
//
// Zero fields keep the defaults (2s / 10s / 15s / 30s). Malformed or
// inconsistent specs fail the launch, like a bad -faults spec.
type Timeouts struct {
	HeartbeatEvery time.Duration // heartbeat=
	HeartbeatStale time.Duration // stale=
	OpTimeout      time.Duration // optimeout=
	CtlIdleTimeout time.Duration // ctlidle=
}

// ParseTimeouts parses an EnvTimeouts spec; an empty spec is a valid
// all-defaults Timeouts.
func ParseTimeouts(spec string) (Timeouts, error) {
	var t Timeouts
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return t, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return t, fmt.Errorf("netrun: timeout spec %q is not key=value", kv)
		}
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return t, fmt.Errorf("netrun: bad timeout %s=%q (want a positive duration)", k, v)
		}
		switch k {
		case "heartbeat":
			t.HeartbeatEvery = d
		case "stale":
			t.HeartbeatStale = d
		case "optimeout":
			t.OpTimeout = d
		case "ctlidle":
			t.CtlIdleTimeout = d
		default:
			return t, fmt.Errorf("netrun: unknown timeout key %q (want heartbeat, stale, optimeout, ctlidle)", k)
		}
	}
	return t, nil
}

// spec renders t as a ParseTimeouts round-trippable string (all fields must
// be resolved).
func (t Timeouts) spec() string {
	return fmt.Sprintf("heartbeat=%s,stale=%s,optimeout=%s,ctlidle=%s",
		t.HeartbeatEvery, t.HeartbeatStale, t.OpTimeout, t.CtlIdleTimeout)
}

// resolveTimeouts layers defaults ← environment ← Options and validates the
// result; both the coordinator and every worker resolve the same way, so a
// spec exported through the environment keeps the world in agreement.
func resolveTimeouts(o Timeouts) (Timeouts, error) {
	t, err := ParseTimeouts(os.Getenv(EnvTimeouts))
	if err != nil {
		return t, err
	}
	if o.HeartbeatEvery > 0 {
		t.HeartbeatEvery = o.HeartbeatEvery
	}
	if o.HeartbeatStale > 0 {
		t.HeartbeatStale = o.HeartbeatStale
	}
	if o.OpTimeout > 0 {
		t.OpTimeout = o.OpTimeout
	}
	if o.CtlIdleTimeout > 0 {
		t.CtlIdleTimeout = o.CtlIdleTimeout
	}
	if t.HeartbeatEvery <= 0 {
		t.HeartbeatEvery = heartbeatEvery
	}
	if t.HeartbeatStale <= 0 {
		t.HeartbeatStale = heartbeatStale
	}
	if t.OpTimeout <= 0 {
		t.OpTimeout = opTimeout
	}
	if t.CtlIdleTimeout <= 0 {
		t.CtlIdleTimeout = ctlIdleTimeout
	}
	if t.HeartbeatStale <= t.HeartbeatEvery {
		return t, fmt.Errorf("netrun: stale budget %v must exceed the heartbeat cadence %v", t.HeartbeatStale, t.HeartbeatEvery)
	}
	if t.CtlIdleTimeout <= t.HeartbeatEvery {
		return t, fmt.Errorf("netrun: ctl idle cutoff %v must exceed the heartbeat cadence %v (PINGs are what keep the stream busy)", t.CtlIdleTimeout, t.HeartbeatEvery)
	}
	return t, nil
}

func (o Options) withDefaults() Options {
	if o.Ranks <= 0 {
		o.Ranks = 1
	}
	if o.RanksPerNode <= 0 {
		o.RanksPerNode = 1
	}
	return o
}

// IsWorker reports whether this process was launched as a worker rank of an
// inter-node world (the coordinator environment is present).
func IsWorker() bool { return os.Getenv(envCoord) != "" }

// World is one process's attachment to an inter-node world; in a worker it
// implements simnet.Transport for that worker's rank.
type World struct {
	opts Options
	rank int // -1 in the launcher

	ctl   net.Conn // stream to the coordinator (workers only)
	ctlRd *bufio.Reader
	ctlWr sync.Mutex // serializes status lines against the abort sender

	ln    net.Listener // this rank's data listener
	addrs []string     // rank -> data address
	hosts []string     // rank -> host key (from the WORLD catalog)

	// peers are this rank's requester connections, dialed lazily; guarded
	// by peerMu only against the abort path's close-all (requests
	// themselves are confined to the rank's goroutine).
	peerMu sync.Mutex
	peers  []*peerConn

	// mine is this rank's region directory (index = key; slots are nilled
	// on unregister, never reused). proxies caches materialized remote
	// views per (rank, key); it is touched only by the rank's goroutine.
	mineMu  sync.RWMutex
	mine    []*simnet.Region
	proxies [][]*simnet.Region

	// Owner-side virtual-hardware state served to peers: this rank's port
	// (doorbell generation, NIC busy interval) and the door its waiters park
	// at — the rank itself and the service handlers holding peers' DOORWAITs,
	// all under the rank's own slot. Both are this process's own until a
	// layered backend substitutes the ones its co-located ranks share
	// (SetDoor). park is where this process's goroutines sleep, in a doorbell
	// wait or pace-blocked.
	ownPort  simnet.Port
	port     *simnet.Port
	door     *simnet.Door
	doorSelf int // this rank's index in door
	park     *simnet.Parker

	// pacer is nil in an unpaced world. Its table is this process's own: the
	// rank's entry is its published clock, a peer's the last one heard — on
	// every request's piggyback, or fetched by refreshClock.
	pacer *simnet.Pacer

	// Session layer (session.go): this process's session identity, the
	// requester half of each per-owner session, and the owner-side session
	// table serving resumes from every peer.
	sid      uint64
	rsess    []reqSession
	sessMu   sync.Mutex
	sessions map[uint64]*ownerSession

	// Inbound service tracking: every accepted data-plane connection and
	// its serveConn goroutine, so Finish/Fail can stop the service and
	// guarantee no remote op touches local memory afterwards.
	svcMu     sync.Mutex
	svcConns  map[net.Conn]struct{}
	svcClosed bool
	svcWg     sync.WaitGroup

	// tm holds the resolved failure-model timing knobs (Timeouts).
	tm Timeouts

	aborted atomic.Bool
	// failedRank is the rank the RANKFAIL verdict (or first-hand transport
	// evidence) blamed for the abort; -1 while the world is healthy or the
	// abort has no known culprit. It upgrades the abort panic from the bare
	// ErrAborted to *simnet.ErrPeerFailed.
	failedRank atomic.Int32
	done       chan struct{}
	bye        chan struct{}
	finished   atomic.Bool
	abortOnce  sync.Once
	hookMu     sync.Mutex
	hooks      []func()
}

// noteFailedRank records the first rank blamed for the world's death.
func (w *World) noteFailedRank(r int) {
	w.failedRank.CompareAndSwap(-1, int32(r))
}

// FailedRank returns the rank blamed for the world's death, or -1 while the
// world is healthy or the abort has no known culprit. Layered transports
// (hybridrun) read it from their abort hooks to propagate the verdict into
// their own wait paths.
func (w *World) FailedRank() int { return int(w.failedRank.Load()) }

// abortErr is nil while the world stands, and after an abort the value
// blocked primitives unwind with (the parking hook's Aborted):
// *simnet.ErrPeerFailed when a RANKFAIL verdict (or local evidence) named
// the dead rank, the bare simnet.ErrAborted otherwise. Both satisfy
// errors.Is(err, simnet.ErrAborted).
func (w *World) abortErr() error {
	if !w.Aborted() {
		return nil
	}
	if r := w.failedRank.Load(); r >= 0 {
		return &simnet.ErrPeerFailed{Rank: int(r)}
	}
	return simnet.ErrAborted
}

// ErrJoinTimeout reports a rendezvous that ran out its join timeout with
// ranks still absent. Missing lists the rank slots no worker claimed,
// under the same assignment rule a completed join would have used
// (explicit FOMPI_NET_RANK claims first, join-order workers filling the
// lowest free slots).
type ErrJoinTimeout struct {
	Joined  int
	Ranks   int
	Timeout time.Duration
	Missing []int
}

func (e *ErrJoinTimeout) Error() string {
	return fmt.Sprintf("netrun: rendezvous timed out after %v with %d of %d ranks joined; missing ranks %v",
		e.Timeout, e.Joined, e.Ranks, e.Missing)
}

// SetDoor substitutes an external port and door for this rank's own, self
// being the rank's index in door. The hybrid backend installs its arena's, so
// that an off-host peer's operation, ring or wait, arriving over the wire,
// lands on the same shared-memory port the co-located ranks take directly —
// one port per rank, wherever the issuer or the waiter lives. Call before
// Ready, so no peer traffic races the handoff.
func (w *World) SetDoor(port *simnet.Port, door *simnet.Door, self int) {
	w.port, w.door, w.doorSelf = port, door, self
}

// ringDoor rings this rank's doorbell on behalf of a wire requester.
func (w *World) ringDoor() {
	w.port.Ring()
	w.door.Wake(w.doorSelf)
}

// Launch creates an inter-node world. In loopback spawn mode it re-executes
// the worker argv once per rank on this machine and blocks until every
// worker exits; in host-list mode (Options.Hosts) it waits for the workers
// the operator starts remotely. It returns nil only if every rank finished
// cleanly; the first failure is reported as a *rankio.RankError carrying the
// first non-zero worker exit code observed.
func Launch(o Options) error {
	o = o.withDefaults()
	if len(o.HostKeys) != 0 && len(o.HostKeys) != o.Ranks {
		return fmt.Errorf("netrun: %d host keys for %d ranks", len(o.HostKeys), o.Ranks)
	}
	spawn := len(o.Hosts) == 0
	listen := o.Listen
	if listen == "" {
		if !spawn {
			listen = ":7077"
		} else {
			listen = "127.0.0.1:0"
		}
	}
	if err := faultnet.Check(); err != nil {
		return fmt.Errorf("netrun: %w", err)
	}
	tm, err := resolveTimeouts(o.Timeouts)
	if err != nil {
		return err // a bad timeout spec fails the launch, like a bad -faults spec
	}
	// Re-export the resolved knobs so spawned workers (which re-resolve from
	// the environment) agree with the coordinator — the same pattern -faults
	// uses for its spec.
	os.Setenv(EnvTimeouts, tm.spec())
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("netrun: listen coordinator socket %s: %w", listen, err)
	}
	defer ln.Close()
	ln = faultnet.WrapListener(ln)
	coordAddr := ln.Addr().String()

	var cmds []*rankio.Cmd
	if spawn {
		argv := o.Relaunch
		if len(argv) == 0 {
			argv = os.Args
		}
		cmds = make([]*rankio.Cmd, o.Ranks)
		for r := 0; r < o.Ranks; r++ {
			env := []string{
				envCoord + "=" + coordAddr,
				fmt.Sprintf("%s=%d", envRank, r),
			}
			if len(o.HostKeys) > 0 {
				env = append(env, envHost+"="+o.HostKeys[r])
			}
			env = append(env, o.ExtraEnv...)
			c, err := rankio.Start(argv, env, r, o.TagOutput)
			if err != nil {
				rankio.KillAll(cmds[:r])
				return fmt.Errorf("netrun: spawn rank %d (%s): %w", r, argv[0], err)
			}
			cmds[r] = c
		}
	} else {
		// A wildcard bind address is not dialable from another machine;
		// tell the operator to substitute this host's name.
		dial := coordAddr
		if host, port, err := net.SplitHostPort(coordAddr); err == nil {
			if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
				dial = net.JoinHostPort("<this-host>", port)
			}
		}
		rankio.Logf("netrun",
			"coordinator listening on %s; start %d workers across {%s} with\n"+
				"  %s=%s [%s=<rank>] [%s=<host-key>] <program> ...",
			coordAddr, o.Ranks, strings.Join(o.Hosts, ", "), envCoord, dial, envRank, envHost)
	}

	err = coordinate(ln, o, tm, cmds)
	if err != nil {
		// Redundant after a completed status phase (everyone has exited),
		// load-bearing after a bootstrap failure: don't leave orphans.
		rankio.KillAll(cmds)
		rankio.ReapAll(cmds)
	}
	return err
}

// worker is the coordinator's view of one joined rank.
type worker struct {
	conn net.Conn
	rd   *bufio.Reader
	rank int
	addr string
	host string // host key from JOIN
}

// wkEvent is one line (or stream end) of a worker's control conversation
// after GO, funneled to coordinate's single-threaded status loop.
type wkEvent struct {
	rank int
	kind uint8  // 'D'one, 'F'ail, 'A'bort request, 'X' stream ended
	msg  string // FAIL message
	code int    // process exit status ('X' in spawn mode)
}

// missingRanks lists the rank slots still unclaimed if the join phase ended
// now: explicit claims hold their slots, and the unassigned (join-order)
// workers would fill the lowest free slots first.
func missingRanks(workers []*worker, unassigned int) []int {
	var free []int
	for r, w := range workers {
		if w == nil {
			free = append(free, r)
		}
	}
	if unassigned >= len(free) {
		return nil
	}
	return free[unassigned:]
}

// coordinate runs the rendezvous, barrier, and status collection of one
// world from the coordinator side.
func coordinate(ln net.Listener, o Options, tm Timeouts, cmds []*rankio.Cmd) error {
	joinTO := bootTimeout
	if o.JoinTimeout > 0 {
		joinTO = o.JoinTimeout
	}
	deadline := time.Now().Add(joinTO)
	progress := time.Now().Add(joinProgressDot)
	workers := make([]*worker, o.Ranks)
	var unassigned []*worker

	// Phase 1 — JOIN: collect one connection per rank and its data address.
	for i := 0; i < o.Ranks; i++ {
		// Wake before the final deadline in host-list mode so the operator
		// sees who the world is waiting for while they bring hosts up.
		next := deadline
		if len(o.Hosts) > 0 && progress.Before(next) {
			next = progress
		}
		if tl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
			tl.SetDeadline(next)
		}
		c, err := ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && time.Now().Before(deadline) {
				rankio.Logf("netrun", "still waiting for ranks %v (%d of %d joined)",
					missingRanks(workers, len(unassigned)), i, o.Ranks)
				progress = time.Now().Add(joinProgressDot)
				i--
				continue
			}
			return &ErrJoinTimeout{Joined: i, Ranks: o.Ranks, Timeout: joinTO,
				Missing: missingRanks(workers, len(unassigned))}
		}
		c.SetDeadline(deadline)
		w := &worker{conn: c, rd: bufio.NewReader(c)}
		line, err := w.rd.ReadString('\n')
		if err != nil {
			// Not a worker: a liveness probe, a port scan, or a connection
			// dropped mid-handshake. Ignore it without consuming a rank slot
			// (the join deadline still bounds the wait).
			c.Close()
			i--
			continue
		}
		var rank, ranks, rpn, proto int
		var pace int64
		// The host key is the 7th field (protocol v2); a v1 worker's JOIN
		// parses six fields, so version skew reaches the protoVersion check
		// below instead of being dropped as a malformed probe.
		n, err := fmt.Sscanf(line, "JOIN %d %s %d %d %d %d %s", &rank, &w.addr, &ranks, &rpn, &pace, &proto, &w.host)
		if err != nil && n < 6 {
			c.Close()
			i--
			continue
		}
		switch {
		case proto != protoVersion:
			return fmt.Errorf("netrun: worker speaks wire protocol %d, coordinator %d (mixed binaries?)", proto, protoVersion)
		case ranks != o.Ranks || rpn != o.RanksPerNode || pace != o.PaceWindowNs:
			return fmt.Errorf("netrun: worker config (ranks %d, ppn %d, pace %d) does not match the coordinator's (ranks %d, ppn %d, pace %d); launcher and workers must run the same configuration",
				ranks, rpn, pace, o.Ranks, o.RanksPerNode, o.PaceWindowNs)
		case rank >= o.Ranks:
			return fmt.Errorf("netrun: worker claims rank %d outside world of %d", rank, o.Ranks)
		}
		w.rank = rank
		if rank >= 0 {
			if workers[rank] != nil {
				return fmt.Errorf("netrun: two workers claim rank %d", rank)
			}
			workers[rank] = w
		} else {
			unassigned = append(unassigned, w)
		}
		w.conn.SetDeadline(time.Time{})
	}
	// Assign join-order workers to the free slots, lowest rank first.
	next := 0
	for _, w := range unassigned {
		for workers[next] != nil {
			next++
		}
		w.rank = next
		workers[next] = w
	}
	addrs := make([]string, o.Ranks)
	hosts := make([]string, o.Ranks)
	for r, w := range workers {
		addrs[r] = w.addr
		hosts[r] = w.host
	}

	// Phase 2 — WORLD broadcast, then the READY/GO barrier. The barrier gets
	// a fresh deadline: the join phase may have consumed most of its own.
	deadline = time.Now().Add(bootTimeout)
	catalog := strings.Join(addrs, ",")
	hostCatalog := strings.Join(hosts, ",")
	for r, w := range workers {
		if _, err := fmt.Fprintf(w.conn, "WORLD %d %s %s\n", r, catalog, hostCatalog); err != nil {
			return fmt.Errorf("netrun: send world catalog to rank %d: %w", r, err)
		}
	}
	for r, w := range workers {
		w.conn.SetReadDeadline(deadline)
		var rr int
		if _, err := fmt.Fscanf(w.rd, "READY %d\n", &rr); err != nil || rr != r {
			return fmt.Errorf("netrun: rank %d READY handshake failed: %v", r, err)
		}
		w.conn.SetReadDeadline(time.Time{})
	}
	for _, w := range workers {
		if _, err := w.conn.Write([]byte("GO\n")); err != nil {
			return fmt.Errorf("netrun: release workers: %w", err)
		}
	}

	// Phase 3 — status collection. The first FAIL/ABORT/early-exit
	// broadcasts ABORT to every rank; once every rank has reported DONE the
	// coordinator broadcasts BYE — a finished rank keeps serving its memory
	// until then, matching the shared-segment lifetime of the mmap backend.
	events := make(chan wkEvent, 8*o.Ranks)
	for r := range workers {
		go func(r int, w *worker) {
			for {
				line, err := w.rd.ReadString('\n')
				line = strings.TrimSpace(line)
				switch {
				case strings.HasPrefix(line, "DONE "):
					events <- wkEvent{rank: r, kind: 'D'}
					continue
				case strings.HasPrefix(line, "FAIL "):
					msg := strings.TrimSpace(strings.TrimPrefix(line, fmt.Sprintf("FAIL %d", r)))
					events <- wkEvent{rank: r, kind: 'F', msg: msg}
					continue
				case strings.HasPrefix(line, "ABORT "):
					events <- wkEvent{rank: r, kind: 'A'}
					continue
				case strings.HasPrefix(line, "PONG "):
					events <- wkEvent{rank: r, kind: 'P'}
					continue
				case strings.HasPrefix(line, "STATS "):
					// One telemetry snapshot, shipped before the worker's
					// DONE/FAIL line — stream order guarantees the status
					// loop merges it before accounting the rank finished.
					events <- wkEvent{rank: r, kind: 'S', msg: strings.TrimPrefix(line, "STATS ")}
					continue
				}
				code := 0
				if cmds != nil {
					code = cmds[r].Wait()
				}
				events <- wkEvent{rank: r, kind: 'X', code: code, msg: fmt.Sprint(err)}
				return
			}
		}(r, workers[r])
	}

	broadcast := func(line string) {
		for _, w := range workers {
			w.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			w.conn.Write([]byte(line))
			w.conn.SetWriteDeadline(time.Time{})
		}
	}
	var firstErr error
	firstCode, firstRank := 0, -1
	fail := func(rank int, msg string, code int) {
		err := rankio.ClassifyFail(fmt.Errorf("netrun: rank %d: %s", rank, msg), msg)
		// A peer-abort report is a symptom; keep looking for the cause. Any
		// later report that is not a symptom displaces a symptom-only error.
		if firstErr == nil || (errors.Is(firstErr, rankio.ErrPeerAbort) && !errors.Is(err, rankio.ErrPeerAbort)) {
			firstErr = err
			firstRank = rank
		}
		if firstCode == 0 && code != 0 {
			firstCode = code
		}
	}
	statsAgg := telemetry.Snapshot{Rank: -1}
	doneSet := make([]bool, o.Ranks)
	exitedSet := make([]bool, o.Ranks)
	lastPong := make([]time.Time, o.Ranks)
	now := time.Now()
	for r := range lastPong {
		lastPong[r] = now
	}
	doneCount, exited := 0, 0
	aborting, byeSent := false, false
	// abort tears the world down exactly once: a RANKFAIL verdict naming the
	// culprit (when one is known) so every survivor's blocked primitive can
	// unwind with *simnet.ErrPeerFailed, then the ABORT broadcast itself.
	grace := time.NewTimer(24 * time.Hour)
	defer grace.Stop()
	abort := func(culprit int, msg string) {
		if aborting {
			return
		}
		if culprit >= 0 {
			broadcast(fmt.Sprintf("RANKFAIL %d %s\n", culprit, msg))
		}
		broadcast("ABORT\n")
		aborting = true
		grace.Reset(abortGrace)
	}
	heartbeat := time.NewTicker(tm.HeartbeatEvery)
	defer heartbeat.Stop()
	for exited < o.Ranks {
		select {
		case ev := <-events:
			switch ev.kind {
			case 'D':
				if !doneSet[ev.rank] {
					doneSet[ev.rank] = true
					doneCount++
				}
				if doneCount == o.Ranks && !aborting && !byeSent {
					broadcast("BYE\n")
					byeSent = true
				}
			case 'P':
				lastPong[ev.rank] = time.Now()
			case 'S':
				if snap, err := telemetry.ParseSnapshot([]byte(ev.msg)); err == nil {
					statsAgg.Merge(snap)
				}
			case 'F':
				fail(ev.rank, ev.msg, 0)
				if strings.Contains(ev.msg, rankio.PeerAbortMsg) {
					abort(-1, "") // symptom: the culprit's own report names it
				} else {
					abort(ev.rank, ev.msg)
				}
			case 'A':
				if firstErr == nil {
					fail(ev.rank, "aborted the world", 0)
				}
				abort(-1, "")
			case 'X':
				exited++
				exitedSet[ev.rank] = true
				if !doneSet[ev.rank] && ev.msg != "" && firstErr == nil && !aborting {
					// Crashed without a FAIL line (e.g. killed): report the
					// exit and abort the survivors.
					msg := fmt.Sprintf("control channel closed before DONE: %s", ev.msg)
					if ev.code != 0 {
						msg = fmt.Sprintf("exited with status %d before DONE", ev.code)
					}
					fail(ev.rank, msg, ev.code)
					abort(ev.rank, msg)
				} else if ev.code != 0 && firstCode == 0 {
					firstCode = ev.code
				}
			}
		case <-heartbeat.C:
			// Liveness probe: catches the silent deaths the control stream
			// cannot — a host that vanished without a FIN (power loss,
			// network partition) leaves its TCP conn apparently healthy.
			if !aborting {
				broadcast("PING\n")
				for r := range lastPong {
					if !doneSet[r] && !exitedSet[r] && time.Since(lastPong[r]) > tm.HeartbeatStale {
						msg := fmt.Sprintf("no heartbeat for %v (host dead or partitioned?)", tm.HeartbeatStale)
						fail(r, msg, 0)
						abort(r, msg)
						break
					}
				}
			}
		case <-grace.C:
			// The grace period after an abort expired with ranks still
			// unaccounted for. Kill local processes and drop every control
			// connection — in host-list mode there is nothing to kill, and
			// closing the conns is what forces the per-worker readers to
			// deliver their final events so the loop can drain.
			rankio.KillAll(cmds)
			for _, w := range workers {
				w.conn.Close()
			}
		}
	}
	publishStats(statsAgg)
	if firstErr != nil {
		if firstCode == 0 {
			firstCode = 1
		}
		return &rankio.RankError{Err: firstErr, Code: firstCode, Rank: firstRank}
	}
	if !byeSent {
		broadcast("BYE\n")
	}
	return nil
}

// Join attaches a worker process to its world: it dials the coordinator,
// starts this rank's data service, runs the JOIN/WORLD handshake, and
// returns the Transport for the assigned rank. The caller registers its
// setup regions and then calls Ready to enter the bootstrap barrier.
func Join(o Options) (*World, error) {
	o = o.withDefaults()
	coord := os.Getenv(envCoord)
	if coord == "" {
		return nil, fmt.Errorf("netrun: not a worker process (%s unset)", envCoord)
	}
	rank := -1
	if s := os.Getenv(envRank); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &rank); err != nil || rank < 0 || rank >= o.Ranks {
			return nil, fmt.Errorf("netrun: bad %s=%q for world of %d ranks", envRank, s, o.Ranks)
		}
	}
	if err := faultnet.Check(); err != nil {
		return nil, fmt.Errorf("netrun: %w", err)
	}
	tm, err := resolveTimeouts(o.Timeouts)
	if err != nil {
		return nil, err
	}
	// The coordinator may come up after the workers in host-list mode, and
	// faultnet injects refused dials; retry with backoff inside the boot
	// window rather than failing the whole rank on the first RST.
	var ctl net.Conn
	for d, until := dialBackoff, time.Now().Add(bootTimeout); ; d *= 2 {
		ctl, err = faultnet.Dial("tcp", coord, bootTimeout)
		if err == nil {
			break
		}
		if time.Now().Add(d).After(until) {
			return nil, fmt.Errorf("netrun: dial coordinator %s: %w", coord, err)
		}
		time.Sleep(d)
	}
	// Listen for peers on the interface that reaches the coordinator: the
	// address peers can reach this process at, on loopback and multi-machine
	// deployments alike.
	ip := ctl.LocalAddr().(*net.TCPAddr).IP
	ln, err := net.Listen("tcp", net.JoinHostPort(ip.String(), "0"))
	if err != nil {
		ctl.Close()
		return nil, fmt.Errorf("netrun: listen data socket: %w", err)
	}
	// The data listener is data-plane: faultnet's plane=data scoping targets
	// it (and the requester conns dialed to it) while sparing the control
	// streams the failure detector rides on.
	ln = faultnet.WrapListenerData(ln)

	w := &World{
		opts: o, rank: rank, ctl: ctl, ctlRd: bufio.NewReader(ctl), ln: ln,
		peers:    make([]*peerConn, o.Ranks),
		proxies:  make([][]*simnet.Region, o.Ranks),
		rsess:    make([]reqSession, o.Ranks),
		sessions: make(map[uint64]*ownerSession),
		svcConns: make(map[net.Conn]struct{}),
		tm:       tm,
		done:     make(chan struct{}),
		bye:      make(chan struct{}),
	}
	w.failedRank.Store(-1)
	w.park = simnet.NewParker(o.Ranks, nil)
	hook := w.park.Hook(w.abortErr)
	w.port, w.door = &w.ownPort, simnet.NewDoor(o.Ranks, nil, hook)
	if o.PaceWindowNs != 0 {
		// The one rank that parks on this table is poked by the service
		// goroutine whose piggybacked clock released it.
		hook.Refresh = w.refreshClock
		w.pacer = simnet.NewPacer(o.PaceWindowNs, o.Ranks, nil, hook)
	}
	go w.acceptLoop()

	if _, err := fmt.Fprintf(ctl, "JOIN %d %s %d %d %d %d %s\n",
		rank, ln.Addr().String(), o.Ranks, o.RanksPerNode, o.PaceWindowNs, protoVersion,
		hostKeyOf(o)); err != nil {
		w.teardown()
		return nil, fmt.Errorf("netrun: send JOIN: %w", err)
	}
	// The catalog arrives only once every rank has joined, so this wait is
	// bounded by the coordinator's join timeout, not the boot timeout.
	worldTO := bootTimeout
	if o.JoinTimeout > bootTimeout {
		worldTO = o.JoinTimeout + 10*time.Second
	}
	ctl.SetReadDeadline(time.Now().Add(worldTO))
	var catalog, hostCatalog string
	if _, err := fmt.Fscanf(w.ctlRd, "WORLD %d %s %s\n", &w.rank, &catalog, &hostCatalog); err != nil {
		w.teardown()
		return nil, fmt.Errorf("netrun: world catalog handshake: %w", err)
	}
	ctl.SetReadDeadline(time.Time{})
	w.addrs = strings.Split(catalog, ",")
	w.hosts = strings.Split(hostCatalog, ",")
	if len(w.addrs) != o.Ranks || len(w.hosts) != o.Ranks || w.rank < 0 || w.rank >= o.Ranks {
		w.teardown()
		return nil, fmt.Errorf("netrun: malformed world catalog (%d addrs, %d hosts, rank %d)", len(w.addrs), len(w.hosts), w.rank)
	}
	// The session identity is minted, and the rank's row of its door known,
	// once the WORLD reply has fixed the rank (host-list workers may join
	// rankless and be assigned one here).
	w.sid, w.doorSelf = sidFor(w.rank, os.Getpid()), w.rank
	return w, nil
}

// hostKeyOf resolves this worker's host key: Options, then the environment
// (set per rank by the spawn path or the operator), then the hostname. The
// key rides space-separated control lines and the comma-joined WORLD
// catalog, so those separators are rewritten.
func hostKeyOf(o Options) string {
	h := o.HostKey
	if h == "" {
		h = os.Getenv(envHost)
	}
	if h == "" {
		h, _ = os.Hostname()
	}
	h = strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', ',', '\n', '\r':
			return '-'
		}
		return r
	}, h)
	if h == "" {
		h = "host0"
	}
	return h
}

// Hosts returns the rank -> host-key catalog from the rendezvous: ranks with
// equal keys run on one physical host. Callers must not modify it.
func (w *World) Hosts() []string { return w.hosts }

// Addrs returns the rank -> data-address catalog from the rendezvous. The
// ports are ephemeral, so the joined catalog is world-unique — the hybrid
// backend keys its per-host arena files on it. Callers must not modify it.
func (w *World) Addrs() []string { return w.addrs }

// teardown closes a partially joined world's sockets.
func (w *World) teardown() {
	w.ln.Close()
	w.ctl.Close()
}

// Rank returns this process's rank (-1 in the launcher).
func (w *World) Rank() int { return w.rank }

// Ready enters the bootstrap barrier: it tells the coordinator this rank's
// setup registrations are addressable and blocks until every rank's are,
// then starts watching the control stream for aborts.
func (w *World) Ready() {
	if _, err := fmt.Fprintf(w.ctl, "READY %d\n", w.rank); err != nil {
		panic(fmt.Sprintf("netrun: report READY: %v", err))
	}
	w.ctl.SetReadDeadline(time.Now().Add(bootTimeout))
	line, err := w.ctlRd.ReadString('\n')
	w.ctl.SetReadDeadline(time.Time{})
	if err != nil || strings.TrimSpace(line) != "GO" {
		panic(fmt.Sprintf("netrun: bootstrap barrier failed (%q, %v)", line, err))
	}
	go w.watchCtl()
}

// watchCtl surfaces coordinator-pushed events after GO: PING answers the
// liveness probe, RANKFAIL records which rank the verdict blamed (so blocked
// primitives unwind with *simnet.ErrPeerFailed instead of the bare
// ErrAborted), ABORT aborts this process, BYE releases Finish. A dead
// coordinator — read error, or a control stream idle long past the
// heartbeat cadence (its host vanished without a FIN) — aborts too, so no
// rank hangs on a vanished world.
func (w *World) watchCtl() {
	for {
		w.ctl.SetReadDeadline(time.Now().Add(w.tm.CtlIdleTimeout))
		line, err := w.ctlRd.ReadString('\n')
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "PING":
			w.ctlWr.Lock()
			fmt.Fprintf(w.ctl, "PONG %d\n", w.rank)
			w.ctlWr.Unlock()
			continue
		case strings.HasPrefix(trimmed, "RANKFAIL "):
			var r int
			if _, serr := fmt.Sscanf(trimmed, "RANKFAIL %d", &r); serr == nil {
				w.noteFailedRank(r)
				telemetry.RecordEvent(telemetry.EvRankFail, uint64(r), 0)
			}
			continue // the ABORT that follows the verdict tears down
		case trimmed == "ABORT":
			w.localAbort()
			return
		case trimmed == "BYE":
			close(w.bye)
			return
		}
		if err != nil {
			if !w.finished.Load() || !w.Aborted() {
				w.localAbort()
			}
			return
		}
	}
}

// Finish reports clean completion and blocks until the coordinator releases
// the world (BYE): this rank's memory stays remotely addressable until every
// rank is done, matching the shared-segment lifetime of the mmap backend.
//
// The wire is drained first: a body whose last act is a fire-class op (a
// collective that ends on a remote store) leaves it queued in the session
// builder, and DONE must not announce completion while a peer still waits
// for that store. Like every drain this panics on a lost peer, so callers
// run Finish where they would report the body's own panic.
func (w *World) Finish() {
	w.DrainWire()
	w.finished.Store(true)
	w.ctlWr.Lock()
	w.sendStatsLocked() // before DONE: the snapshot must precede teardown
	fmt.Fprintf(w.ctl, "DONE %d\n", w.rank)
	w.ctlWr.Unlock()
	select {
	case <-w.bye:
	case <-w.done:
	case <-time.After(byeTimeout):
	}
	w.ctl.Close()
	w.stopService()
}

// Fail aborts the world and reports msg to the coordinator; the caller exits
// nonzero afterwards.
func (w *World) Fail(msg string) {
	w.finished.Store(true)
	msg = strings.ReplaceAll(msg, "\n", " ")
	w.ctlWr.Lock()
	// Before FAIL, so the victim's flight-recorder tail (the snapshot's
	// events) reaches the coordinator with the failure it explains.
	w.sendStatsLocked()
	fmt.Fprintf(w.ctl, "FAIL %d %s\n", w.rank, msg)
	w.ctlWr.Unlock()
	w.localAbort()
	w.ctl.Close()
	w.stopService()
}

// localAbort runs this process's abort consequences exactly once: waiters
// wake, in-flight requests fail fast, service connections drop.
func (w *World) localAbort() {
	w.abortOnce.Do(func() {
		telemetry.RecordEvent(telemetry.EvAbort, uint64(w.rank), 0)
		w.aborted.Store(true)
		close(w.done)
		w.park.Abort()
		w.ln.Close()
		w.peerMu.Lock()
		for _, p := range w.peers {
			if p != nil {
				p.c.Close()
			}
		}
		w.peerMu.Unlock()
		w.hookMu.Lock()
		hooks := append([]func(){}, w.hooks...)
		w.hookMu.Unlock()
		for _, fn := range hooks {
			fn()
		}
	})
}

// Abort marks the world dead: this process unwinds immediately and the
// coordinator broadcasts the abort to every other rank.
func (w *World) Abort() {
	if w.aborted.Load() {
		return
	}
	w.ctlWr.Lock()
	w.ctl.SetWriteDeadline(time.Now().Add(2 * time.Second))
	fmt.Fprintf(w.ctl, "ABORT %d\n", w.rank)
	w.ctl.SetWriteDeadline(time.Time{})
	w.ctlWr.Unlock()
	w.localAbort()
}

// Aborted reports whether the world has been torn down.
func (w *World) Aborted() bool { return w.aborted.Load() }

// Done returns a channel closed when this process observes the abort.
func (w *World) Done() <-chan struct{} { return w.done }

// OnAbort registers fn to run when this process observes the abort; if the
// world already aborted, fn runs immediately.
func (w *World) OnAbort(fn func()) {
	w.hookMu.Lock()
	w.hooks = append(w.hooks, fn)
	w.hookMu.Unlock()
	if w.Aborted() {
		fn()
	}
}

// ---- simnet.Transport: topology, segments, regions ----

var _ simnet.Transport = (*World)(nil)

// Size returns the number of ranks.
func (w *World) Size() int { return w.opts.Ranks }

// RanksPerNode returns the node width.
func (w *World) RanksPerNode() int { return w.opts.RanksPerNode }

// NodeOf returns the node index hosting rank r. The mapping is virtual —
// rank/RanksPerNode, identical on every backend — so the cost model (and
// with it every virtual time) does not depend on physical placement.
func (w *World) NodeOf(r int) int { return r / w.opts.RanksPerNode }

// SameNode reports whether ranks a and b share a (virtual) node.
func (w *World) SameNode(a, b int) bool { return w.NodeOf(a) == w.NodeOf(b) }

// AllocSeg returns a zeroed registrable segment from this process's heap:
// remote ranks reach it through the service loop, so any local memory is
// registrable and the process-wide pool serves directly (as on the
// in-process fabric — only the mmap backend needs a private arena).
func (w *World) AllocSeg(rank, size int) *segpool.Seg {
	if rank != w.rank {
		panic("netrun: AllocSeg for a foreign rank")
	}
	return segpool.Get(size)
}

// RecycleSeg returns a segment to the pool (see Transport).
func (w *World) RecycleSeg(rank int, s *segpool.Seg, scrubbed bool, extra ...segpool.Range) {
	if rank != w.rank {
		panic("netrun: RecycleSeg for a foreign rank")
	}
	if scrubbed {
		segpool.PutScrubbed(s, extra...)
		return
	}
	segpool.Put(s)
}

// RegisterRegion installs a registration in this rank's directory and
// returns its key. Peers resolve it lazily over the wire (opRegQuery), so
// no broadcast is needed; programs synchronize registration before
// distributing addresses, exactly as on the other backends.
func (w *World) RegisterRegion(rank int, reg *simnet.Region) simnet.Key {
	if rank != w.rank {
		panic("netrun: RegisterRegion for a foreign rank")
	}
	w.mineMu.Lock()
	defer w.mineMu.Unlock()
	k := simnet.Key(len(w.mine))
	w.mine = append(w.mine, reg)
	return k
}

// UnregisterRegion marks a registration dead; later remote accesses fault.
func (w *World) UnregisterRegion(rank int, k simnet.Key) {
	if rank != w.rank {
		panic("netrun: UnregisterRegion for a foreign rank")
	}
	w.mineMu.Lock()
	defer w.mineMu.Unlock()
	if int(k) < len(w.mine) {
		w.mine[k] = nil
	}
}

// ownRegion resolves one of this rank's own keys for the service loop.
func (w *World) ownRegion(k simnet.Key) *simnet.Region {
	w.mineMu.RLock()
	defer w.mineMu.RUnlock()
	if int(k) >= len(w.mine) || w.mine[k] == nil {
		return nil
	}
	return w.mine[k]
}

// LookupRegion resolves an address: this rank's own registrations resolve
// locally; foreign ranks' resolve to cached proxy regions whose data plane
// is the wire protocol. A cached proxy may outlive the owner's
// unregistration — the staleness contract of the other backends' lookup
// caches — in which case its operations fault at the owner.
func (w *World) LookupRegion(a simnet.Addr) *simnet.Region {
	if a.Rank < 0 || a.Rank >= w.opts.Ranks {
		panic(fmt.Sprintf("simnet: address names rank %d outside fabric of %d", a.Rank, w.opts.Ranks))
	}
	if a.Rank == w.rank {
		if reg := w.ownRegion(a.Key); reg != nil {
			return reg
		}
		panic(fmt.Sprintf("simnet: access to unregistered region (rank %d key %d)", a.Rank, a.Key))
	}
	regs := w.proxies[a.Rank]
	if int(a.Key) < len(regs) && regs[a.Key] != nil {
		return regs[a.Key]
	}
	state, size := w.queryRegion(a.Rank, a.Key)
	if state != regLive {
		panic(fmt.Sprintf("simnet: access to unregistered region (rank %d key %d)", a.Rank, a.Key))
	}
	reg := simnet.MakeRemoteRegion(a.Rank, a.Key, &remoteMem{w: w, rank: a.Rank, key: a.Key, size: size})
	for int(a.Key) >= len(w.proxies[a.Rank]) {
		w.proxies[a.Rank] = append(w.proxies[a.Rank], nil)
	}
	w.proxies[a.Rank][a.Key] = &reg
	return &reg
}

// ---- simnet.Transport: virtual-hardware services ----

// Pacer returns the world's pacer: the one discipline over this process's
// last-known clock table, which the wire keeps fresh (see World.pacer).
func (w *World) Pacer() *simnet.Pacer { return w.pacer }

// ownClock is the clock every request carries: this rank's published clock,
// 0 in an unpaced world.
func (w *World) ownClock() int64 {
	if w.pacer == nil {
		return 0
	}
	return w.pacer.Clock(w.rank)
}

// RingDoorbell bumps rank's doorbell generation, waking its waiters: local
// waiters directly, the owner's waiters through a fire-and-forget message
// that the owner applies after every operation already sent on that stream.
// When fused sub-ops are still accumulating toward rank, the ring rides the
// opBatch frame itself (the owner rings after applying the data), saving
// the separate message.
func (w *World) RingDoorbell(rank int) {
	if rank == w.rank {
		w.ringDoor()
		return
	}
	if len(w.rsess) > 0 {
		s := &w.rsess[rank]
		s.bring = true
		// With sub-ops still accumulating, the ring waits for them: the
		// data it announces has not been sent either, so a waiter could
		// not have been satisfied any earlier — it wakes exactly when the
		// bytes land. An empty builder sends the ring now.
		if s.bops == 0 {
			w.flushFused(rank)
		}
		return
	}
	w.sendRing(rank)
}

// Port returns this rank's port; peers' memory is reached through proxies,
// whose operations take the owner's port at the owner.
func (w *World) Port(rank int) *simnet.Port {
	if rank == w.rank {
		return w.port
	}
	return nil
}

// WakeDoor wakes the waiters parked on this rank's port (the only one the
// inline path releases here).
func (w *World) WakeDoor(rank int) { w.door.Wake(w.doorSelf) }

// DoorGen samples rank's doorbell generation.
func (w *World) DoorGen(rank int) uint64 {
	if rank == w.rank {
		return w.port.Gen()
	}
	return w.rpcDoorGen(rank)
}

// WaitDoor blocks until rank's doorbell generation is no longer gen, or for
// simnet.DoorSlice at most. A local wait parks at this rank's door; a remote
// one parks at the owner's, inside its service loop, one DOORWAIT a slice —
// so a dropped connection or an abort can never strand the waiter, and a
// RING frame lost with its connection (rings are fire-and-forget, outside
// the session layer) costs a bounded re-check.
func (w *World) WaitDoor(_, rank int, gen uint64) uint64 {
	if rank == w.rank {
		return w.door.Wait(w.port, w.doorSelf, w.doorSelf, gen)
	}
	for {
		if g := w.rpcDoorWait(rank, gen); g != gen {
			return g
		}
		if err := w.abortErr(); err != nil {
			panic(err)
		}
	}
}
