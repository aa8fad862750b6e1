package rankio

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fompi/internal/sock"
	"fompi/internal/telemetry"
)

// A rank learns its world from two variables: EnvCoord names the backend and
// the descriptors it was started with, "backend:fd:3" or "backend:fd:3,4" —
// its control stream, then its host group's arena when it shares one — and
// EnvRank the rank, which only a spawning launcher sets: a host launcher's
// ranks join rankless, and join order assigns them the unclaimed slots.
// EnvHost is a deployment setting: the host key a rank joins under (see
// HostKey), which a host launcher exports to its ranks.
const (
	EnvCoord = "FOMPI_COORD"
	EnvRank  = "FOMPI_RANK"
	EnvHost  = "FOMPI_NET_HOST"
)

// Inherited is the network every EnvCoord names: descriptors the rank
// inherited (exec.Cmd.ExtraFiles numbers them from 3).
const Inherited = "fd"

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

// WorkerOf reads this worker's identity: the descriptors EnvCoord names —
// in a world of backend, which it must name — and the rank EnvRank claims,
// -1 when it claims none.
func WorkerOf(backend string, ranks int) (at string, rank int, err error) {
	coord := os.Getenv(EnvCoord)
	got, rest, _ := strings.Cut(coord, ":")
	network, at, _ := strings.Cut(rest, ":")
	switch {
	case network != Inherited || at == "":
		return "", -1, fmt.Errorf("rankio: not a worker process: %s=%q (want backend:%s:3[,4])", EnvCoord, coord, Inherited)
	case got != backend:
		return "", -1, fmt.Errorf("%w: %s names a %s world, this rank runs the %s backend", ErrBackendMismatch, EnvCoord, got, backend)
	}
	rank = -1
	if s := os.Getenv(EnvRank); s != "" {
		if rank, err = strconv.Atoi(s); err != nil || rank < 0 || rank >= ranks {
			return "", -1, fmt.Errorf("rankio: bad %s=%q for world of %d ranks", EnvRank, s, ranks)
		}
	}
	return at, rank, nil
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
	// Listen is a host-list coordinator's TCP listen address; empty means
	// :7077.
	Listen string
	// Hosts, when non-empty, selects host-list mode: the coordinator listens
	// on TCP, spawns nothing and waits for the Ranks ranks that one host
	// launcher per machine starts (fompi-run -join), each over a control
	// stream its launcher dialed for it. The list is advisory placement
	// documentation, quoted in the launch banner; ranks follow explicit
	// EnvRank claims, then join order.
	Hosts []string
	// Relaunch is the worker command line a launcher executes once per rank
	// it starts; nil re-executes os.Args. TagOutput prefixes each spawned
	// rank's stdout/stderr with "[rank N]" (a host launcher's with
	// "[<host key> proc i]", i its own index: it does not know the ranks).
	Relaunch  []string
	TagOutput bool
	// HostKeys is the launcher's placement: rank r's host key in the WORLD
	// catalog is HostKeys[r], whatever its JOIN said. Empty (every rank keeps
	// the key it resolved, see HostKey) or exactly Ranks long.
	HostKeys []string
	// JoinTimeout bounds joining: how long the coordinator waits for
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

// member is one control stream the loop follows from its first byte. Only
// the loop touches it; its reader only reads the stream.
type member struct {
	conn              sock.Conn
	rank              int     // -1 until claimed at JOIN or given at WORLD
	join              ctlLine // kind lnJoin once joined
	dropped           bool    // closed unjoined: its late lines and end are ignored
	ready, done, gone bool    // READY in, DONE in, stream ended
	lastPong          time.Time
	latest            telemetry.Snapshot // the last STATS
}

type coord struct {
	Options
	tm   Timeouts
	quit chan os.Signal // SIGQUIT to the launcher: DUMP every rank
	// ln is a host-list world's listener. A spawned world is given its
	// streams instead, and spawns rank r with kids[r] and shared[r] unless
	// kids is nil: its ranks hold their ends already.
	ln     sock.Listener
	kids   []*os.File
	shared []*os.File
	cmds   []*Cmd // nil when nothing is spawned

	events chan event    // unbuffered: nothing is posted once the loop is over
	stop   chan struct{} // closed then: pending posts give up
	wg     sync.WaitGroup

	streams, joined []*member // every stream followed; the joined, in join order
	members         []*member // by rank: claimed at JOIN, the rest given at WORLD
	// The loop joins until WORLD goes out, boots until GO does, then runs.
	// Its timers are nil until they apply: the join deadline, then WORLD's
	// boot deadline; the host-list progress line until WORLD; the heartbeat
	// and SIGQUIT's DUMP from GO (a rank reads no pushed line before it);
	// the grace from the abort to the kill.
	world, running                  bool
	readies                         int
	deadline, progress, beat, grace <-chan time.Time
	dump                            <-chan os.Signal

	// The verdict: the first failure (see fail) and the first non-zero exit code.
	firstErr             error
	firstCode, firstRank int
	firstSymptom         bool
	doneCount, exited    int
	aborting, byeSent    bool
}

// event is what the loop hears: a line of a stream (err set when it does not
// parse), the stream's end (with a spawned rank's exit status), or — from
// nil — the acceptor's next connection or its failure.
type event struct {
	from *member
	ctlLine
	err  error
	end  bool
	code int
	conn sock.Conn
}

// Coordinate runs one host-list world from the launcher side over ln: the
// banner that tells the operator how to start each host's launcher, then
// one loop that follows every connection from its first byte, sends WORLD
// once every slot is claimed and GO once every READY is in, and runs the
// world until every rank is accounted for. A connection that ends, or says
// anything but JOIN, before JOIN is a probe and takes no slot: a stream a
// host launcher dialed for a rank that died before JOIN is named when the
// join timeout names its missing slot (its launcher names it at once,
// RunHost). The verdict of a failed world — RANKFAIL naming the culprit,
// then ABORT — travels on every rank's control stream and nowhere else, and
// so does the answer to a SIGQUIT to the launcher: DUMP to every rank, each
// of which answers with its STATS line and writes its goroutines to its own
// stderr. Coordinate returns nil only if every rank finished cleanly; a
// failed world is a *RankError naming the causal rank and carrying the first
// non-zero worker exit code. It leaves no goroutine behind, and ln's
// deadline in the past.
func Coordinate(ln sock.Listener, o Options) error {
	return (&coord{Options: o, ln: ln}).run()
}

// CoordinateInherited is Coordinate for a world whose launcher starts every
// rank itself: streams[r], one end of a connected pair (sock.Pairs), is rank
// r's control stream, and it must JOIN as rank r. Rank r is spawned with
// kids[r], the pair's other end, and shared[r], its host group's arena or
// nil (spawnRanks); with kids nil, the ranks hold their ends already and
// nothing is spawned. A stream that ends before JOIN is its rank's death,
// and fails the world at once. The world names nothing on disk, and no
// process but the launcher can reach a rank's stream. CoordinateInherited
// closes streams and kids.
func CoordinateInherited(o Options, streams []sock.Conn, kids, shared []*os.File) error {
	defer func() {
		for _, k := range kids {
			k.Close() // those spawn never handed over
		}
	}()
	c := &coord{Options: o, kids: kids, shared: shared}
	for r, s := range streams {
		c.streams = append(c.streams, &member{conn: s, rank: r})
	}
	return c.run()
}

// AdoptInherited takes over what a rank was started with, at the address
// EnvCoord names ("ctl" or "ctl,shared"): its control stream and, when
// named, the shared file (nil otherwise).
func AdoptInherited(at string) (ctl sock.Conn, shared *os.File, err error) {
	a, b, two := strings.Cut(at, ",")
	ctlFD, errA := strconv.Atoi(a)
	sharedFD, errB := 0, error(nil)
	if two {
		sharedFD, errB = strconv.Atoi(b)
	}
	if errA != nil || errB != nil || ctlFD < 0 || sharedFD < 0 || two && ctlFD == sharedFD {
		return nil, nil, fmt.Errorf("rankio: %s address %q does not name its descriptors (want ctl[,shared])", EnvCoord, at)
	}
	if ctl, err = sock.Adopt(ctlFD); err != nil {
		return nil, nil, fmt.Errorf("rankio: inherited control stream: %w", err)
	}
	if two {
		shared = os.NewFile(uintptr(sharedFD), "inherited fd "+b)
	}
	return ctl, shared, nil
}

func (c *coord) run() (err error) {
	c.tm, err = ResolveTimeouts()
	switch {
	case err != nil: // a bad timeout spec fails the launch, like a bad -faults spec
	case len(c.HostKeys) != 0 && len(c.HostKeys) != c.Ranks:
		err = fmt.Errorf("rankio: %d host keys for %d ranks", len(c.HostKeys), c.Ranks)
	default:
		// A signal before GO waits in the buffer until the world runs.
		c.quit = make(chan os.Signal, 1)
		signal.Notify(c.quit, syscall.SIGQUIT)
		defer signal.Stop(c.quit)
		c.events, c.stop = make(chan event), make(chan struct{})
		c.members = make([]*member, c.Ranks)
		if err = c.spawn(); err == nil {
			err = c.loop()
		}
		if err != nil {
			// Redundant after a world that ran to its end (everyone has
			// exited), load-bearing after a failed start: don't leave orphans.
			KillAll(c.cmds)
			ReapAll(c.cmds)
		}
		close(c.stop)
	}
	for _, m := range c.streams {
		m.conn.Close()
	}
	if c.ln != nil {
		c.ln.SetDeadline(time.Unix(1, 0)) // wakes the acceptor
	}
	c.wg.Wait()
	return err
}

// spawn starts the ranks, or in host-list mode tells the operator how to.
func (c *coord) spawn() error {
	switch {
	case c.ln != nil:
		// A wildcard bind address is not dialable from another machine;
		// tell the operator to substitute this host's address.
		at := c.ln.Addr()
		dial := at
		if ap, err := netip.ParseAddrPort(at); err == nil && ap.Addr().IsUnspecified() {
			dial = fmt.Sprintf("<this-host>:%d", ap.Port())
		}
		arena := ""
		if c.ArenaBytes != 0 {
			arena = fmt.Sprintf(" -arena %d", c.ArenaBytes)
		}
		Logf("rankio",
			"coordinator listening on %s; on each of {%s}, start that host's share of the %d ranks with\n"+
				"  fompi-run -join %s -backend %s -ppn %d -pace %d%s -np <ranks on that host> [%s=<host-key>] <program> ...",
			at, strings.Join(c.Hosts, ", "), c.Ranks, dial, c.Backend, c.RanksPerNode, c.PaceWindowNs, arena, EnvHost)
		return nil
	case c.kids == nil:
		return nil
	}
	var err error
	c.cmds, err = spawnRanks(c.Options, c.kids, c.shared,
		func(r int) []string { return []string{EnvRank + "=" + strconv.Itoa(r)} },
		func(r int) string { return fmt.Sprintf("[rank %d]", r) })
	return err
}

// spawnRanks starts one rank process per entry of kids, executing o.Relaunch
// (os.Args when nil): process i inherits kids[i], its end of its control
// stream, as descriptor 3 and shared[i], its host group's arena, as 4 unless
// that is nil, and EnvCoord names them ("backend:fd:3" or "backend:fd:3,4"),
// with env(i) appended; under o.TagOutput, tag(i) prefixes its output lines. It closes kids[i] once process i holds it — with
// this copy gone, the rank's exit ends the stream — and on a failure every
// kid it did not hand over; it returns the processes it started either way.
func spawnRanks(o Options, kids, shared []*os.File, env func(i int) []string, tag func(i int) string) ([]*Cmd, error) {
	argv := o.Relaunch
	if len(argv) == 0 {
		argv = os.Args
	}
	cmds := make([]*Cmd, 0, len(kids))
	for i, kid := range kids {
		files, at := []*os.File{kid}, "3"
		if i < len(shared) && shared[i] != nil {
			files, at = append(files, shared[i]), "3,4"
		}
		prefix := ""
		if o.TagOutput {
			prefix = tag(i)
		}
		cmd, err := Start(argv, append(env(i), EnvCoord+"="+o.Backend+":"+Inherited+":"+at), files, prefix)
		kid.Close()
		if err != nil {
			for _, k := range kids[i+1:] {
				k.Close()
			}
			return cmds, fmt.Errorf("rankio: spawn rank %d (%s): %w", i, argv[0], err)
		}
		cmds = append(cmds, cmd)
	}
	return cmds, nil
}

// RunHost is one host's launcher of a host-list world: it spawns a rank per
// control stream in streams, each its launcher dialed to the coordinator
// for it, with the arena shared (nil for none) and EnvHost set to key, and
// waits for them all. The coordinator judges the world; the host launcher
// names at once what only it can see, the first of its ranks to exit with a
// non-zero status — before JOIN, when the coordinator takes its stream's end
// for a probe's — and returns that status in a *RankError after killing the
// rest. It cannot tell a rank that exits 0 before JOIN from one that
// finished: the coordinator's join timeout names that one's slot.
func RunHost(o Options, streams []*os.File, shared *os.File, key string) error {
	files := make([]*os.File, len(streams))
	for i := range files {
		files[i] = shared
	}
	// Its ranks learn their world ranks only from WORLD, so their output is
	// tagged by host key and local process index.
	cmds, err := spawnRanks(o, streams, files,
		func(int) []string { return []string{EnvHost + "=" + key} },
		func(i int) string { return fmt.Sprintf("[%s proc %d]", key, i) })
	defer func() {
		KillAll(cmds)
		ReapAll(cmds)
	}()
	if err != nil {
		return err
	}
	exits := make(chan [2]int, len(cmds))
	for i, c := range cmds {
		go func() { exits <- [2]int{i, c.Wait()} }()
	}
	for range cmds {
		if e := <-exits; e[1] != 0 {
			return &RankError{Err: fmt.Errorf("%s world, host %s: rank process %d of %d (pid %d) exited with status %d",
				o.Backend, key, e[0], len(cmds), cmds[e[0]].cmd.Process.Pid, e[1]), Code: e[1], Rank: -1}
		}
	}
	return nil
}

// post hands ev to the loop, unless the loop is over.
func (c *coord) post(ev event) bool {
	select {
	case c.events <- ev:
		return true
	case <-c.stop:
		return false
	}
}

// accept feeds the loop a TCP world's connections until Accept fails: the
// loop sets a deadline in the past once the world assembles, and once it is
// over.
func (c *coord) accept() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if !c.post(event{conn: conn, err: err}) && conn != nil {
			conn.Close()
		}
		if err != nil {
			return
		}
	}
}

// follow starts m's reader: it posts every line, parsed or not, then the
// stream's end with a spawned rank's exit status (a spawned stream's rank
// is fixed before its reader starts).
func (c *coord) follow(m *member) {
	c.wg.Add(1)
	go func(rank int) {
		defer c.wg.Done()
		sc := newLineReader(m.conn)
		for sc.Scan() {
			l, err := parseLine(sc.Bytes())
			if !c.post(event{from: m, ctlLine: l, err: err}) {
				return
			}
		}
		ev := event{from: m, end: true, err: scanErr(sc)}
		// Past a line too long to scan, the peer may well be alive.
		if rank >= 0 && rank < len(c.cmds) && !errors.Is(ev.err, ErrLineTooLong) {
			ev.code = c.cmds[rank].Wait()
		}
		c.post(ev)
	}(m.rank)
}

// loop takes events and timers one at a time until every rank is accounted
// for or the world's start fails.
func (c *coord) loop() error {
	joinTO := BootTimeout
	if c.JoinTimeout > 0 {
		joinTO = c.JoinTimeout
	}
	c.deadline = time.After(joinTO)
	if len(c.Hosts) != 0 {
		// The operator sees who the world is waiting for while they bring
		// hosts up.
		c.progress = time.Tick(joinProgressDot)
	}
	if c.ln != nil {
		c.wg.Add(1)
		go c.accept()
	}
	for _, m := range c.streams {
		c.follow(m)
	}
	for !c.running || c.exited < c.Ranks {
		select {
		case ev := <-c.events:
			if err := c.handle(ev); err != nil {
				return err
			}
		case <-c.deadline:
			if !c.world {
				return &ErrJoinTimeout{Joined: len(c.joined), Ranks: c.Ranks, Timeout: joinTO, Missing: c.missingRanks()}
			}
			return fmt.Errorf("rankio: %d of %d ranks READY within %v of WORLD", c.readies, c.Ranks, BootTimeout)
		case <-c.progress:
			Logf("rankio", "still waiting for ranks %v (%d of %d joined)", c.missingRanks(), len(c.joined), c.Ranks)
		case <-c.beat:
			c.heartbeat()
		case <-c.dump:
			c.broadcast(ctlLine{kind: lnDump})
		case <-c.grace:
			// Ranks are still unaccounted for: kill local processes and drop
			// every control connection, whose readers then post their ends.
			KillAll(c.cmds)
			for _, m := range c.members {
				m.conn.Close()
			}
		}
	}
	return c.verdict()
}

// handle takes one event; an error fails the world's start.
func (c *coord) handle(ev event) error {
	m := ev.from
	switch {
	case m == nil && ev.err != nil && !c.world:
		return fmt.Errorf("rankio: accept: %w", ev.err)
	case m == nil && ev.conn != nil && c.world:
		ev.conn.Close() // the world has assembled
	case m == nil && ev.conn != nil:
		m = &member{conn: ev.conn, rank: -1}
		c.streams = append(c.streams, m)
		c.follow(m)
	case m == nil || m.dropped:
	case m.join.kind != lnJoin:
		return c.opening(m, ev)
	default:
		return c.status(m, ev)
	}
	return nil
}

// opening takes what a stream says before JOIN, or its end.
func (c *coord) opening(m *member, ev event) error {
	spawned := c.ln == nil
	switch {
	case errors.Is(ev.err, ErrLineTooLong) || !ev.end && ev.err != nil && (ev.kind == lnJoin || spawned):
		return fmt.Errorf("rankio: refused a worker's JOIN: %w", ev.err)
	case spawned && ev.end:
		return c.bootFailure(m, "JOIN", ev)
	case spawned && ev.kind != lnJoin:
		return fmt.Errorf("rankio: rank %d opened its control stream with %s", m.rank, lineTable[ev.kind].verb)
	case ev.end || ev.err != nil || ev.kind != lnJoin:
		// Not a worker: a liveness probe, a port scan, or a connection
		// dropped mid-handshake. Drop it without taking a rank slot.
		m.dropped = true
		m.conn.Close()
		return nil
	}
	j := ev.ctlLine
	m.join = j
	c.joined = append(c.joined, m)
	switch {
	case j.backend != c.Backend:
		return fmt.Errorf("%w: %s worker joined a %s world", ErrBackendMismatch, j.backend, c.Backend)
	case j.ranks != c.Ranks || j.rpn != c.RanksPerNode || j.pace != c.PaceWindowNs:
		return fmt.Errorf("rankio: worker config (ranks %d, ppn %d, pace %d) does not match the coordinator's (ranks %d, ppn %d, pace %d); launcher and workers must run the same configuration",
			j.ranks, j.rpn, j.pace, c.Ranks, c.RanksPerNode, c.PaceWindowNs)
	case j.rank >= c.Ranks:
		return fmt.Errorf("rankio: worker claims rank %d outside world of %d", j.rank, c.Ranks)
	case spawned && j.rank != m.rank:
		return fmt.Errorf("rankio: rank %d's control stream joined as rank %d; an inherited stream joins as its own rank", m.rank, j.rank)
	case j.rank >= 0 && c.members[j.rank] != nil:
		return fmt.Errorf("rankio: two workers claim rank %d", j.rank)
	case j.rank >= 0:
		m.rank, c.members[j.rank] = j.rank, m
	}
	if len(c.joined) == c.Ranks {
		return c.assemble()
	}
	return nil
}

// assemble gives the rankless joiners the free slots in join order, lowest
// rank first, answers every rank with the WORLD catalog and lets go of the
// streams that never joined; the acceptor exits.
func (c *coord) assemble() error {
	next := 0
	for _, m := range c.joined {
		if m.rank < 0 {
			for c.members[next] != nil {
				next++
			}
			m.rank, c.members[next] = next, m
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
		if err := write(m, formatLine(world)); err != nil {
			return fmt.Errorf("rankio: send world catalog to rank %d: %w", r, err)
		}
	}
	for _, m := range c.streams {
		if m.join.kind != lnJoin {
			m.dropped = true
			m.conn.Close()
		}
	}
	if c.ln != nil {
		c.ln.SetDeadline(time.Unix(1, 0))
	}
	c.world, c.progress = true, nil
	c.deadline = time.After(BootTimeout)
	c.release()
	return nil
}

// release sends GO once WORLD is out and every READY is in; the heartbeat
// starts, and every rank's last PONG is now.
func (c *coord) release() {
	if !c.world || c.readies < c.Ranks {
		return
	}
	c.broadcast(ctlLine{kind: lnGo})
	c.running, c.deadline = true, nil
	c.beat, c.dump = time.Tick(c.tm.HeartbeatEvery), c.quit
	for _, m := range c.members {
		m.lastPong = time.Now()
	}
}

// ended says how m's stream ended before the line named: with a spawned
// rank's exit status, else with what its read returned.
func (c *coord) ended(ev event, before string) string {
	if c.cmds != nil {
		return fmt.Sprintf("exited with status %d before %s", ev.code, before)
	}
	return fmt.Sprintf("control stream closed before %s: %v", before, ev.err)
}

// bootFailure is the *RankError of a start m failed, by its FAIL or its end.
func (c *coord) bootFailure(m *member, before string, ev event) error {
	msg := ev.text
	if ev.end {
		msg = c.ended(ev, before)
	}
	return &RankError{Err: fmt.Errorf("%s world: rank %d: %s", c.Backend, m.rank, msg), Code: max(ev.code, 1), Rank: m.rank}
}

// missingRanks lists the rank slots still unclaimed if the join ended now:
// explicit claims hold their slots, and the workers that claimed none would
// fill the lowest free slots first, in join order.
func (c *coord) missingRanks() []int {
	var free []int
	for r, m := range c.members {
		if m == nil {
			free = append(free, r)
		}
	}
	for _, m := range c.joined {
		if m.rank < 0 && len(free) > 0 {
			free = free[1:]
		}
	}
	return free
}

// status takes what a joined rank says, and its stream's end. Before GO, that
// is its own READY (which a rank that claimed its rank may send before WORLD)
// or STATS; its FAIL, its end or any other line fails the start. Once every
// rank has reported DONE the coordinator broadcasts BYE: a finished rank
// keeps serving its memory until then.
func (c *coord) status(m *member, ev event) error {
	switch {
	case !c.running && ev.kind == lnReady && ev.err == nil && ev.rank == m.rank && m.rank >= 0 && !m.ready:
		m.ready = true
		c.readies++
		c.release()
	case ev.kind == lnStats && ev.err == nil:
		c.stats(m, ev.text)
	case !c.running && (ev.end || ev.kind == lnFail && ev.err == nil):
		return c.bootFailure(m, "GO", ev)
	case !c.running:
		what := lineTable[ev.kind].verb
		if ev.err != nil {
			what = ev.err.Error()
		}
		return fmt.Errorf("rankio: rank %d READY handshake failed: %s", m.rank, what)
	case ev.end:
		c.exited++
		m.gone = true
		if !m.done && c.firstErr == nil && !c.aborting {
			// Crashed without a FAIL line (e.g. killed): report the exit and
			// abort the survivors.
			c.fail(m.rank, c.ended(ev, "DONE"), ev.code)
		} else if c.firstCode == 0 {
			c.firstCode = ev.code
		}
	case ev.err != nil:
		c.fail(m.rank, fmt.Sprintf("bad control line: %v", ev.err), 0)
	case ev.kind == lnDone:
		if !m.done {
			m.done = true
			c.doneCount++
		}
		if c.doneCount == c.Ranks && !c.aborting && !c.byeSent {
			c.broadcast(ctlLine{kind: lnBye})
			c.byeSent = true
		}
	case ev.kind == lnPong:
		m.lastPong = time.Now()
	case ev.kind == lnFail:
		c.fail(m.rank, ev.text, 0)
	}
	return nil
}

// stats prints a STATS line — a rank's telemetry so far, whose counters only
// grow — and keeps the rank's latest: the world's aggregate merges those once,
// at the end, so a DUMP's snapshot is never counted twice.
func (c *coord) stats(m *member, text string) {
	if snap, err := telemetry.ParseSnapshot([]byte(text)); err == nil {
		m.latest = snap
		Logf("stats", "rank %d stats %s", m.rank, text)
	}
}

// fail records one rank's failure and, the first time, aborts the world: a
// RANKFAIL verdict naming the culprit (unless the first report is a
// peer-abort symptom) so every survivor's blocked primitive can unwind with
// *simnet.ErrPeerFailed, then ABORT, then — abortGrace later — a kill of
// whatever is left. This verdict is the only way a rank is declared failed.
func (c *coord) fail(rank int, msg string, code int) {
	// A peer-abort report is a symptom; keep looking for the cause. Any later
	// report that is not a symptom displaces a symptom-only error, and the
	// culprit's own report, not the symptom, names it.
	symptom := strings.Contains(msg, PeerAbortMsg)
	if c.firstErr == nil || (c.firstSymptom && !symptom) {
		c.firstErr = fmt.Errorf("%s world: rank %d: %s", c.Backend, rank, msg)
		c.firstRank, c.firstSymptom = rank, symptom
	}
	if c.firstCode == 0 {
		c.firstCode = code
	}
	if c.aborting {
		return
	}
	c.aborting = true
	if !symptom {
		c.broadcast(ctlLine{kind: lnRankFail, rank: rank, text: msg})
	}
	c.broadcast(ctlLine{kind: lnAbort})
	c.grace = time.After(abortGrace)
}

// heartbeat catches the silent deaths a stream's end cannot — a host gone
// without a FIN, a process stopped or wedged — at most stale + one heartbeat
// after the rank falls silent, inside every survivor's SilenceBudget.
func (c *coord) heartbeat() {
	if c.aborting {
		return
	}
	c.broadcast(ctlLine{kind: lnPing})
	for r, m := range c.members {
		if !m.done && !m.gone && time.Since(m.lastPong) > c.tm.HeartbeatStale {
			c.fail(r, fmt.Sprintf("no heartbeat for %v (host dead or partitioned, process stopped?)", c.tm.HeartbeatStale), 0)
			return
		}
	}
}

// broadcast sends l to every rank, best effort: a rank that cannot take the
// line is found by its stream ending or its heartbeat going stale.
func (c *coord) broadcast(l ctlLine) {
	line := formatLine(l)
	for _, m := range c.members {
		write(m, line)
	}
}

// write sends one line to m, bounded: a wedged rank cannot park the loop.
func write(m *member, line []byte) error {
	m.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_, err := m.conn.Write(line)
	m.conn.SetWriteDeadline(time.Time{})
	return err
}

// verdict ends a world that ran: it publishes the merged telemetry (failed
// worlds too — a RANKFAIL post-mortem is exactly when the merged
// flight-recorder tails matter most) and returns the first failure.
func (c *coord) verdict() error {
	agg := telemetry.Snapshot{Rank: -1}
	for _, m := range c.members {
		agg.Merge(m.latest)
	}
	telemetry.Publish(agg)
	if c.firstErr != nil {
		if c.firstCode == 0 {
			c.firstCode = 1
		}
		return &RankError{Err: c.firstErr, Code: c.firstCode, Rank: c.firstRank}
	}
	if !c.byeSent {
		c.broadcast(ctlLine{kind: lnBye})
	}
	return nil
}
