// Package mprun is the multi-process transport backend: each rank of an
// SPMD world is an OS process, registered memory lives in one mmap-shared
// file (the paper's XPMEM-style same-node fast path made real — remote puts
// and gets are memcpys into the target's mapped segment), and control plus
// doorbell traffic travels over Unix-domain sockets. The package has two
// faces:
//
//   - Launch, called in the launcher process (a program whose spmd.Config
//     selected BackendMP, or cmd/fompi-run), creates the world — the shared
//     segment, the world directory with the control socket — and re-executes
//     the worker argv once per rank with FOMPI_MP_DIR/FOMPI_MP_RANK in the
//     environment.
//   - Join, called in a worker (detected by IsWorker), maps the segment and
//     returns a World implementing simnet.Transport for its rank.
//
// Everything virtual-time lives above the Transport line in simnet.Endpoint
// and internal/timing, and the shadow-stamp arrays themselves are laid out
// inside the shared segment, so a multi-process run's clocks, stamps, and
// checksums are bit-identical to the in-process backend's (the conformance
// suite in internal/transporttest pins this). See DESIGN.md §8 for the wire
// layout and the cross-process ordering argument.
package mprun

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"fompi/internal/rankio"
	"fompi/internal/segpool"
	"fompi/internal/simnet"
)

const (
	envDir  = "FOMPI_MP_DIR"
	envRank = "FOMPI_MP_RANK"

	bootTimeout = 60 * time.Second
	// abortGrace bounds how long the launcher waits, after the first failure
	// report, for the surviving ranks to unwind through the abort flag on
	// their own before it force-kills them. Short enough that a SIGKILLed
	// rank still turns into a launcher exit within the ~10 s failure budget.
	abortGrace = 8 * time.Second
)

// Options describes a multi-process world. Launcher and workers must agree
// on every field (Join validates against the header the launcher wrote).
type Options struct {
	Ranks        int
	RanksPerNode int
	PaceWindowNs int64
	// ArenaBytes is each rank's registered-memory arena inside the shared
	// segment; AllocSeg carves registrations from it.
	ArenaBytes int
	// Relaunch is the worker argv; nil re-executes os.Args.
	Relaunch []string
	// TagOutput prefixes each worker's stdout/stderr with "[rank N]"
	// (cmd/fompi-run sets it).
	TagOutput bool
}

func (o Options) withDefaults() Options {
	if o.Ranks <= 0 {
		o.Ranks = 1
	}
	if o.RanksPerNode <= 0 {
		o.RanksPerNode = 1
	}
	if o.ArenaBytes <= 0 {
		o.ArenaBytes = 16 << 20
	}
	o.ArenaBytes = alignUp(o.ArenaBytes, pageAlign)
	return o
}

// IsWorker reports whether this process was launched as a worker rank of a
// multi-process world (the launcher environment is present).
func IsWorker() bool { return os.Getenv(envRank) != "" }

const segSuffix = ".shm"

// segName names a world's segment after its directory, which is how a worker
// (told only the directory) finds it and how the sweeper pairs a stranded
// segment with its world. The sockets stay inside the directory, under the
// names they have always had (doorbells are shm.door.<rank>).
func segName(dir string) string  { return filepath.Base(dir) + segSuffix }
func sockStem(dir string) string { return filepath.Join(dir, "shm") }
func ctlPath(dir string) string  { return filepath.Join(dir, "ctl") }

// arenaCfg translates launcher options into the shared-arena header contract.
func arenaCfg(o Options) ArenaConfig {
	return ArenaConfig{
		Ranks:        o.Ranks,
		RanksPerNode: o.RanksPerNode,
		PaceWindowNs: o.PaceWindowNs,
		ArenaBytes:   o.ArenaBytes,
	}
}

// World is one process's attachment to a multi-process world; in a worker it
// implements simnet.Transport for that worker's rank. The shared-memory data
// plane lives in Arena (local index == global rank on this backend); World
// adds the launcher protocol and the abort plumbing.
type World struct {
	opts Options
	rank int // -1 in the launcher
	dir  string
	ar   *Arena
	pace *simnet.Pacer // this process's view of the arena's pace tables

	ctl   *net.UnixConn // stream to the launcher (workers only)
	ctlRd *bufio.Reader

	done      chan struct{}
	abortOnce sync.Once
	hookMu    sync.Mutex
	hooks     []func()
	watchStop chan struct{}
}

func fileSize(st os.FileInfo, err error) any {
	if err != nil {
		return err
	}
	return st.Size()
}

// Launch creates a multi-process world and runs worker processes through it.
// It blocks until every worker exits and returns nil only if all of them
// finished cleanly. Worker stdout/stderr pass through to this process.
func Launch(o Options) error {
	o = o.withDefaults()
	if o.Ranks > MaxRanks {
		return fmt.Errorf("mprun: %d ranks exceed the multi-process backend's limit of %d (use the in-process backend for large worlds)", o.Ranks, MaxRanks)
	}
	argv := o.Relaunch
	if len(argv) == 0 {
		argv = os.Args
	}
	SweepStaleWorlds(staleWorldAge)
	dir, err := os.MkdirTemp("", "fompi-mp-*")
	if err != nil {
		return fmt.Errorf("mprun: create world dir: %w", err)
	}
	defer os.RemoveAll(dir)

	w := &World{opts: o, rank: -1, dir: dir,
		done: make(chan struct{}), watchStop: make(chan struct{})}
	ar, err := CreateArena(segName(dir), sockStem(dir), arenaCfg(o))
	if err != nil {
		return err
	}
	w.ar = ar
	defer ar.Close()
	defer ar.Unlink() // a bootstrap that fails never reaches the one below

	ln, err := net.ListenUnix("unix", &net.UnixAddr{Name: ctlPath(dir), Net: "unix"})
	if err != nil {
		return fmt.Errorf("mprun: listen control socket: %w", err)
	}
	defer ln.Close()

	cmds := make([]*rankio.Cmd, o.Ranks)
	for r := 0; r < o.Ranks; r++ {
		env := []string{envDir + "=" + dir, fmt.Sprintf("%s=%d", envRank, r)}
		cmd, err := rankio.Start(argv, env, r, o.TagOutput)
		if err != nil {
			w.abortWorld()
			rankio.KillAll(cmds[:r])
			rankio.ReapAll(cmds[:r])
			return fmt.Errorf("mprun: spawn rank %d (%s): %w", r, argv[0], err)
		}
		cmds[r] = cmd
	}

	// Bootstrap barrier: accept one control connection per rank, collect the
	// READY lines (sent after each worker registered its setup regions), then
	// release everyone with GO.
	conns := make([]*net.UnixConn, o.Ranks)
	deadline := time.Now().Add(bootTimeout)
	for i := 0; i < o.Ranks; i++ {
		ln.SetDeadline(deadline)
		c, err := ln.AcceptUnix()
		if err != nil {
			w.abortWorld()
			rankio.KillAll(cmds)
			rankio.ReapAll(cmds)
			return fmt.Errorf("mprun: worker bootstrap timed out (%d of %d connected): %w", i, o.Ranks, err)
		}
		c.SetReadDeadline(deadline)
		var r int
		if _, err := fmt.Fscanf(bufio.NewReader(c), "READY %d\n", &r); err != nil || r < 0 || r >= o.Ranks || conns[r] != nil {
			w.abortWorld()
			rankio.KillAll(cmds)
			rankio.ReapAll(cmds)
			return fmt.Errorf("mprun: bad READY handshake from a worker: %v", err)
		}
		c.SetReadDeadline(time.Time{})
		conns[r] = c
	}
	// Every rank mapped the segment before it reported READY: the name has
	// served its purpose, and a launcher killed from here on strands nothing.
	ar.Unlink()
	for _, c := range conns {
		if _, err := c.Write([]byte("GO\n")); err != nil {
			w.abortWorld()
			rankio.KillAll(cmds)
			rankio.ReapAll(cmds)
			return fmt.Errorf("mprun: release workers: %w", err)
		}
	}

	// Collect final status lines and process exits. On the first failure,
	// abort the world so blocked peers unwind, give them a grace period, and
	// kill whatever is left. The first non-zero worker exit code rides the
	// returned error (rankio.RankError) so launchers can propagate it.
	type status struct {
		rank int
		msg  string // "" = clean
		code int
	}
	results := make(chan status, o.Ranks)
	for r := range conns {
		go func(r int, c *net.UnixConn) {
			line, err := bufio.NewReader(c).ReadString('\n')
			line = strings.TrimSpace(line)
			code := cmds[r].Wait()
			switch {
			case strings.HasPrefix(line, "FAIL "):
				msg := strings.TrimSpace(strings.TrimPrefix(line, fmt.Sprintf("FAIL %d", r)))
				results <- status{r, msg, code}
			case strings.HasPrefix(line, "DONE ") && code == 0:
				results <- status{r, "", 0}
			case err != nil && code == 0:
				results <- status{r, fmt.Sprintf("control channel closed early: %v", err), 0}
			default:
				results <- status{r, fmt.Sprintf("exited with status %d without DONE", code), code}
			}
		}(r, conns[r])
	}
	var firstErr error
	firstCode := 0
	firstRank := -1
	killed := false
	for i := 0; i < o.Ranks; i++ {
		var st status
		if firstErr == nil {
			st = <-results
		} else {
			select {
			case st = <-results:
			case <-time.After(abortGrace):
				if !killed {
					rankio.KillAll(cmds)
					killed = true
				}
				st = <-results
			}
		}
		if st.msg != "" {
			// Peer-abort symptoms never displace a causal report, and a
			// causal report displaces an earlier symptom: the world's error
			// should name the rank that died, not a rank that noticed.
			err := rankio.ClassifyFail(fmt.Errorf("mprun: rank %d: %s", st.rank, st.msg), st.msg)
			causal := !errors.Is(err, rankio.ErrPeerAbort)
			if firstErr == nil || (causal && errors.Is(firstErr, rankio.ErrPeerAbort)) {
				firstErr = err
				if causal {
					firstRank = st.rank
				}
			}
			if firstCode == 0 && st.code != 0 {
				firstCode = st.code
			}
			if causal {
				w.blameAbort(st.rank)
			} else {
				w.abortWorld()
			}
		}
	}
	if firstErr != nil {
		if firstCode == 0 {
			firstCode = 1
		}
		return &rankio.RankError{Err: firstErr, Code: firstCode, Rank: firstRank}
	}
	return nil
}

// staleWorldAge is how old an orphaned world directory must be before the
// sweeper touches it: far beyond any bootstrap window, so an in-flight
// Launch can never be mistaken for wreckage.
const staleWorldAge = 15 * time.Minute

// SweepStaleWorlds removes what a killed launcher left behind: world
// directories (sockets) under os.TempDir, and segments in either root whose
// launcher died before every rank was READY. Launch normally removes both, so
// anything old with a dead control socket is wreckage: an entry is removed
// only if it is at least minAge old AND nothing answers on its world's
// control socket (a live world's launcher is always listening there; a
// segment's world is the directory it is named after, and a missing directory
// answers nothing). Runs best-effort at every Launch; returns the number of
// entries removed.
func SweepStaleWorlds(minAge time.Duration) int {
	removed := 0
	for _, p := range GlobRoots("fompi-mp-*") {
		st, err := os.Lstat(p)
		if err != nil || time.Since(st.ModTime()) < minAge {
			continue
		}
		dir := p
		if !st.IsDir() {
			dir = filepath.Join(os.TempDir(), strings.TrimSuffix(filepath.Base(p), segSuffix))
		}
		if c, err := net.DialTimeout("unix", ctlPath(dir), 100*time.Millisecond); err == nil {
			c.Close()
			continue
		}
		if os.RemoveAll(p) == nil {
			rankio.Logf("mprun", "removed stale world entry %s (left by a crashed launcher)", p)
			removed++
		}
	}
	return removed
}

// Join attaches a worker process (spawned by Launch) to its world and
// returns the Transport for its rank. The caller registers its setup regions
// and then calls Ready to enter the bootstrap barrier.
func Join(o Options) (*World, error) {
	o = o.withDefaults()
	dir := os.Getenv(envDir)
	var rank int
	if _, err := fmt.Sscanf(os.Getenv(envRank), "%d", &rank); err != nil || dir == "" {
		return nil, fmt.Errorf("mprun: not a worker process (%s/%s unset)", envDir, envRank)
	}
	if rank < 0 || rank >= o.Ranks {
		return nil, fmt.Errorf("mprun: worker rank %d outside world of %d (launcher/worker config mismatch)", rank, o.Ranks)
	}
	w := &World{opts: o, rank: rank, dir: dir,
		done: make(chan struct{}), watchStop: make(chan struct{})}
	ar, err := OpenArena(segName(dir), sockStem(dir), arenaCfg(o), 0)
	if err != nil {
		return nil, err
	}
	if err := ar.Bind(rank); err != nil {
		return nil, err
	}
	w.ar, w.pace = ar, ar.Pacer()
	ctl, err := net.DialUnix("unix", nil, &net.UnixAddr{Name: ctlPath(dir), Net: "unix"})
	if err != nil {
		return nil, fmt.Errorf("mprun: dial control socket: %w", err)
	}
	w.ctl, w.ctlRd = ctl, bufio.NewReader(ctl)
	go w.watchAbort()
	return w, nil
}

// watchAbort surfaces a peer- or launcher-initiated abort to this process:
// it closes Done and runs the OnAbort hooks. Doorbell and pacing parks check
// the flag themselves on every heartbeat.
func (w *World) watchAbort() {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-w.watchStop:
			return
		case <-t.C:
			if w.ar.AbortFlag() {
				w.localAbort()
				return
			}
		}
	}
}

// localAbort runs this process's abort consequences exactly once.
func (w *World) localAbort() {
	w.abortOnce.Do(func() {
		close(w.done)
		w.hookMu.Lock()
		hooks := append([]func(){}, w.hooks...)
		w.hookMu.Unlock()
		for _, fn := range hooks {
			fn()
		}
	})
}

// abortWorld marks the whole world aborted and wakes every rank.
func (w *World) abortWorld() {
	w.ar.SetAbortFlag()
	w.localAbort()
}

// blameAbort is abortWorld plus a verdict: rank r's failure killed the
// world, so waiters in every process unwind with *simnet.ErrPeerFailed.
func (w *World) blameAbort(r int) {
	w.ar.SetAbortFlagBlaming(r)
	w.localAbort()
}

// Rank returns this process's rank (-1 in the launcher).
func (w *World) Rank() int { return w.rank }

// SegmentPath returns the path this process mapped the world's segment from.
func (w *World) SegmentPath() string { return w.ar.Path() }

// Ready enters the bootstrap barrier: it tells the launcher this rank's
// setup registrations are addressable and blocks until every rank's are.
func (w *World) Ready() {
	if _, err := fmt.Fprintf(w.ctl, "READY %d\n", w.rank); err != nil {
		panic(fmt.Sprintf("mprun: report READY: %v", err))
	}
	// A dead or wedged launcher must not strand workers: bound the wait.
	w.ctl.SetReadDeadline(time.Now().Add(bootTimeout))
	line, err := w.ctlRd.ReadString('\n')
	w.ctl.SetReadDeadline(time.Time{})
	if err != nil || strings.TrimSpace(line) != "GO" {
		panic(fmt.Sprintf("mprun: bootstrap barrier failed (%q, %v)", line, err))
	}
}

// Finish reports clean completion to the launcher.
func (w *World) Finish() {
	fmt.Fprintf(w.ctl, "DONE %d\n", w.rank)
	w.ctl.Close()
	close(w.watchStop)
}

// Fail aborts the world and reports msg to the launcher; the caller exits
// nonzero afterwards. A failure that is not itself a peer-abort symptom
// blames this rank, so peers unwind with a typed error naming it.
func (w *World) Fail(msg string) {
	if strings.Contains(msg, rankio.PeerAbortMsg) {
		w.abortWorld()
	} else {
		w.blameAbort(w.rank)
	}
	msg = strings.ReplaceAll(msg, "\n", " ")
	fmt.Fprintf(w.ctl, "FAIL %d %s\n", w.rank, msg)
	w.ctl.Close()
}

// ---- simnet.Transport ----

var _ simnet.Transport = (*World)(nil)

// Size returns the number of ranks.
func (w *World) Size() int { return w.opts.Ranks }

// RanksPerNode returns the node width.
func (w *World) RanksPerNode() int { return w.opts.RanksPerNode }

// NodeOf returns the node index hosting rank r.
func (w *World) NodeOf(r int) int { return r / w.opts.RanksPerNode }

// SameNode reports whether ranks a and b share a node.
func (w *World) SameNode(a, b int) bool { return w.NodeOf(a) == w.NodeOf(b) }

// AllocSeg carves a zeroed segment — buffer plus shadow-stamp slabs, laid
// out contiguously so the region directory needs only (offset, length) —
// from this rank's shared-memory arena, reusing a recycled segment of the
// same size when one is free.
func (w *World) AllocSeg(rank, size int) *segpool.Seg {
	if rank != w.rank {
		panic("mprun: AllocSeg for a foreign rank")
	}
	return w.ar.AllocSeg(rank, size)
}

// RecycleSeg returns a segment to this rank's free list (see Transport).
func (w *World) RecycleSeg(rank int, s *segpool.Seg, scrubbed bool, extra ...segpool.Range) {
	if rank != w.rank {
		panic("mprun: RecycleSeg for a foreign rank")
	}
	w.ar.Recycle(s, scrubbed, extra...)
}

// RegisterRegion publishes a registration in the shared directory. The
// buffer must come from AllocSeg: remote processes can only reach the shared
// segment, so arbitrary heap memory (traditional windows over user buffers)
// is rejected with a clear fault.
func (w *World) RegisterRegion(rank int, reg *simnet.Region) simnet.Key {
	if rank != w.rank {
		panic("mprun: RegisterRegion for a foreign rank")
	}
	return simnet.Key(w.ar.Register(rank, reg))
}

// UnregisterRegion marks a registration dead; later remote accesses fault.
func (w *World) UnregisterRegion(rank int, k simnet.Key) {
	if rank != w.rank {
		panic("mprun: UnregisterRegion for a foreign rank")
	}
	w.ar.Unregister(rank, uint32(k))
}

// LookupRegion resolves an address, materializing (and caching) a local view
// of the owner's registration (see Arena.Lookup; on this backend local index
// and world rank coincide).
func (w *World) LookupRegion(a simnet.Addr) *simnet.Region {
	if a.Rank < 0 || a.Rank >= w.opts.Ranks {
		panic(fmt.Sprintf("simnet: address names rank %d outside fabric of %d", a.Rank, w.opts.Ranks))
	}
	return w.ar.Lookup(a.Rank, uint32(a.Key), a.Rank)
}

// Pacer returns the world's pacer over the arena's tables (see Arena.Pacer).
func (w *World) Pacer() *simnet.Pacer { return w.pace }

// Port returns rank's port in the shared arena: every rank is addressable.
func (w *World) Port(rank int) *simnet.Port { return w.ar.Port(rank) }

// WakeDoor pokes every rank whose process waits on rank's doorbell.
func (w *World) WakeDoor(rank int) { w.ar.Door().Wake(rank) }

// RingDoorbell advances rank's doorbell generation and wakes its waiters.
func (w *World) RingDoorbell(rank int) { w.ar.Ring(rank) }

// DoorGen samples rank's doorbell generation.
func (w *World) DoorGen(rank int) uint64 { return w.ar.Port(rank).Gen() }

// WaitDoor parks this process until rank's doorbell generation is no longer
// gen (the waiter is always this process's rank).
func (w *World) WaitDoor(_, rank int, gen uint64) uint64 {
	return w.ar.Door().Wait(w.ar.Port(rank), rank, w.rank, gen)
}

// Abort marks the world dead and wakes every blocked waiter in every process.
func (w *World) Abort() { w.abortWorld() }

// Aborted reports whether the world has been torn down.
func (w *World) Aborted() bool { return w.ar.AbortFlag() }

// Done returns a channel closed when this process observes the abort flag.
func (w *World) Done() <-chan struct{} { return w.done }

// OnAbort registers fn to run when this process observes the abort flag; if
// the world already aborted, fn runs immediately.
func (w *World) OnAbort(fn func()) {
	w.hookMu.Lock()
	w.hooks = append(w.hooks, fn)
	w.hookMu.Unlock()
	if w.Aborted() {
		w.localAbort()
	}
}
