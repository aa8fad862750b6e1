// Package mprun is the multi-process transport backend: each rank of an
// SPMD world is an OS process, registered memory lives in one mmap-shared
// file (the paper's XPMEM-style same-node fast path made real — remote puts
// and gets are memcpys into the target's mapped segment), the control plane
// (internal/rankio) runs over a Unix-domain socket, and doorbell pokes travel
// over Unix datagram sockets. Launch, in the launcher process, creates the
// world — the shared segment, the world directory with the control socket —
// and coordinates it; Join, in a worker, maps the segment and returns a World
// implementing simnet.Transport for its rank.
//
// Everything virtual-time lives above the Transport line in simnet.Endpoint
// and internal/timing, and the shadow-stamp arrays themselves are laid out
// inside the shared segment, so a multi-process run's clocks, stamps, and
// checksums are bit-identical to the in-process backend's (the conformance
// suite in internal/transporttest pins this). See DESIGN.md §8 for the wire
// layout and the cross-process ordering argument.
package mprun

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fompi/internal/rankio"
	"fompi/internal/segpool"
	"fompi/internal/simnet"
)

// Backend is this backend's name in FOMPI_COORD and in every JOIN.
const Backend = "mp"

const segSuffix = ".shm"

// segName names a world's segment after its directory, which is how a worker
// (told only the control socket inside it) finds it and how the sweeper pairs
// a stranded segment with its world. The sockets stay inside the directory,
// under the names they have always had (doorbells are shm.door.<rank>).
func segName(dir string) string  { return filepath.Base(dir) + segSuffix }
func sockStem(dir string) string { return filepath.Join(dir, "shm") }
func ctlPath(dir string) string  { return filepath.Join(dir, "ctl") }

// arenaCfg translates launcher options into the shared-arena header contract.
func arenaCfg(o rankio.Options) ArenaConfig {
	return ArenaConfig{
		Ranks:        o.Ranks,
		RanksPerNode: o.RanksPerNode,
		PaceWindowNs: o.PaceWindowNs,
		ArenaBytes:   o.ArenaBytes,
	}
}

// World is one worker's attachment to a multi-process world: the control-
// plane client plus the shared-memory data plane in Arena (local index ==
// global rank on this backend), implementing simnet.Transport for the
// worker's rank.
type World struct {
	*rankio.Client
	ar   *Arena
	pace *simnet.Pacer // this process's view of the arena's pace tables
}

func fileSize(st os.FileInfo, err error) any {
	if err != nil {
		return err
	}
	return st.Size()
}

// Launch creates a multi-process world — world directory, shared segment,
// control socket — and coordinates it (rankio.Coordinate). It blocks until
// every worker exits and returns nil only if all of them finished cleanly.
// Worker stdout/stderr pass through to this process.
func Launch(o rankio.Options) error {
	o.Backend = Backend
	switch {
	case o.Ranks > MaxRanks:
		return fmt.Errorf("mprun: %d ranks exceed the multi-process backend's limit of %d (use the in-process backend for large worlds)", o.Ranks, MaxRanks)
	case len(o.Hosts) != 0:
		return fmt.Errorf("mprun: a host list needs the net or hybrid backend (shared memory is one machine)")
	}
	SweepStaleWorlds(staleWorldAge)
	dir, err := os.MkdirTemp("", "fompi-mp-*")
	if err != nil {
		return fmt.Errorf("mprun: create world dir: %w", err)
	}
	defer os.RemoveAll(dir)
	ar, err := CreateArena(segName(dir), sockStem(dir), arenaCfg(o))
	if err != nil {
		return err
	}
	defer ar.Close()
	defer ar.Unlink() // a bootstrap that fails never reaches the hook's
	ln, err := net.Listen("unix", ctlPath(dir))
	if err != nil {
		return fmt.Errorf("mprun: listen control socket: %w", err)
	}
	defer ln.Close()
	// Every rank mapped the segment before it reported READY: the name has
	// served its purpose, and a launcher killed from there on strands nothing.
	// The abort verdict reaches ranks parked in the arena through the arena.
	return rankio.Coordinate(ln, o, ar.Unlink, ar.SetAbortFlagBlaming)
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
func Join(o rankio.Options) (*World, error) {
	o.Backend = Backend
	network, ctlAt, rank, err := rankio.WorkerOf(Backend, o.Ranks)
	if err != nil {
		return nil, err
	}
	if rank < 0 {
		return nil, fmt.Errorf("mprun: worker has no %s", rankio.EnvRank)
	}
	ctl, err := net.Dial(network, ctlAt)
	if err != nil {
		return nil, fmt.Errorf("mprun: dial control socket: %w", err)
	}
	cl, err := rankio.Join(ctl, o, rank, "shm")
	if err != nil {
		ctl.Close()
		return nil, err
	}
	// A rank needs nothing from the catalog, so it never waits for it: it
	// maps and binds the arena while the coordinator collects the other
	// ranks' JOINs, and reads WORLD behind its READY (Client.Ready).
	dir := filepath.Dir(ctlAt)
	ar, err := OpenArena(segName(dir), sockStem(dir), arenaCfg(o), 0)
	if err == nil {
		err = ar.Bind(rank)
	}
	if err != nil {
		ctl.Close()
		return nil, err
	}
	// An abort (local panic or coordinator broadcast) ends the arena parks of
	// every rank, carrying the verdict when there is one.
	cl.OnAbort(func() { ar.SetAbortFlagBlaming(cl.FailedRank()) })
	return &World{Client: cl, ar: ar, pace: ar.Pacer()}, nil
}

// SegmentPath returns the path this process mapped the world's segment from.
func (w *World) SegmentPath() string { return w.ar.Path() }

// Fail aborts the world and reports msg to the launcher. A failure that is
// not itself a peer-abort symptom blames this rank, so peers parked in the
// arena unwind with a typed error naming it.
func (w *World) Fail(msg string) {
	if !strings.Contains(msg, rankio.PeerAbortMsg) {
		w.NoteFailedRank(w.Rank())
	}
	w.Client.Fail(msg)
}

// ---- simnet.Transport ----

var _ simnet.Transport = (*World)(nil)

// AllocSeg carves a zeroed segment — buffer plus shadow-stamp slabs, laid
// out contiguously so the region directory needs only (offset, length) —
// from this rank's shared-memory arena, reusing a recycled segment of the
// same size when one is free.
func (w *World) AllocSeg(rank, size int) *segpool.Seg {
	if rank != w.Rank() {
		panic("mprun: AllocSeg for a foreign rank")
	}
	return w.ar.AllocSeg(rank, size)
}

// RecycleSeg returns a segment to this rank's free list (see Transport).
func (w *World) RecycleSeg(rank int, s *segpool.Seg, scrubbed bool, extra ...segpool.Range) {
	if rank != w.Rank() {
		panic("mprun: RecycleSeg for a foreign rank")
	}
	w.ar.Recycle(s, scrubbed, extra...)
}

// RegisterRegion publishes a registration in the shared directory. The
// buffer must come from AllocSeg: remote processes can only reach the shared
// segment, so arbitrary heap memory (traditional windows over user buffers)
// is rejected with a clear fault.
func (w *World) RegisterRegion(rank int, reg *simnet.Region) simnet.Key {
	if rank != w.Rank() {
		panic("mprun: RegisterRegion for a foreign rank")
	}
	return simnet.Key(w.ar.Register(rank, reg))
}

// UnregisterRegion marks a registration dead; later remote accesses fault.
func (w *World) UnregisterRegion(rank int, k simnet.Key) {
	if rank != w.Rank() {
		panic("mprun: UnregisterRegion for a foreign rank")
	}
	w.ar.Unregister(rank, uint32(k))
}

// LookupRegion resolves an address, materializing (and caching) a local view
// of the owner's registration (see Arena.Lookup; on this backend local index
// and world rank coincide).
func (w *World) LookupRegion(a simnet.Addr) *simnet.Region {
	if a.Rank < 0 || a.Rank >= w.Size() {
		panic(fmt.Sprintf("simnet: address names rank %d outside fabric of %d", a.Rank, w.Size()))
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
	return w.ar.Door().Wait(w.ar.Port(rank), rank, w.Rank(), gen)
}
