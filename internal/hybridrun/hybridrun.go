// Package hybridrun is the topology-aware transport backend: the inter-node
// world of internal/netrun, with ranks that share a physical host grouped
// onto one mmap-shared arena (internal/mprun's Arena). It is the shape of the
// paper's actual deployment — foMPI drives XPMEM mappings between same-node
// ranks and DMAPP messages between nodes — where the pure backends are the
// two halves in isolation.
//
// The rendezvous rides netrun's coordinator: every JOIN carries a host key
// (Options.Net.HostKey, $FOMPI_NET_HOST, or the hostname), the WORLD catalog
// broadcasts all of them, and each rank derives its host group locally — the
// ranks with its key, in ascending rank order, become the local indices of
// one per-host arena segment named after the (world-unique) address catalog
// and placed by mprun's rule (the shared-memory directory when it is a tmpfs
// with room, os.TempDir() otherwise). The lowest co-located rank creates the
// arena; the rest map it; the creator unlinks it once the GO barrier proves
// everyone has.
//
// Data-plane routing is by host group: a co-located peer's region resolves
// through the arena — direct loads and stores on shared buffers and stamp
// slabs, exactly the mmap backend's fast path, which is what makes
// Endpoint.Shared (MPI-3 shared-memory windows) work across processes — and
// an off-host peer's region resolves to netrun's wire proxy with fused
// one-message execution. Ports are unified per rank: each rank's port — its
// doorbell generation, its NIC interval and the lock over both — is its slot
// in the host group's arena; co-located ranks take it, ring it and wait on
// it directly, and off-host operations, rings and waits arriving over the
// wire land on the same slot and the arena's door (netrun.World.SetDoor), so
// a co-located issuer and the owner's service loop book one NIC interval and
// a co-located writer's ring reaches an off-host waiter. Pacing is
// netrun's inherited Pacer: every process keeps its own last-known clock
// table, fed by the wire. Virtual times remain bit-identical to every other
// backend (internal/transporttest pins this).
//
// In loopback spawn mode the launcher assigns rank r the host key
// "h<r/RanksPerNode>": the emulated placement matches the virtual topology,
// so same-(virtual-)node ranks share an arena and cross-node ranks exercise
// the wire — both paths of a real multi-host deployment on one machine. In
// host-list mode the operator exports FOMPI_HYB_WORLD=1 and a per-host
// FOMPI_NET_HOST alongside netrun's variables.
package hybridrun

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"fompi/internal/mprun"
	"fompi/internal/netrun"
	"fompi/internal/rankio"
	"fompi/internal/segpool"
	"fompi/internal/simnet"
)

const (
	// envWorld marks a process as a hybrid worker. netrun's environment alone
	// cannot: a hybrid worker also satisfies netrun.IsWorker, and launch-path
	// dispatch (spmd.Run, the conformance harness) must tell them apart.
	envWorld = "FOMPI_HYB_WORLD"

	// arenaWait bounds how long a non-creator rank polls for the creator's
	// arena file (the creator may still be between JOIN and create).
	arenaWait = 60 * time.Second
)

// Options describes a hybrid world: the inter-node rendezvous plus the
// per-host arena size.
type Options struct {
	// Net is the inter-node world (coordinator, ranks, pacing). Launch marks
	// the spawned workers with FOMPI_HYB_WORLD=1 through Net.ExtraEnv.
	Net netrun.Options
	// ArenaBytes is each rank's registered-memory arena inside its host
	// group's shared mapping (default 16 MiB).
	ArenaBytes int
}

func (o Options) withDefaults() Options {
	if o.Net.Ranks <= 0 {
		o.Net.Ranks = 1
	}
	if o.Net.RanksPerNode <= 0 {
		o.Net.RanksPerNode = 1
	}
	if o.ArenaBytes <= 0 {
		o.ArenaBytes = 16 << 20
	}
	return o
}

// IsWorker reports whether this process was launched as a worker rank of a
// hybrid world. Hybrid workers also satisfy netrun.IsWorker (the coordinator
// environment is present); dispatchers must check this predicate first.
func IsWorker() bool { return os.Getenv(envWorld) != "" }

// Launch creates a hybrid world over netrun's coordinator. In loopback spawn
// mode, ranks get emulated host keys matching the virtual topology (one host
// per virtual node) unless Options.Net.HostKeys overrides the placement; in
// host-list mode the operator's workers must export FOMPI_HYB_WORLD=1 and
// their host's FOMPI_NET_HOST.
func Launch(o Options) error {
	o = o.withDefaults()
	n := o.Net
	if len(n.Hosts) == 0 && len(n.HostKeys) == 0 {
		keys := make([]string, n.Ranks)
		for r := range keys {
			keys[r] = fmt.Sprintf("h%d", r/n.RanksPerNode)
		}
		n.HostKeys = keys
	}
	n.ExtraEnv = append(append([]string{}, n.ExtraEnv...), envWorld+"=1")
	if len(n.Hosts) != 0 {
		rankio.Logf("hybridrun", "host-list mode: also export %s=1 (and per-host %s) in each worker's environment",
			envWorld, "FOMPI_NET_HOST")
	}
	return netrun.Launch(n)
}

// staleArenaAge is how old a leftover arena segment or doorbell socket must
// be before the sweeper touches it: far beyond any bootstrap window (the
// creator unlinks its segment at Ready, within arenaWait), so an in-flight
// world's segment is never mistaken for wreckage.
const staleArenaAge = 15 * time.Minute

// SweepStaleArenas removes what hybrid worlds killed mid-bootstrap left
// behind: arena segments in either root (a world that reached Ready unlinked
// its own) and doorbell sockets under os.TempDir. A doorbell socket is
// removed only when nothing is bound behind its inode — a live long-running
// world still answers on its sockets however old they are. Runs best-effort
// at each creator's attach; returns the number of paths removed.
func SweepStaleArenas(minAge time.Duration) int {
	removed := 0
	for _, p := range mprun.GlobRoots("fompi-hyb-*") {
		st, err := os.Lstat(p)
		if err != nil || time.Since(st.ModTime()) < minAge {
			continue
		}
		if st.Mode()&os.ModeSocket != 0 && doorAlive(p) {
			continue
		}
		if os.Remove(p) == nil {
			rankio.Logf("hybridrun", "removed stale arena path %s (left by a crashed world)", p)
			removed++
		}
	}
	return removed
}

// doorAlive probes a doorbell socket path: sending a datagram to a dead
// socket's leftover inode is refused, while a live waiter's socket accepts
// it (at worst as a spurious doorbell poke, which waiters tolerate by
// design). Any error other than a connection refusal is read as "alive" —
// the sweeper must never kill a working world's doorbell.
func doorAlive(path string) bool {
	c, err := net.DialUnix("unixgram", nil, &net.UnixAddr{Name: path, Net: "unixgram"})
	if err != nil {
		return !errors.Is(err, syscall.ECONNREFUSED)
	}
	defer c.Close()
	c.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	_, err = c.Write([]byte{1})
	return !errors.Is(err, syscall.ECONNREFUSED)
}

// World is one worker's attachment to a hybrid world: the netrun world for
// everything inter-node, with the host group's arena layered over segments,
// regions, and doorbells.
type World struct {
	*netrun.World
	ar      *mprun.Arena
	local   []int // global ranks of this host group, ascending
	lidx    []int // global rank -> local index, -1 off-host
	self    int   // this rank's local index
	creator bool
}

var _ simnet.Transport = (*World)(nil)

// Join attaches a worker process to its world: the netrun rendezvous first,
// then the host group's shared arena (created by the group's lowest rank,
// mapped by the rest).
func Join(o Options) (*World, error) {
	o = o.withDefaults()
	nw, err := netrun.Join(o.Net)
	if err != nil {
		return nil, err
	}
	w := &World{World: nw}
	if err := w.attachArena(o); err != nil {
		return nil, err
	}
	// Off-host operations, rings and waits arriving over the wire must land
	// on the same port, and park at the same door, the co-located ranks take
	// directly. Installed before Ready, so no peer traffic races the handoff.
	nw.SetDoor(w.ar.Port(w.self), w.ar.Door(), w.self)
	// An abort (local panic or coordinator broadcast) must end the arena
	// parks too, in every co-located process: set the arena's flag and poke
	// every local socket. The RANKFAIL verdict rides along when there is one,
	// so ranks parked in the arena unwind with the same typed error as ranks
	// parked on the wire.
	nw.OnAbort(func() {
		if r := nw.FailedRank(); r >= 0 {
			w.ar.SetAbortFlagBlaming(r)
		} else {
			w.ar.SetAbortFlag()
		}
	})
	return w, nil
}

// attachArena derives this rank's host group from the WORLD catalog and maps
// the group's shared arena.
func (w *World) attachArena(o Options) error {
	hosts := w.World.Hosts()
	rank := w.World.Rank()
	key := hosts[rank]
	w.lidx = make([]int, len(hosts))
	for r, h := range hosts {
		w.lidx[r] = -1
		if h == key {
			w.lidx[r] = len(w.local)
			w.local = append(w.local, r)
		}
	}
	w.self = w.lidx[rank]
	w.creator = rank == w.local[0]
	name := arenaName(w.World.Addrs(), hosts, key)
	cfg := mprun.ArenaConfig{
		Ranks:        len(w.local),
		RanksPerNode: o.Net.RanksPerNode,
		PaceWindowNs: o.Net.PaceWindowNs,
		ArenaBytes:   o.ArenaBytes,
	}
	var err error
	if w.creator {
		SweepStaleArenas(staleArenaAge) // hygiene: other dead worlds' leftovers
		for _, root := range mprun.SegmentRoots() {
			os.Remove(filepath.Join(root, name)) // a leftover of a crashed world, never a live one
		}
		w.ar, err = mprun.CreateArena(name, sockStem(name), cfg)
	} else {
		w.ar, err = mprun.OpenArena(name, sockStem(name), cfg, arenaWait)
	}
	if err != nil {
		return fmt.Errorf("hybridrun: host group %q arena: %w", key, err)
	}
	if err := w.ar.Bind(w.self); err != nil {
		return fmt.Errorf("hybridrun: host group %q arena: %w", key, err)
	}
	return nil
}

// arenaName names one host group's arena: a digest of the world's address
// catalog (ephemeral ports: unique per world) plus the host key, so
// concurrent worlds on one machine never collide and a stale entry is from a
// dead world. Co-located ranks have no common parent to inherit a descriptor
// from; this name, which each derives from the catalog alone, is their
// rendezvous.
func arenaName(addrs, hosts []string, key string) string {
	sum := sha256.Sum256([]byte(strings.Join(addrs, ",") + "|" +
		strings.Join(hosts, ",") + "|" + key))
	return "fompi-hyb-" + hex.EncodeToString(sum[:6])
}

// sockStem is the stem of an arena's doorbell socket paths: under
// os.TempDir() wherever the segment lives.
func sockStem(name string) string { return filepath.Join(os.TempDir(), name) }

// reapDoors removes the doorbell sockets dead ranks of this world left under
// os.TempDir() — every host group's, since a loopback world's emulated hosts
// share one; on separate machines the other groups' paths do not exist. A
// rank that exits on its own removes its socket itself, and a SIGKILLed one
// cannot; the sweeper's age rule protects worlds it knows nothing about,
// while a world that is failing knows its own dead (same probe: a bound
// socket is left alone).
func (w *World) reapDoors() {
	addrs, hosts := w.World.Addrs(), w.World.Hosts()
	groups := map[string]int{}
	for _, h := range hosts {
		groups[h]++
	}
	for key, n := range groups {
		stem := sockStem(arenaName(addrs, hosts, key))
		for l := 0; l < n; l++ {
			if p := mprun.DoorSockPath(stem, l); !doorAlive(p) {
				os.Remove(p)
			}
		}
	}
}

// SegmentPath returns the path this process mapped its host group's segment
// from.
func (w *World) SegmentPath() string { return w.ar.Path() }

// Ready enters the bootstrap barrier (netrun's READY/GO); once it returns,
// every co-located rank has mapped the arena, so the creator unlinks the
// segment — nothing is left behind however the world later dies.
func (w *World) Ready() {
	w.World.Ready()
	if w.creator {
		w.ar.Unlink()
	}
}

// Finish reports clean completion and releases the arena mapping.
func (w *World) Finish() {
	w.World.Finish()
	w.ar.Close()
}

// Fail aborts the world, reports msg, and releases the arena mapping — and
// what a failing world would otherwise strand: the segment's name if the
// world died before Ready unlinked it, the sockets of ranks that died without
// closing theirs.
func (w *World) Fail(msg string) {
	w.World.Fail(msg)
	if w.creator {
		w.ar.Unlink()
	}
	w.ar.Close()
	w.reapDoors()
}

// ---- simnet.Transport overrides: segments and regions ----

// AllocSeg carves a registrable segment from this rank's slice of the host
// group's arena — the memory co-located peers can map — rather than the
// process heap netrun would use.
func (w *World) AllocSeg(rank, size int) *segpool.Seg {
	if rank != w.World.Rank() {
		panic("hybridrun: AllocSeg for a foreign rank")
	}
	return w.ar.AllocSeg(w.self, size)
}

// RecycleSeg returns a segment to this rank's arena free list.
func (w *World) RecycleSeg(rank int, s *segpool.Seg, scrubbed bool, extra ...segpool.Range) {
	if rank != w.World.Rank() {
		panic("hybridrun: RecycleSeg for a foreign rank")
	}
	w.ar.Recycle(s, scrubbed, extra...)
}

// RegisterRegion publishes a registration on both planes: netrun's directory
// (the service loop resolves off-host requests against it) and the arena
// directory (co-located peers map it). Both assign keys densely in
// registration order, so the two directories agree by construction; the
// assert guards the invariant every address in the world relies on.
func (w *World) RegisterRegion(rank int, reg *simnet.Region) simnet.Key {
	k := w.World.RegisterRegion(rank, reg)
	if ak := w.ar.Register(w.self, reg); ak != uint32(k) {
		panic(fmt.Sprintf("hybridrun: key divergence between wire (%d) and arena (%d) directories", k, ak))
	}
	return k
}

// UnregisterRegion marks the registration dead on both planes.
func (w *World) UnregisterRegion(rank int, k simnet.Key) {
	w.World.UnregisterRegion(rank, k)
	w.ar.Unregister(w.self, uint32(k))
}

// LookupRegion resolves an address by host group: this rank's own
// registrations resolve locally, a co-located peer's through the shared
// arena (direct loads/stores — the XPMEM path, so Endpoint.Shared works
// across these processes), an off-host peer's to netrun's wire proxy.
func (w *World) LookupRegion(a simnet.Addr) *simnet.Region {
	if a.Rank < 0 || a.Rank >= len(w.lidx) {
		panic(fmt.Sprintf("simnet: address names rank %d outside fabric of %d", a.Rank, len(w.lidx)))
	}
	if a.Rank != w.World.Rank() {
		if l := w.lidx[a.Rank]; l >= 0 {
			return w.ar.Lookup(l, uint32(a.Key), a.Rank)
		}
	}
	return w.World.LookupRegion(a)
}

// ---- simnet.Transport overrides: ports and doorbells ----
//
// Each rank has exactly one port — its slot in the host group's arena — and
// its waiters park at one door, the arena's. Co-located ranks take the port,
// ring it and wait on it directly; off-host ranks reach it over the wire,
// where the owner's service loop lands on the same slot and door, so
// same-host cross-(virtual-)node operations book the same NIC interval the
// off-host ones do.

// Port returns rank's port: its arena slot for the host group (including
// this rank), nil for an off-host rank, whose memory only proxies reach.
func (w *World) Port(rank int) *simnet.Port {
	if l := w.lidx[rank]; l >= 0 {
		return w.ar.Port(l)
	}
	return nil
}

// WakeDoor wakes the waiters parked on a host-group rank's port.
func (w *World) WakeDoor(rank int) { w.ar.Door().Wake(w.lidx[rank]) }

// RingDoorbell bumps rank's doorbell: on the arena for the host group
// (including this rank), over the wire otherwise.
func (w *World) RingDoorbell(rank int) {
	if l := w.lidx[rank]; l >= 0 {
		w.ar.Ring(l)
		return
	}
	w.World.RingDoorbell(rank)
}

// DoorGen samples rank's doorbell generation.
func (w *World) DoorGen(rank int) uint64 {
	if l := w.lidx[rank]; l >= 0 {
		return w.ar.Port(l).Gen()
	}
	return w.World.DoorGen(rank)
}

// WaitDoor blocks until rank's doorbell generation is no longer gen: at the
// arena's door for the host group, over the wire otherwise.
func (w *World) WaitDoor(waiter, rank int, gen uint64) uint64 {
	if l := w.lidx[rank]; l >= 0 {
		return w.ar.Door().Wait(w.ar.Port(l), l, w.self, gen)
	}
	return w.World.WaitDoor(waiter, rank, gen)
}
