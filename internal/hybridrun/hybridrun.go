// Package hybridrun is the topology-aware transport backend: the inter-node
// world of internal/netrun, with ranks that share a physical host grouped
// onto one mmap-shared arena (internal/mprun's Arena). It is the shape of the
// paper's actual deployment — foMPI drives XPMEM mappings between same-node
// ranks and DMAPP messages between nodes — where the pure backends are the
// two halves in isolation.
//
// The rendezvous is the one control plane's (internal/rankio), over netrun's
// TCP listener and under this backend's name: every JOIN carries a host key
// ($FOMPI_NET_HOST, or the hostname), the WORLD catalog
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
// host-list mode the operator's FOMPI_COORD names the hybrid backend
// ("hybrid:tcp:host:port") and each machine exports its FOMPI_NET_HOST.
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

// Backend is this backend's name in FOMPI_COORD and in every JOIN: what keeps
// a hybrid worker out of a pure net world, and the reverse.
const Backend = "hybrid"

// arenaWait bounds how long a non-creator rank polls for the creator's arena
// file (the creator may still be between JOIN and create).
const arenaWait = 60 * time.Second

// Launch creates a hybrid world over netrun's coordinator. In loopback spawn
// mode, ranks get emulated host keys matching the virtual topology (one host
// per virtual node) unless o.HostKeys overrides the placement; in host-list
// mode each machine's workers export its FOMPI_NET_HOST.
func Launch(o rankio.Options) error {
	o.Backend = Backend
	if len(o.Hosts) == 0 && len(o.HostKeys) == 0 {
		o.HostKeys = make([]string, o.Ranks)
		for r := range o.HostKeys {
			o.HostKeys[r] = fmt.Sprintf("h%d", r/max(o.RanksPerNode, 1))
		}
	}
	err := netrun.Launch(o)
	if err != nil {
		// A rank the coordinator had to kill — stopped, wedged — could not
		// remove its doorbell socket, and was still bound to it when the
		// survivors swept.
		SweepStaleArenas(staleArenaAge)
	}
	return err
}

// staleArenaAge is how old a leftover arena segment must be before the sweeper
// touches it: far beyond any bootstrap window (the creator unlinks its segment
// at Ready, within arenaWait), so an in-flight world's is never taken for
// wreckage.
const staleArenaAge = 15 * time.Minute

// SweepStaleArenas removes what dead hybrid worlds left behind: arena segments
// in either root at least minAge old (a world that reached Ready unlinked its
// own; a younger one may be a creator between create and publish) and doorbell
// sockets under os.TempDir with nothing bound behind their inode, whatever
// their age — a socket is created bound, and a live long-running world still
// answers on its sockets however old they are. Runs best-effort at each
// creator's attach and after a failed launch; returns the number of paths
// removed.
func SweepStaleArenas(minAge time.Duration) int {
	removed := 0
	for _, p := range mprun.GlobRoots("fompi-hyb-*") {
		st, err := os.Lstat(p)
		if err != nil {
			continue
		}
		if st.Mode()&os.ModeSocket != 0 {
			if doorAlive(p) {
				continue
			}
		} else if time.Since(st.ModTime()) < minAge {
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
func Join(o rankio.Options) (*World, error) {
	o.Backend = Backend
	nw, err := netrun.Join(o)
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
	nw.OnAbort(func() { w.ar.SetAbortFlagBlaming(nw.FailedRank()) })
	return w, nil
}

// attachArena derives this rank's host group from the WORLD catalog and maps
// the group's shared arena.
func (w *World) attachArena(o rankio.Options) error {
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
		RanksPerNode: o.RanksPerNode,
		PaceWindowNs: o.PaceWindowNs,
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

// SegmentPath returns the path this process mapped its host group's segment
// from.
func (w *World) SegmentPath() string { return w.ar.Path() }

// Ready enters the bootstrap barrier (netrun's READY/GO); once it returns,
// every co-located rank has mapped the arena, so the creator unlinks the
// segment — nothing is left behind however the world later dies.
func (w *World) Ready() error {
	if err := w.World.Ready(); err != nil {
		return err
	}
	if w.creator {
		w.ar.Unlink()
	}
	return nil
}

// Finish reports clean completion and releases the arena mapping.
func (w *World) Finish() {
	w.World.Finish()
	w.ar.Close()
}

// Fail aborts the world, reports msg, and releases the arena mapping — and
// what a failing world would otherwise strand: the segment's name if the
// world died before Ready unlinked it, the doorbell sockets of ranks that died
// without closing theirs (a rank that exits on its own removes its socket
// itself; a SIGKILLed one cannot).
func (w *World) Fail(msg string) {
	w.World.Fail(msg)
	if w.creator {
		w.ar.Unlink()
	}
	w.ar.Close()
	SweepStaleArenas(staleArenaAge)
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
