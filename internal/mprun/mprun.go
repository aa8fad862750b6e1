// Package mprun is the shared-memory data plane of the process transport
// (internal/netrun): the Arena one host group of ranks maps — registered
// memory, stamp slabs, ports, wake words and the pacer's tables in one
// mmap-shared file, the paper's XPMEM-style same-node fast path made real
// (remote puts and gets are memcpys into the target's mapped segment), with
// parked host-mates woken by a futex on a word of the segment — plus the
// names a world puts on disk and the sweepers that reclaim what a killed
// world left under them.
//
// Everything virtual-time lives above the Transport line in simnet.Endpoint
// and internal/timing, and the shadow-stamp arrays themselves are laid out
// inside the shared segment, so clocks, stamps, and checksums are
// bit-identical to the in-process backend's (the conformance suite in
// internal/transporttest pins this). See DESIGN.md §8 for the layout and the
// cross-process ordering argument.
package mprun

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fompi/internal/rankio"
	"fompi/internal/sock"
)

const segSuffix = ".shm"

// A world whose launcher spawned every rank onto one host key lives in a
// directory fompi-mp-* under os.TempDir(): SegName names its segment after
// the directory, which is how a rank (told only the control socket inside it)
// finds it and how the sweeper pairs a stranded segment with its world; the
// control socket is the directory's one entry.
func SegName(dir string) string { return filepath.Base(dir) + segSuffix }
func CtlPath(dir string) string { return filepath.Join(dir, "ctl") }

// GroupName names the arena of one host group of a world that has no such
// directory: a digest of the world's address catalog (ephemeral ports: unique
// per world) plus the host key, so concurrent worlds on one machine never
// collide and a stale entry is from a dead world. Co-located ranks have no
// common parent to inherit a descriptor from; this name, which each derives
// from the catalog alone, is their rendezvous.
//
// The digest is 64-bit FNV-1a cut to 48 bits: a name needs no cryptographic
// hash, and a crypto package would link two dozen more into every rank
// binary.
func GroupName(addrs, hosts []string, key string) string {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(addrs, ",") + "|" + strings.Join(hosts, ",") + "|" + key))
	return fmt.Sprintf("fompi-hyb-%012x", h.Sum64()>>16)
}

func fileSize(st os.FileInfo, err error) any {
	if err != nil {
		return err
	}
	return st.Size()
}

// StaleAge is how old an orphaned world directory or segment must be before a
// sweeper touches it: far beyond any bootstrap window (a segment's name is
// gone once its ranks are READY), so a world in flight is never mistaken for
// wreckage.
const StaleAge = 15 * time.Minute

// SweepStaleWorlds removes what a killed launcher left behind: world
// directories (sockets) under os.TempDir, and segments in either root whose
// launcher died before every rank was READY. A launch normally removes both,
// so anything old with a dead control socket is wreckage: an entry is removed
// only if it is at least minAge old AND nothing answers on its world's
// control socket (a live world's launcher is always listening there; a
// segment's world is the directory it is named after, and a missing directory
// answers nothing). Runs best-effort at every such launch; returns the number
// of entries removed.
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
		if c, err := sock.Dial("unix", CtlPath(dir), 100*time.Millisecond); err == nil {
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

// SweepStaleArenas removes the arena segments dead worlds' host groups left in
// either root: those at least minAge old (a world that reached Ready unlinked
// its own; a younger one may be a creator between create and publish). Runs
// best-effort at each creator's attach; returns the number of segments
// removed.
func SweepStaleArenas(minAge time.Duration) int {
	removed := 0
	for _, p := range GlobRoots("fompi-hyb-*") {
		if st, err := os.Lstat(p); err != nil || time.Since(st.ModTime()) < minAge {
			continue
		}
		if os.Remove(p) == nil {
			rankio.Logf("mprun", "removed stale arena segment %s (left by a crashed world)", p)
			removed++
		}
	}
	return removed
}
