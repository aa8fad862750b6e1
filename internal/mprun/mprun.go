// Package mprun is the shared-memory data plane of the process transport
// (internal/netrun): the Arena one host group of ranks maps — registered
// memory, stamp slabs, ports, wake words and the pacer's tables in one
// mmap-shared file, the paper's XPMEM-style same-node fast path made real
// (remote puts and gets are memcpys into the target's mapped segment), with
// parked host-mates woken by a futex on a word of the segment. An mp world's
// segment is anonymous: its launcher creates it (CreateAnon) and every rank
// maps the descriptor it inherited (MapArena). A hybrid host group, whose
// ranks have no common parent, names its segment (GroupName, CreateArena,
// OpenArena), and SweepStaleArenas reclaims what a killed group left under
// such a name.
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
	"strings"
	"time"

	"fompi/internal/rankio"
)

// GroupName names the arena of one host group of a wired world: a digest of
// the world's address catalog (ephemeral ports: unique per world) plus the
// host key, so concurrent worlds on one machine never collide and a stale
// entry is from a dead world. Co-located ranks have no common parent to
// inherit a descriptor from; this name, which each derives from the catalog
// alone, is their rendezvous.
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

// StaleAge is how old an orphaned segment must be before a sweeper touches
// it: far beyond any bootstrap window (a segment's name is gone once its
// ranks are READY), so a world in flight is never mistaken for wreckage.
const StaleAge = 15 * time.Minute

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
