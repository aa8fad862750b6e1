// Package mprun is the shared-memory data plane of the process transport
// (internal/netrun): the Arena one host group of ranks maps — registered
// memory, stamp slabs, ports, wake words and the pacer's tables in one
// mmap-shared file, the paper's XPMEM-style same-node fast path made real
// (remote puts and gets are memcpys into the target's mapped segment), with
// parked host-mates woken by a futex on a word of the segment. Every
// segment is anonymous: the launcher that starts a host group's ranks — a
// spawning launcher, or one host's launcher of a host-list world — creates
// it (CreateAnon), and each rank maps the descriptor it inherited
// (MapArena). Nothing names a segment, so nothing is left to sweep however a
// world dies.
//
// Everything virtual-time lives above the Transport line in simnet.Endpoint
// and internal/timing, and the shadow-stamp arrays themselves are laid out
// inside the shared segment, so clocks, stamps, and checksums are
// bit-identical to the in-process backend's (the conformance suite in
// internal/transporttest pins this). See DESIGN.md §8 for the layout and the
// cross-process ordering argument.
package mprun
