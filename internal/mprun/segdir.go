package mprun

import (
	"os"
	"path/filepath"
)

// Where the segment lives. The arena is this tree's XPMEM — one process's
// memory in another's address space — so its bytes belong in memory: on a
// disk filesystem every first store to a page of the MAP_SHARED mapping is a
// write fault into the filesystem (block reservation, a journal handle),
// dirty window pages are queued for write-back, and each write-back
// write-protects them to fault again. A named segment (a hybrid host
// group's) is therefore a file in the host's POSIX shared-memory directory
// whenever that directory is what its name promises, and in os.TempDir()
// otherwise. An anonymous segment (an mp world's, CreateAnon) lives in no
// directory: memfd_create's file is shared memory whatever the host mounts.

// shmDir is the directory shm_open(3) itself uses.
const shmDir = "/dev/shm"

// fsInfo is what the placement rule asks of a directory.
type fsInfo struct {
	tmpfs bool   // RAM-backed: a store to a mapped page can never schedule disk I/O
	avail uint64 // bytes an unprivileged writer can still allocate
}

// segmentDir is the placement rule, the one place a segment's directory is
// decided: shmDir when stat reports it a writable tmpfs with at least total
// bytes — the whole segment — available, os.TempDir() otherwise. The room
// test is what keeps a container's 64 MiB /dev/shm from turning a large
// world's first touch into SIGBUS (tmpfs allocates at the fault, not at
// ftruncate); such a world lives where it always did.
func segmentDir(total int, stat func(dir string) (fsInfo, error)) string {
	if fi, err := stat(shmDir); err == nil && fi.tmpfs && fi.avail >= uint64(total) {
		return shmDir
	}
	return os.TempDir()
}

// SegmentRoots lists every directory the rule can answer, its preference
// first: where an opener looks for a segment its creator placed, and where
// the sweeper looks for wreckage.
func SegmentRoots() []string {
	if tmp := os.TempDir(); tmp != shmDir {
		return []string{shmDir, tmp}
	}
	return []string{shmDir}
}

// GlobRoots returns the entries matching pattern in every root.
func GlobRoots(pattern string) []string {
	var all []string
	for _, root := range SegmentRoots() {
		m, _ := filepath.Glob(filepath.Join(root, pattern))
		all = append(all, m...)
	}
	return all
}
