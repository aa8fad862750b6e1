package transporttest

import (
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// What a world may leave behind in its launcher: nothing. eachBackendLeg takes
// a snapshot of the launching process — its goroutines and its open
// descriptors — before every cross-process leg and compares after it, whether
// the world ended clean, failed, or with a rank killed or stopped: a
// coordinator goroutine still following a dead rank's stream, a listener, an
// arena mapping's descriptor or a reaped worker's pipe that outlives the leg
// fails the test with the goroutine's stack or the descriptor's target.

var goroutineID = regexp.MustCompile(`^goroutine (\d+) \[`)

// goroutineStacks returns every goroutine's stack dump, by goroutine id. The
// signal loop os/signal starts on the first Notify (a coordinator's SIGQUIT
// handler) and keeps for the process's life is not a world's to end.
func goroutineStacks() map[string]string {
	var dump strings.Builder
	pprof.Lookup("goroutine").WriteTo(&dump, 2) // debug 2: the panic-style dump, one block a goroutine
	stacks := map[string]string{}
	for _, g := range strings.Split(dump.String(), "\n\n") {
		if m := goroutineID.FindStringSubmatch(g); m != nil && !strings.Contains(g, "os/signal.loop") {
			stacks[m[1]] = g
		}
	}
	return stacks
}

// openFDs returns what each of this process's descriptors refers to, by
// number; empty where there is no /proc to ask. The runtime's own poller
// descriptors, made on first use and kept for the process's life, are not a
// world's to close.
func openFDs() map[string]string {
	fds := map[string]string{}
	entries, _ := os.ReadDir("/proc/self/fd")
	for _, e := range entries {
		target, err := os.Readlink("/proc/self/fd/" + e.Name())
		if err != nil || target == "anon_inode:[eventpoll]" || target == "anon_inode:[eventfd]" {
			continue // the listing's own descriptor, gone again; the poller's
		}
		fds[e.Name()] = target
	}
	return fds
}

// launcherSnapshot records this process's goroutines and descriptors and
// returns the comparison: every goroutine's stack and every descriptor's
// target that appeared since and is still there once settling — teardown
// finishes asynchronously: a reader goroutine seeing its closed stream, a
// timer firing — has had settle to run.
func launcherSnapshot() (left func(settle time.Duration) []string) {
	goBefore, fdBefore := goroutineStacks(), openFDs()
	return func(settle time.Duration) (left []string) {
		var goNew, fdNew map[string]string
		for deadline := time.Now().Add(settle); ; time.Sleep(20 * time.Millisecond) {
			goNew, fdNew = goroutineStacks(), openFDs()
			for id := range goBefore {
				delete(goNew, id)
			}
			for fd, target := range fdBefore {
				if fdNew[fd] == target {
					delete(fdNew, fd)
				}
			}
			if len(goNew)+len(fdNew) == 0 || time.Now().After(deadline) {
				break
			}
		}
		for _, stack := range goNew {
			left = append(left, "a goroutine the world started:\n"+stack)
		}
		for fd, target := range fdNew {
			left = append(left, "descriptor "+fd+" -> "+target)
		}
		return left
	}
}

// TestLauncherSnapshotSeesLeaks keeps the snapshot honest: a goroutine parked
// and a file opened after it was taken are both reported, and neither once
// they are gone.
func TestLauncherSnapshotSeesLeaks(t *testing.T) {
	left := launcherSnapshot()
	stop := make(chan struct{})
	parked := make(chan struct{})
	go func() { close(parked); <-stop }()
	<-parked
	f, err := os.Open(os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(left(0), "\n")
	if !strings.Contains(got, "TestLauncherSnapshotSeesLeaks") || (len(openFDs()) != 0 && !strings.Contains(got, os.Args[0])) {
		t.Errorf("a parked goroutine and an open file went unreported:\n%s", got)
	}
	close(stop)
	f.Close()
	if got := left(5 * time.Second); len(got) != 0 {
		t.Errorf("reported after the goroutine ended and the file closed: %q", got)
	}
}
