package transporttest

import (
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"fompi/internal/spmd"
)

// What a world may leave behind in its launcher: nothing. eachBackendLeg takes
// a snapshot of the launching process — its goroutines and its open
// descriptors — before every cross-process leg and compares after it, whether
// the world ended clean, failed, or with a rank killed or stopped: a
// coordinator goroutine still following a dead rank's stream, a listener, an
// arena mapping's descriptor or a reaped worker's pipe that outlives the leg
// fails the test with the goroutine's stack or the descriptor's target.

var goroutineID = regexp.MustCompile(`^goroutine (\d+) \[`)

// goroutineStacks returns every goroutine's stack dump, by goroutine id. Two
// kinds are not a world's to end: the signal loop os/signal starts on the
// first Notify (a coordinator's SIGQUIT handler) and keeps for the process's
// life, and an idle rank worker, which an in-process world leaves parked for
// the next one. A worker still running a rank body is reported.
func goroutineStacks() map[string]string {
	var dump strings.Builder
	pprof.Lookup("goroutine").WriteTo(&dump, 2) // debug 2: the panic-style dump, one block a goroutine
	stacks := map[string]string{}
	for _, g := range strings.Split(dump.String(), "\n\n") {
		if m := goroutineID.FindStringSubmatch(g); m != nil && !strings.Contains(g, "os/signal.loop") && !strings.Contains(g, idleWorkerFrame) {
			stacks[m[1]] = g
		}
	}
	return stacks
}

// idleWorkerFrame is the frame an idle in-process rank worker parks in.
const idleWorkerFrame = "fompi/internal/spmd.(*rankWorker).idle("

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

// TestLauncherSnapshotSeesLeaks keeps the snapshot honest: a goroutine parked,
// a file opened and an in-process rank worker still running its rank body
// after it was taken are all reported, and none once they are gone; rank
// workers an in-process world left idle are not.
func TestLauncherSnapshotSeesLeaks(t *testing.T) {
	idleWorkers := func() int {
		var dump strings.Builder
		pprof.Lookup("goroutine").WriteTo(&dump, 2)
		return strings.Count(dump.String(), idleWorkerFrame)
	}
	idle := idleWorkers()
	left := launcherSnapshot()
	// More ranks than there are idle workers, all running at once (a worker
	// whose rank returned may take another rank of the same world): the world
	// leaves new ones idle.
	spmd.MustRun(spmd.Config{Ranks: idle + 2}, func(p *spmd.Proc) { p.Barrier() })
	if n := idleWorkers(); n <= idle {
		t.Fatalf("%d idle rank workers (frame %q) before an in-process world of %d ranks, %d after", idle, idleWorkerFrame, idle+2, n)
	}
	stop := make(chan struct{})
	parked := make(chan struct{})
	go func() { close(parked); <-stop }()
	<-parked
	running := make(chan struct{})
	world := make(chan error)
	go func() {
		world <- spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
			if p.Rank() == 1 {
				close(running)
				<-stop
			}
		})
	}()
	<-running
	f, err := os.Open(os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(left(0), "\n")
	if !strings.Contains(got, "TestLauncherSnapshotSeesLeaks") || (len(openFDs()) != 0 && !strings.Contains(got, os.Args[0])) {
		t.Errorf("a parked goroutine and an open file went unreported:\n%s", got)
	}
	if !strings.Contains(got, "spmd.(*rankWorker).loop") {
		t.Errorf("a rank worker still running its rank body went unreported:\n%s", got)
	}
	close(stop)
	if err := <-world; err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := left(5 * time.Second); len(got) != 0 {
		t.Errorf("reported after the goroutines ended or went idle and the file closed: %q", got)
	}
}
