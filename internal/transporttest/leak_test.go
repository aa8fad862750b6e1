//go:build !windows

package transporttest

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"fompi/internal/rankio"
	"fompi/internal/simnet"
	"fompi/internal/spmd"
)

// What a world may leave behind: nothing. Every cross-process world — clean,
// with a rank SIGKILLed mid-body, or with its launcher SIGKILLed — must end
// with no fompi-mp-* / fompi-hyb-* entry in either root. A running world names
// nothing either: its arenas are anonymous and its control streams inherited
// socketpairs. A doorbell socket must never exist: host-mates wake through
// the segment alone.

// roots are where a world could name something: the host's shared-memory
// directory, and os.TempDir().
func roots() []string { return []string{"/dev/shm", os.TempDir()} }

// globRoots returns the entries matching pattern in every root.
func globRoots(pattern string) []string {
	var all []string
	for _, root := range roots() {
		m, _ := filepath.Glob(filepath.Join(root, pattern))
		all = append(all, m...)
	}
	return all
}

// worldEntries lists the fompi-mp-* / fompi-hyb-* entries of every root.
func worldEntries() map[string]bool {
	found := map[string]bool{}
	for _, pat := range []string{"fompi-mp-*", "fompi-hyb-*"} {
		for _, p := range globRoots(pat) {
			found[p] = true
		}
	}
	return found
}

// leakWatch returns a function that fails the test if an entry that appeared
// since leakWatch was called is still there. The launcher's os.TempDir() is
// made private to the test, but the shared-memory directory is the host's:
// another package's world may be between create and Ready in it at any
// instant, so an entry counts as leaked only if it outlives a grace period no
// bootstrap needs.
func leakWatch(t *testing.T) (assertNone func(when string)) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	before := worldEntries()
	return func(when string) {
		t.Helper()
		var left map[string]bool
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
			now := worldEntries()
			if left == nil {
				left = now
			}
			for p := range left {
				if before[p] || !now[p] {
					delete(left, p)
				}
			}
			if len(left) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
		}
		for p := range left {
			t.Errorf("%s: left behind %s", when, p)
		}
	}
}

// checkNothingNamed asserts, from inside a body, that the running world names
// nothing: no fompi-mp-* or fompi-hyb-* entry and no doorbell socket
// (*.door.*) in either root, and no entry at all under os.TempDir(), which
// the launcher's leak watch made private to the test.
func checkNothingNamed(p *spmd.Proc) {
	var found []string
	for _, pat := range []string{"fompi-mp-*", "fompi-hyb-*", "*.door.*"} {
		found = append(found, globRoots(pat)...)
	}
	ents, err := os.ReadDir(os.TempDir())
	check(err == nil, "rank %d: read %s: %v", p.Rank(), os.TempDir(), err)
	for _, e := range ents {
		found = append(found, filepath.Join(os.TempDir(), e.Name()))
	}
	check(len(found) == 0, "rank %d: the running world names %v", p.Rank(), found)
}

// TestNoLeftoversClean runs a clean world on the two arena backends.
func TestNoLeftoversClean(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	assertNone := func(string) {}
	if spmd.WorkerOf() == "" {
		assertNone = leakWatch(t)
	}
	eachBackendLeg(t, "TestNoLeftoversClean", cfg, func(label string, c spmd.Config) {
		if label != "multi-process" && label != "hybrid" {
			return
		}
		if err := spmd.Run(c, func(p *spmd.Proc) {
			reg, key := setupRegion(p, 128)
			checkNothingNamed(p)
			// The unnamed mapping carries the data plane.
			p.EP().StoreW(simnet.Addr{Rank: (p.Rank() + 1) % p.Size(), Key: key, Off: 0}, uint64(p.Rank())+1)
			p.EP().WaitLocal(func() bool { return reg.LocalWord(0) != 0 })
			p.Barrier()
		}); err != nil {
			t.Fatalf("%s backend: %v", label, err)
		}
		assertNone("after a clean " + label + " world")
	})
}

// TestNoLeftoversKilled SIGKILLs a rank mid-body: it can clean nothing up,
// and the survivors and the launcher must do it for it. The verdict must name
// the rank's exit, which its control stream's end tells the coordinator at
// once, not a heartbeat gone stale: a launcher that kept a copy of a rank's
// end of an inherited stream would hear no end.
func TestNoLeftoversKilled(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	assertNone := func(string) {}
	if spmd.WorkerOf() == "" {
		assertNone = leakWatch(t)
		t.Setenv(rankio.EnvTimeouts, chaosTimeouts)
	}
	eachBackendLeg(t, "TestNoLeftoversKilled", cfg, func(label string, c spmd.Config) {
		if label != "multi-process" && label != "hybrid" {
			return
		}
		err, _ := chaosRun(t, label, 60*time.Second, func() error {
			return spmd.Run(c, func(p *spmd.Proc) {
				reg, _ := setupRegion(p, 128)
				checkNothingNamed(p)
				if p.Rank() == 1 {
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
				p.EP().WaitLocal(func() bool { return reg.LocalWord(64) == 0xdead })
				panic("unreachable: the wait above can only end by abort")
			})
		})
		var re *rankio.RankError
		if !errors.As(err, &re) || re.Rank != 1 || !strings.Contains(err.Error(), "before DONE") {
			t.Fatalf("%s backend: world with a SIGKILLed rank returned %v, want a rankio.RankError naming rank 1's exit before DONE", label, err)
		}
		assertNone("after a " + label + " world with a SIGKILLed rank")
	})
}

// launcherFlag makes this test binary the launcher
// TestNoLeftoversLauncherKilled SIGKILLs; that test alone sets it.
var launcherFlag = flag.Bool("tt.launcher", false, "run TestNoLeftoversLauncherKilled's mp launcher (set by that test)")

// TestNoLeftoversLauncherKilled SIGKILLs an mp launcher once its ranks are
// running their body, which they reach only after every rank JOINed. Nobody
// is left to clean up: the ranks must see their control streams end, unwind
// and exit within their SilenceBudget, and the world must leave nothing in
// either root.
func TestNoLeftoversLauncherKilled(t *testing.T) {
	const name = "TestNoLeftoversLauncherKilled"
	cfg := spmd.Config{Ranks: 2, RanksPerNode: 2, Backend: spmd.BackendMP,
		MPRelaunch: []string{os.Args[0], "-test.run=^" + name + "$"}}
	body := func(p *spmd.Proc) {
		reg, _ := setupRegion(p, 64)
		pidFile := filepath.Join(os.TempDir(), fmt.Sprintf("rank%d.pid", p.Rank()))
		check(os.WriteFile(pidFile+".new", []byte(strconv.Itoa(os.Getpid())), 0o600) == nil, "write pid file")
		check(os.Rename(pidFile+".new", pidFile) == nil, "publish pid file")
		p.EP().WaitLocal(func() bool { return reg.LocalWord(0) == 0xdead })
		panic("unreachable: the wait above can only end by abort")
	}
	switch {
	case spmd.WorkerOf() != "" || *launcherFlag:
		spmd.Run(cfg, body) // a rank exits inside; the launcher is killed inside
		return
	case runtime.GOOS != "linux":
		t.Skip("an mp world needs Linux")
	case !legEnabled(legLabel[spmd.BackendMP]):
		t.Skip("the multi-process leg is not enabled")
	}
	assertNone := leakWatch(t)
	t.Setenv(rankio.EnvTimeouts, chaosTimeouts)
	tm, err := rankio.ResolveTimeouts()
	if err != nil {
		t.Fatal(err)
	}
	launcher := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-tt.launcher")
	launcher.Stdout, launcher.Stderr = os.Stderr, os.Stderr
	if err := launcher.Start(); err != nil {
		t.Fatal(err)
	}
	defer launcher.Process.Kill()
	var pids []int
	for deadline := time.Now().Add(60 * time.Second); len(pids) < cfg.Ranks; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the ranks never reached their body (pids %v)", pids)
		}
		pids = pids[:0]
		for r := range cfg.Ranks {
			if b, err := os.ReadFile(filepath.Join(os.TempDir(), fmt.Sprintf("rank%d.pid", r))); err == nil {
				pid, _ := strconv.Atoi(string(b))
				pids = append(pids, pid)
			}
		}
	}
	launcher.Process.Kill()
	launcher.Wait()
	killed := time.Now()
	for _, pid := range pids {
		for !exited(pid) {
			if time.Since(killed) > tm.SilenceBudget() {
				syscall.Kill(pid, syscall.SIGKILL)
				t.Fatalf("rank process %d still runs %v after its launcher was killed", pid, tm.SilenceBudget())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	assertNone("after an mp world whose launcher was SIGKILLed")
}

// exited reports whether process pid is gone: reaped, or a zombie its new
// parent has yet to reap.
func exited(pid int) bool {
	if syscall.Kill(pid, 0) == syscall.ESRCH {
		return true
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return errors.Is(err, fs.ErrNotExist)
	}
	i := bytes.LastIndexByte(b, ')') // the state follows the parenthesized command
	return i >= 0 && i+2 < len(b) && (b[i+2] == 'Z' || b[i+2] == 'X')
}

// TestLeakWatchSeesLeaks keeps the two tests above honest: an entry planted
// in either root after the watch began is reported.
func TestLeakWatchSeesLeaks(t *testing.T) {
	if spmd.WorkerOf() != "" {
		return
	}
	for _, root := range roots() {
		if _, err := os.Stat(root); err != nil {
			continue
		}
		before := worldEntries()
		p := filepath.Join(root, "fompi-hyb-test-leakwatch")
		if err := os.WriteFile(p, nil, 0o600); err != nil {
			t.Fatal(err)
		}
		now := worldEntries()
		os.Remove(p)
		if before[p] || !now[p] {
			t.Errorf("an entry planted at %s is invisible to the leak watch", p)
		}
	}
}
