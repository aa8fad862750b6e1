//go:build !windows

package transporttest

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"fompi/internal/mprun"
	"fompi/internal/rankio"
	"fompi/internal/simnet"
	"fompi/internal/spmd"
)

// What a world may leave behind: nothing. Every cross-process world — clean,
// or with a rank SIGKILLed mid-body — must end with no fompi-mp-* / fompi-hyb-*
// entry in either root: not the segment (whose name must already be gone
// while the body runs: the creator unlinks it once every rank that maps it is
// past Ready), not a world directory. A doorbell socket must not exist even
// while the body runs: host-mates wake through the segment alone.

// worldEntries lists the fompi-mp-* / fompi-hyb-* entries of every root.
func worldEntries() map[string]bool {
	found := map[string]bool{}
	for _, pat := range []string{"fompi-mp-*", "fompi-hyb-*"} {
		for _, p := range mprun.GlobRoots(pat) {
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

// checkSegmentUnlinked asserts, from inside a body, that the name of the
// segment this rank mapped is gone. The barrier puts every creator past its
// own Ready, which is where it unlinks.
func checkSegmentUnlinked(p *spmd.Proc) {
	p.Barrier()
	sp, ok := p.Fabric().(interface{ SegmentPath() string })
	if !ok {
		return // no segment on this backend
	}
	path := sp.SegmentPath()
	check(path != "", "rank %d: backend reports no segment path", p.Rank())
	_, err := os.Lstat(path)
	check(errors.Is(err, fs.ErrNotExist), "rank %d: segment %s still has its name after Ready (%v)", p.Rank(), path, err)
}

// checkNoDoorbells asserts, from inside a body, that no doorbell socket — a
// *.door.* path — exists in either root or in a world directory under
// os.TempDir().
func checkNoDoorbells(p *spmd.Proc) {
	var found []string
	for _, pat := range []string{"*.door.*", filepath.Join("fompi-mp-*", "*.door.*")} {
		found = append(found, mprun.GlobRoots(pat)...)
	}
	check(len(found) == 0, "rank %d: doorbell paths exist while the world runs: %v", p.Rank(), found)
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
			checkSegmentUnlinked(p)
			checkNoDoorbells(p)
			// The mapping outlives its name.
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
// and the survivors and the launcher must do it for it.
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
				checkSegmentUnlinked(p)
				if p.Rank() == 1 {
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
				p.EP().WaitLocal(func() bool { return reg.LocalWord(64) == 0xdead })
				panic("unreachable: the wait above can only end by abort")
			})
		})
		var re *rankio.RankError
		if !errors.As(err, &re) {
			t.Fatalf("%s backend: world with a SIGKILLed rank returned %v, want a rankio.RankError", label, err)
		}
		assertNone("after a " + label + " world with a SIGKILLed rank")
	})
}

// TestLeakWatchSeesLeaks keeps the two tests above honest: an entry planted
// in either root after the watch began is reported.
func TestLeakWatchSeesLeaks(t *testing.T) {
	if spmd.WorkerOf() != "" {
		return
	}
	for _, root := range mprun.SegmentRoots() {
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
