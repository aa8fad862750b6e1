package mprun

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSweepStaleWorlds: the sweeper reclaims a stranded segment from either
// root once it is old and its world is dead — the directory gone, or there
// with nothing listening — and touches neither a young one nor one whose
// launcher still answers on the control socket.
func TestSweepStaleWorlds(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	old := time.Now().Add(-time.Hour)
	age := func(p string) {
		t.Helper()
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	world := func(tag string) string {
		return filepath.Join(os.TempDir(), fmt.Sprintf("fompi-mp-test-%d-%s", os.Getpid(), tag))
	}
	segment := func(root, dir string) string {
		t.Helper()
		p := filepath.Join(root, segName(dir))
		if err := os.WriteFile(p, []byte("wreckage"), 0o600); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.Remove(p) })
		return p
	}

	var gone, kept []string
	for i, root := range SegmentRoots() {
		if _, err := os.Stat(root); err != nil {
			continue // no shared-memory directory on this host
		}
		// Old, world directory gone.
		p := segment(root, world(fmt.Sprint("gone", i)))
		age(p)
		gone = append(gone, p)

		// Old, world directory there, control socket never bound.
		dead := world(fmt.Sprint("dead", i))
		if err := os.Mkdir(dead, 0o700); err != nil {
			t.Fatal(err)
		}
		p = segment(root, dead)
		age(p)
		age(dead)
		gone = append(gone, p, dead)

		// Old, launcher alive.
		live := world(fmt.Sprint("live", i))
		if err := os.Mkdir(live, 0o700); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("unix", ctlPath(live))
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		p = segment(root, live)
		age(p)
		age(live)
		kept = append(kept, p, live)

		// Dead, but young: a launch in flight looks like this.
		kept = append(kept, segment(root, world(fmt.Sprint("young", i))))
	}
	if n := SweepStaleWorlds(30 * time.Minute); n < len(gone) {
		t.Errorf("sweeper removed %d entries, want at least the %d planted", n, len(gone))
	}
	for _, p := range gone {
		if _, err := os.Lstat(p); err == nil {
			t.Errorf("sweeper left %s, old and dead", p)
		}
	}
	for _, p := range kept {
		if _, err := os.Lstat(p); err != nil {
			t.Errorf("sweeper removed %s, young or alive: %v", p, err)
		}
	}
}
