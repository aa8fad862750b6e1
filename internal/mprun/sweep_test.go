package mprun

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"fompi/internal/sock"
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
		p := filepath.Join(root, SegName(dir))
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
		ln, err := sock.Listen("unix", CtlPath(live))
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

// TestArenaPaths: the two host groups of one catalog get distinct segments,
// another world's catalog gets others, the segment lands in one of the
// placement rule's roots under its arena's name, and after Bind it is the
// only new entry in any root: no doorbell socket, under os.TempDir() or
// anywhere else.
func TestArenaPaths(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	hosts := []string{"h0", "h0", "h1", "h1"}
	catalog := func(port int) []string {
		addrs := make([]string, len(hosts))
		for r := range addrs {
			addrs[r] = fmt.Sprintf("127.0.0.1:%d", port+r)
		}
		return addrs
	}
	// The pid keeps concurrent runs of this test out of each other's names.
	addrs := catalog(40000 + os.Getpid()%20000)
	if a, b := GroupName(addrs, hosts, "h0"), GroupName(catalog(1000), hosts, "h0"); a == b {
		t.Fatalf("two worlds' catalogs share the arena name %s", a)
	}
	entries := func() map[string]bool {
		all := map[string]bool{}
		for _, root := range SegmentRoots() {
			ents, _ := os.ReadDir(root)
			for _, e := range ents {
				all[filepath.Join(root, e.Name())] = true
			}
		}
		return all
	}
	seen := map[string]bool{}
	for _, key := range []string{"h0", "h1"} {
		name := GroupName(addrs, hosts, key)
		before := entries()
		ar, err := CreateArena(name, ArenaConfig{Ranks: 2, ArenaBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		defer ar.Close()
		defer ar.Unlink()
		ar.Bind(1, func() error { return nil })
		seg := ar.Path()
		if seen[seg] {
			t.Errorf("host group %s: segment %s collides with another group's", key, seg)
		}
		seen[seg] = true
		if filepath.Base(seg) != name || !slices.Contains(SegmentRoots(), filepath.Dir(seg)) {
			t.Errorf("host group %s: segment %s is not %s in one of %v", key, seg, name, SegmentRoots())
		}
		if st, err := os.Stat(seg); err != nil || !st.Mode().IsRegular() {
			t.Errorf("host group %s: segment %s: %v", key, seg, err)
		}
		// os.TempDir() is this test's own; the shared-memory directory is the
		// host's, where only this arena's name is ours to judge.
		for p := range entries() {
			ours := filepath.Dir(p) == os.TempDir() || strings.HasPrefix(filepath.Base(p), name)
			if !before[p] && p != seg && ours {
				t.Errorf("host group %s: %s appeared beside the segment after Bind", key, p)
			}
		}
	}
}

// TestSweepStaleArenas: an old segment is wreckage in whichever root it lies;
// a young one (a world bootstrapping) is not.
func TestSweepStaleArenas(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	old := time.Now().Add(-time.Hour)
	plant := func(dir, tag string, aged bool) string {
		t.Helper()
		p := filepath.Join(dir, fmt.Sprintf("fompi-hyb-test%d%s", os.Getpid(), tag))
		if err := os.WriteFile(p, []byte("wreckage"), 0o600); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.Remove(p) })
		if aged {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}

	var gone, kept []string
	for i, root := range SegmentRoots() {
		if _, err := os.Stat(root); err != nil {
			continue // no shared-memory directory on this host
		}
		gone = append(gone, plant(root, fmt.Sprint("old", i), true))
		kept = append(kept, plant(root, fmt.Sprint("young", i), false))
	}

	if n := SweepStaleArenas(30 * time.Minute); n < len(gone) {
		t.Errorf("sweeper removed %d segments, want at least the %d planted", n, len(gone))
	}
	for _, p := range gone {
		if _, err := os.Lstat(p); err == nil {
			t.Errorf("sweeper left %s, old and dead", p)
		}
	}
	for _, p := range kept {
		if _, err := os.Lstat(p); err != nil {
			t.Errorf("sweeper removed %s, young: %v", p, err)
		}
	}
}
