package mprun

import (
	"path/filepath"
	"testing"
	"time"

	"fompi/internal/simnet"
	"fompi/internal/simnet/pacetest"
	"fompi/internal/timing"
)

// TestPacerOverTwoViews runs the behavioural pacing cases over one arena
// mapped twice, as two processes would: the blocked rank paces through the
// view that bound its doorbell socket, every other rank publishes through
// the other, so the tables are shared words of the mapping and each release
// is a datagram from one view to the other's socket.
func TestPacerOverTwoViews(t *testing.T) {
	views := func(t *testing.T, n int, window int64, bound int) (mine, others *Arena) {
		cfg := ArenaConfig{Ranks: n, PaceWindowNs: window, ArenaBytes: pageAlign}
		path := filepath.Join(t.TempDir(), "arena")
		others, err := CreateArena(path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(others.Close)
		if mine, err = OpenArena(path, cfg, 0); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mine.Close)
		if err := mine.Bind(bound); err != nil {
			t.Fatal(err)
		}
		return mine, others
	}
	pacetest.Run(t, func(t *testing.T, n int, window int64, blocker int) pacetest.World {
		mine, others := views(t, n, window, blocker)
		return pacetest.World{Blocker: mine.Pacer(), Others: others.Pacer(), Abort: others.SetAbortFlag}
	})
	// The hook by itself: a poke through one view ends the other's park.
	mine, others := views(t, 2, 100, 1)
	if !others.sendDoor(1) {
		t.Fatal("poke through the other view was not delivered")
	}
	if !mine.pacePark(1, 5*time.Second) {
		t.Fatal("park timed out with a poke from the other view pending")
	}
	if mine.pacePark(1, time.Millisecond) {
		t.Fatal("park with nothing pending did not time out")
	}
}

// TestTwoViewsShareStampTree maps one arena twice in one process — the
// creator's view and a peer's — and checks that stamps written through either
// view read back through the other. The peer derives its stamp tree from the
// directory entry's length alone, so this holds only if both sides compute
// the same depth and level offsets over the shared slabs; the sizes put the
// root at different depths, with ragged last nodes. The rank's port is shared
// the same way: locked through one mapping it excludes through the other, and
// a ring through either is read through both.
func TestTwoViewsShareStampTree(t *testing.T) {
	cfg := ArenaConfig{Ranks: 2, ArenaBytes: 4 << 20}
	path := filepath.Join(t.TempDir(), "arena")
	owner, err := CreateArena(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	peer, err := OpenArena(path, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	owner.Unlink()

	mine, theirs := owner.Port(1), peer.Port(1)
	if mine == theirs {
		t.Fatal("the peer's port is the owner's object, not a second mapping")
	}
	mine.Lock()
	entered := make(chan struct{})
	go func() {
		theirs.Lock()
		close(entered)
	}()
	theirs.Ring() // from outside the held lock: an add, never blocked or lost
	select {
	case <-entered:
		t.Fatal("port locked through the owner's mapping did not exclude through the peer's")
	case <-time.After(20 * time.Millisecond):
	}
	if got := owner.DoorGen(1); got != 1 {
		t.Fatalf("owner reads generation %d after the peer's ring, want 1", got)
	}
	mine.UnlockRing()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("release through the owner's mapping did not admit the peer's waiter")
	}
	theirs.Unlock()
	if got := peer.DoorGen(1); got != 2 {
		t.Fatalf("peer reads generation %d after the owner's release-ring, want 2", got)
	}
	if got := owner.Port(0).Gen(); got != 0 {
		t.Fatalf("rank 0's generation is %d after rings on rank 1 only", got)
	}

	for _, size := range []int{40, 512, 24<<10 + 8, 280 << 10} {
		seg := owner.AllocSeg(0, size)
		live := simnet.RegionLive
		reg := simnet.MakeRegion(0, 0, seg.Buf, seg.St, owner.Port(0), &live)
		key := owner.Register(0, &reg)
		mine, theirs := seg.St, peer.Lookup(0, key, 0).Stamps()
		if mine == theirs {
			t.Fatalf("size %d: the peer's view is the owner's object, not a second mapping", size)
		}

		// A fill through the owner's view, unaligned at both ends, then a
		// word write inside it through the peer's.
		off, n := 8, size-16
		mine.SetRange(off, n, 100)
		theirs.Set(off+8, 200)
		for _, v := range []struct {
			name string
			st   *timing.Stamps
		}{{"owner", mine}, {"peer", theirs}} {
			if got := v.st.Get(0); got != 0 {
				t.Errorf("size %d %s view: Get(0) = %d before the fill's first word, want 0", size, v.name, got)
			}
			if got := v.st.Get(off); got != 100 {
				t.Errorf("size %d %s view: Get(%d) = %d, want the fill's 100", size, v.name, off, got)
			}
			if got := v.st.Get(off + n - 1); got != 100 {
				t.Errorf("size %d %s view: Get at the fill's last byte = %d, want 100", size, v.name, got)
			}
			if got := v.st.Get(off + 8); got != 200 {
				t.Errorf("size %d %s view: Get(%d) = %d, want the word write's 200", size, v.name, off+8, got)
			}
			if got := v.st.MaxRange(0, size); got != 200 {
				t.Errorf("size %d %s view: MaxRange over the region = %d, want 200", size, v.name, got)
			}
			if got := v.st.MaxRange(off+16, n-16); got != 100 {
				t.Errorf("size %d %s view: MaxRange past the word write = %d, want 100", size, v.name, got)
			}
		}

		// And the other way round: the peer fills, the owner reads.
		theirs.SetRange(0, size, 300)
		if got := mine.MaxRange(0, size); got != 300 {
			t.Errorf("size %d: owner reads MaxRange %d after the peer's whole-region fill, want 300", size, got)
		}
		if got := mine.Get(off + 8); got != 300 {
			t.Errorf("size %d: owner reads Get %d under the peer's fill, want 300", size, got)
		}
	}
}
