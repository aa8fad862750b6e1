package mprun

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fompi/internal/simnet"
	"fompi/internal/simnet/doortest"
	"fompi/internal/simnet/pacetest"
	"fompi/internal/timing"
)

// placements are the ways the two-views tests obtain one arena mapped twice:
// over a file at an explicit path in the test's directory, and over an
// anonymous file each view inherits, as a host group's ranks do. Both views
// map through MapArena, the one mapper a rank has.
var placements = []struct {
	name string
	open func(t *testing.T, cfg ArenaConfig) (creator, opener *Arena)
}{
	{"explicit path", func(t *testing.T, cfg ArenaConfig) (*Arena, *Arena) {
		path := filepath.Join(t.TempDir(), "arena")
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := createOver(f, cfg); err != nil {
			t.Fatal(err)
		}
		return twoViews(t, f, cfg)
	}},
	{"anonymous", func(t *testing.T, cfg ArenaConfig) (*Arena, *Arena) {
		mem, err := CreateAnon(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mem.Close()
		return twoViews(t, mem, cfg)
	}},
}

// twoViews maps f twice, each view over a descriptor of its own.
func twoViews(t *testing.T, f *os.File, cfg ArenaConfig) (*Arena, *Arena) {
	t.Helper()
	views := make([]*Arena, 2)
	for i := range views {
		var err error
		if views[i], err = MapArena(inherit(t, f), cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(views[i].Close)
	}
	return views[0], views[1]
}

// inherit returns a descriptor of f's own, as a spawned process inherits one.
func inherit(t *testing.T, f *os.File) *os.File {
	t.Helper()
	fd, err := syscall.Dup(int(f.Fd()))
	if err != nil {
		t.Fatal(err)
	}
	return os.NewFile(uintptr(fd), "inherited")
}

// bindAborting binds a's slot under an abort state the returned abort sets,
// as a rank process binds under its control-plane client's: abort marks the
// world dead with blamed as the culprit and ends the view's parks.
func bindAborting(t *testing.T, a *Arena, slot, blamed int) (abort func()) {
	t.Helper()
	var dead atomic.Bool
	a.Bind(slot, func() error {
		if dead.Load() {
			return &simnet.ErrPeerFailed{Rank: blamed}
		}
		return nil
	})
	return func() { dead.Store(true); a.Abort() }
}

// TestPacerOverTwoViews runs the behavioural pacing cases over one arena
// mapped twice, as two processes would: the blocked rank paces through the
// view that bound its slot, every other rank publishes through the other, so
// the tables are shared words of the mapping and each release is a futex
// wake through one view of the word the other view sleeps on. The abort is
// the blocked rank's process's own.
func TestPacerOverTwoViews(t *testing.T) {
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			views := func(t *testing.T, n int, window int64, bound int) (mine, others *Arena, abort func()) {
				others, mine = pl.open(t, ArenaConfig{Ranks: n, PaceWindowNs: window, ArenaBytes: pageAlign})
				return mine, others, bindAborting(t, mine, bound, 3)
			}
			pacetest.Run(t, func(t *testing.T, n int, window int64, blocker int) pacetest.World {
				mine, others, abort := views(t, n, window, blocker)
				return pacetest.World{Blocker: mine.Pacer(), Others: others.Pacer(), Abort: abort}
			})
			// The hook by itself. A park at a sequence a poke through the
			// other view has already left does not sleep; a park asleep
			// when the other view pokes wakes; a park with nothing pending
			// times out; and once the view has aborted, a park returns at
			// once.
			mine, others, abort := views(t, 2, 100, 1)
			hook := mine.Hook()
			seq := hook.Seq(1)
			if !others.Hook().Poke(1) {
				t.Fatal("poke through the other view failed")
			}
			if t0 := time.Now(); !hook.Park(1, seq, 5*time.Second) || time.Since(t0) > time.Second {
				t.Fatalf("park at a sequence the other view's poke had left slept %v", time.Since(t0))
			}
			parked := make(chan bool, 1)
			go func() { parked <- hook.Park(1, hook.Seq(1), 30*time.Second) }()
			time.Sleep(20 * time.Millisecond)
			others.Hook().Poke(1)
			select {
			case poked := <-parked:
				if !poked {
					t.Fatal("park woken by the other view's poke reported a timeout")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a poke through the other view did not end the park")
			}
			if hook.Park(1, hook.Seq(1), time.Millisecond) {
				t.Fatal("park with nothing pending did not time out")
			}
			abort()
			if t0 := time.Now(); hook.Park(1, hook.Seq(1), 5*time.Second) || time.Since(t0) > time.Second {
				t.Fatalf("park after the abort slept %v", time.Since(t0))
			}
		})
	}
}

// TestDoorOverTwoViews runs the behavioural door cases over one arena mapped
// twice, as two processes would: waiters park through one view, bound as
// rank 0, writers ring through the other, so the port words and the wake
// words are shared words of the mapping, at a different address in each
// view, and each poke is a futex wake through the writer's. Two waiters on
// one rank are the hybrid backend's rank and service handler, asleep on that
// rank's door word. The abort is the waiters' process's own, and names the
// culprit its control plane would.
func TestDoorOverTwoViews(t *testing.T) {
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			doortest.Run(t, func(t *testing.T, n int) doortest.World {
				others, mine := pl.open(t, ArenaConfig{Ranks: n, ArenaBytes: pageAlign})
				return doortest.World{
					Waiter: doortest.View{Hook: mine.Hook(), Port: mine.Port},
					Writer: doortest.View{Hook: others.Hook(), Port: others.Port},
					Abort:  bindAborting(t, mine, 0, 3), Blamed: 3,
				}
			})
		})
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
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) { twoViewsShareStampTree(t, pl.open) })
	}
}

func twoViewsShareStampTree(t *testing.T, open func(*testing.T, ArenaConfig) (creator, opener *Arena)) {
	owner, peer := open(t, ArenaConfig{Ranks: 2, ArenaBytes: 4 << 20})

	mine, theirs := owner.Port(1), peer.Port(1)
	if mine == theirs {
		t.Fatal("the peer's port is the owner's object, not a second mapping")
	}
	mine.LockRing()
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
	if got := owner.Port(1).Gen(); got != 1 {
		t.Fatalf("owner reads generation %d after the peer's ring, want 1", got)
	}
	mine.UnlockRing()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("release through the owner's mapping did not admit the peer's waiter")
	}
	theirs.Unlock()
	if got := peer.Port(1).Gen(); got != 2 {
		t.Fatalf("peer reads generation %d after the owner's release-ring, want 2", got)
	}
	if got := owner.Port(0).Gen(); got != 0 {
		t.Fatalf("rank 0's generation is %d after rings on rank 1 only", got)
	}

	for key, size := range []int{40, 512, 24<<10 + 8, 280 << 10} {
		seg := owner.AllocSeg(0, size)
		live := simnet.Key(key).Live()
		reg := simnet.MakeRegion(0, 0, seg.Buf, seg.St, owner.Port(0), &live)
		owner.Publish(0, key, &reg)
		mine, theirs := seg.St, peer.Lookup(0, uint32(key), 0).Stamps()
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

// TestMapArena: an anonymous arena puts no entry in os.TempDir(), MapArena
// refuses one made for another world's configuration or layout version
// through its size and header checks, takes the header's rank count when
// asked for none, and closes the descriptor it was handed whatever the
// outcome: the mapping alone keeps the segment.
func TestMapArena(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	cfg := ArenaConfig{Ranks: 2, RanksPerNode: 2, ArenaBytes: pageAlign}
	mem, err := CreateAnon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if ents, _ := os.ReadDir(os.TempDir()); len(ents) != 0 {
		t.Errorf("an anonymous arena named an entry: %v", ents)
	}
	other := cfg
	other.RanksPerNode = 1
	big := cfg
	big.ArenaBytes = 2 * pageAlign
	wide := cfg
	wide.Ranks = 3
	asked := cfg
	asked.Ranks = 0
	for _, c := range []struct {
		cfg     ArenaConfig
		version uint64
		want    string
	}{
		{other, shmVersion, "ranks per node"},
		{big, shmVersion, "bytes, want"},
		{wide, shmVersion, "bytes, want"},
		// A v12 segment's mappers read a recycled directory entry's key as a
		// dead entry's state.
		{cfg, 12, "layout version 12, want 13"},
		{cfg, shmVersion, ""},
		{asked, shmVersion, ""},
	} {
		v, err := MapArena(inherit(t, mem), cfg)
		if err != nil {
			t.Fatal(err)
		}
		atomic.StoreUint64(u64at(v.m, hdrVersion), c.version)
		f := inherit(t, mem)
		a, err := MapArena(f, c.cfg)
		atomic.StoreUint64(u64at(v.m, hdrVersion), shmVersion)
		v.Close()
		switch {
		case c.want == "" && err != nil:
			t.Fatalf("MapArena of %+v: %v", c.cfg, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("MapArena of %+v, version %d: %v, want an error naming %q", c.cfg, c.version, err, c.want)
		}
		if a != nil {
			if a.Ranks() != cfg.Ranks {
				t.Errorf("MapArena of %+v maps %d ranks, want the header's %d", c.cfg, a.Ranks(), cfg.Ranks)
			}
			a.Close()
		}
		if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("MapArena left its descriptor open (%v)", err)
		}
	}
}

// TestOneWordPutStampsFirstOverTwoViews is simnet's TestOneWordPutStampsFirst
// over one arena mapped twice, as two processes would: one-word puts through
// the owner's view, a reader spinning on the word through the peer's, both
// with and without the NIC booking. A reader that sees value v must find v's
// stamp, its arrival 10·v, or a later one.
func TestOneWordPutStampsFirstOverTwoViews(t *testing.T) {
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			owner, peer := pl.open(t, ArenaConfig{Ranks: 1, ArenaBytes: pageAlign})
			live := simnet.Key(0).Live()
			for key, reserve := range []bool{true, false} {
				seg := owner.AllocSeg(0, 64)
				reg := simnet.MakeRegion(0, 0, seg.Buf, seg.St, owner.Port(0), &live)
				owner.Publish(0, key, &reg)
				view := peer.Lookup(0, uint32(key), 0)
				const puts = 200000
				stale, seen := 0, 0
				done := make(chan struct{})
				go func() {
					defer close(done)
					for last := uint64(0); last < puts; {
						if v := view.LocalWord(8); v != last {
							if seen++; view.StampMax(8, 8) < timing.Time(10*v) {
								stale++
							}
							last = v
						}
					}
				}()
				x := simnet.RegionExec{Reg: &reg}
				var src [8]byte
				for v := uint64(1); v <= puts; v++ {
					binary.LittleEndian.PutUint64(src[:], v)
					x.Put(8, src[:], reserve, timing.Time(10*v), 1)
				}
				<-done
				if stale != 0 {
					t.Errorf("reserve=%v: %d of %d values seen through the peer's view carried an earlier put's stamp", reserve, stale, seen)
				}
			}
		})
	}
}
