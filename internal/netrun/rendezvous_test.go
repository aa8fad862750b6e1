package netrun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fompi/internal/mprun"
	"fompi/internal/rankio"
	"fompi/internal/simnet"
	"fompi/internal/sock"
	"fompi/internal/telemetry"
)

// hostListWorld runs a host-list world of o.Ranks ranks inside this
// process: the coordinator on a loopback port, and a goroutine per rank over
// a control stream the test dialed for it and hands to join by descriptor,
// as a host launcher hands a rank the stream it dialed ("net:fd:N"). The
// ranks join rankless, so join order assigns them. Each runs rank to its
// end, and hostListWorld returns the coordinator's verdict once every rank
// has returned nil; a rank's error or panic fails the test.
func hostListWorld(t *testing.T, o rankio.Options, rank func(w *World) error) error {
	t.Helper()
	addr := reserveAddr(t)
	co := o
	co.Hosts, co.Listen = []string{"localhost"}, addr
	launchErr := make(chan error, 1)
	go func() { launchErr <- Launch(co) }()
	waitListening(t, addr)
	errs := make(chan error, o.Ranks)
	for range o.Ranks {
		ctl, err := sock.Dial("tcp", addr, time.Second)
		if err != nil {
			t.Fatalf("dial coordinator: %v", err)
		}
		fd, err := syscall.Dup(int(ctl.(*os.File).Fd()))
		ctl.Close()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer func() {
				if r := recover(); r != nil {
					errs <- errFromPanic(r)
				}
			}()
			w, err := join(o, strconv.Itoa(fd), -1)
			if err == nil {
				err = rank(w)
			}
			errs <- err
		}()
	}
	for range o.Ranks {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("rank: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("ranks did not finish")
		}
	}
	select {
	case err := <-launchErr:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not return after every rank ended")
		return nil
	}
}

// TestHostListRendezvous exercises the host-list bootstrap path end to end
// inside one process: the coordinator runs in wait-join mode (Hosts set, so
// it spawns nothing), and two ranks join without FOMPI_RANK over streams
// dialed for them — the coordinator must assign ranks in join order,
// broadcast the catalog, run the READY/GO barrier, and carry one real
// put-and-flag exchange over loopback TCP before the DONE/BYE teardown.
func TestHostListRendezvous(t *testing.T) {
	var mu sync.Mutex
	ranks := map[int]bool{}
	err := hostListWorld(t, rankio.Options{Backend: BackendNet, Ranks: 2, RanksPerNode: 1}, func(w *World) error {
		ep := simnet.NewEndpoint(w, w.Rank(), simnet.FoMPI())
		reg := ep.Register(64)
		if err := w.Ready(); err != nil {
			return err
		}
		mu.Lock()
		ranks[w.Rank()] = true
		mu.Unlock()
		peer := 1 - w.Rank()
		ep.StoreW(simnet.Addr{Rank: peer, Key: reg.Key(), Off: 0}, uint64(w.Rank())+1)
		ep.WaitLocal(func() bool { return reg.LocalWord(0) == uint64(peer)+1 })
		w.Finish()
		return nil
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if !ranks[0] || !ranks[1] {
		t.Fatalf("join-order assignment produced ranks %v, want {0, 1}", ranks)
	}
}

// TestHostLaunchersHybrid runs a host-list hybrid world as an operator runs
// one, on loopback: a coordinator, and two host launchers under distinct
// host keys, each starting two ranks (this test binary re-run as a worker)
// over streams it dialed. Each group maps the one arena its launcher made
// and passed down; a put to a host-mate crosses no wire, and one to the
// other host does; and nothing appears under $TMPDIR, nor a name of ours in
// /dev/shm, while the world runs. The shared-memory directory is the host's,
// where only names of this project's pattern (fompi-*, *.door.*) are ours
// to judge.
func TestHostLaunchersHybrid(t *testing.T) {
	o := rankio.Options{Backend: BackendHybrid, Ranks: 4, RanksPerNode: 2, ArenaBytes: 1 << 20}
	if os.Getenv(rankio.EnvCoord) != "" {
		hybridRank(o)
		return
	}
	t.Setenv("TMPDIR", t.TempDir())
	entries := func() map[string]bool {
		all := map[string]bool{}
		for _, dir := range []string{"/dev/shm", os.TempDir()} {
			ents, _ := os.ReadDir(dir)
			for _, e := range ents {
				n := e.Name()
				if dir == "/dev/shm" && !strings.HasPrefix(n, "fompi-") && !strings.Contains(n, ".door.") {
					continue
				}
				all[filepath.Join(dir, n)] = true
			}
		}
		return all
	}
	before := entries()
	addr := reserveAddr(t)
	co := o
	co.Hosts, co.Listen = []string{"hostA", "hostB"}, addr
	launchErr := make(chan error, 1)
	go func() { launchErr <- Launch(co) }()
	host := o
	host.Ranks, host.Relaunch, host.TagOutput = 2, []string{os.Args[0], "-test.run=^TestHostLaunchersHybrid$"}, true
	hostErr := make(chan error, 2)
	for _, key := range []string{"hostA", "hostB"} {
		go func() { hostErr <- launchHost(host, addr, key) }()
	}
	named := map[string]bool{}
	deadline := time.After(60 * time.Second)
	for ended := 0; ended < 3; {
		select {
		case err := <-launchErr:
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			ended++
		case err := <-hostErr:
			if err != nil {
				t.Fatalf("host launcher: %v", err)
			}
			ended++
		case <-time.After(5 * time.Millisecond):
			for p := range entries() {
				if !before[p] {
					named[p] = true
				}
			}
		case <-deadline:
			t.Fatal("the world did not end")
		}
	}
	if len(named) != 0 {
		t.Errorf("a host-list hybrid world named %v", named)
	}
}

// hybridRank is one rank of TestHostLaunchersHybrid's world: it must map its
// group's inherited two-rank arena, and each of its puts must cross the
// wire exactly when its target is on the other host.
func hybridRank(o rankio.Options) {
	telemetry.SetEnabled(true)
	w, err := Join(o)
	if err != nil {
		panic(err)
	}
	defer func() {
		if r := recover(); r != nil {
			w.Fail(fmt.Sprint(r))
			panic(r)
		}
	}()
	me := w.Rank()
	if w.ar == nil || w.ar.Ranks() != 2 {
		panic(fmt.Sprintf("rank %d maps arena %v, want its host's two-rank arena", me, w.ar))
	}
	ep := simnet.NewEndpoint(w, me, simnet.FoMPI())
	reg := ep.Register(64)
	if err := w.Ready(); err != nil {
		panic(err)
	}
	for peer := range o.Ranks {
		if peer == me {
			continue
		}
		before := telemetry.Capture(-1).Counters["net.batches"]
		ep.PutNB(simnet.Addr{Rank: peer, Key: reg.Key(), Off: 8 * me}, binary.LittleEndian.AppendUint64(nil, uint64(me)+1))
		ep.Gsync()
		frames := telemetry.Capture(-1).Counters["net.batches"] - before
		if mate := w.Hosts()[peer] == w.Hosts()[me]; mate != (frames == 0) {
			panic(fmt.Sprintf("rank %d: a put to rank %d (host %s, this rank's %s) cost %d wire frames", me, peer, w.Hosts()[peer], w.Hosts()[me], frames))
		}
	}
	ep.WaitLocal(func() bool {
		for r := range o.Ranks {
			if r != me && reg.LocalWord(8*r) != uint64(r)+1 {
				return false
			}
		}
		return true
	})
	w.Finish()
}

// TestSpawnedRankExitBeforeJoin: on every backend, a spawned world whose
// ranks exit before JOIN — the test binary running no test — fails at once
// with a *RankError naming a rank that exited with status 0 before JOIN, not
// when its join timeout runs out.
func TestSpawnedRankExitBeforeJoin(t *testing.T) {
	for _, b := range []string{BackendMP, BackendNet, BackendHybrid} {
		o := rankio.Options{Backend: b, Ranks: 4, RanksPerNode: 2, JoinTimeout: 5 * time.Second,
			Relaunch: []string{os.Args[0], "-test.run=^$"}, TagOutput: true}
		start := time.Now()
		err := Launch(o)
		took := time.Since(start)
		var re *rankio.RankError
		if !errors.As(err, &re) || re.Rank < 0 || !strings.Contains(err.Error(), fmt.Sprintf("rank %d: exited with status 0 before JOIN", re.Rank)) {
			t.Errorf("%s: Launch returned %v, want a *RankError naming a rank that exited with status 0 before JOIN", b, err)
		}
		if took > 2*time.Second {
			t.Errorf("%s: the early exit was named after %v, want within 2s", b, took)
		}
	}
}

// TestJoinOverInheritedDescriptorsOpensNoWire pins the boot of a world whose
// launcher put every rank on one key: a Join handed a control stream and an
// arena by descriptor maps the arena and is done — no TCP listener, no
// session table, and not one goroutine started (the accept loop would be
// one), which is where an mp Join has always left the count — and closes the
// arena's descriptor. The launcher half runs in this process and spawns
// nothing (it is handed no child ends); dups stand in for the inherited
// descriptors. It starts once Join has returned, so that its own goroutines
// stay out of the count: the JOIN waits in the stream until it reads it.
func TestJoinOverInheritedDescriptorsOpensNoWire(t *testing.T) {
	o := rankio.Options{Backend: BackendMP, Ranks: 1, RanksPerNode: 1, ArenaBytes: 1 << 20}
	mem, err := mprun.CreateAnon(arenaCfg(o, o.Ranks))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	streams, kids, err := sock.Pairs(1)
	if err != nil {
		t.Fatal(err)
	}
	fds := make([]int, 2)
	for i, f := range []*os.File{kids[0], mem} {
		if fds[i], err = syscall.Dup(int(f.Fd())); err != nil {
			t.Fatal(err)
		}
	}
	kids[0].Close()
	t.Setenv(rankio.EnvCoord, fmt.Sprintf("%s:%s:%d,%d", BackendMP, rankio.Inherited, fds[0], fds[1]))
	t.Setenv(rankio.EnvRank, "0")

	// The count must first hold still: an earlier spawning test's output
	// taggers (its ranks' "PASS" lines stay out of this test's stdout only
	// tagged) return just after their process is reaped.
	before := runtime.NumGoroutine()
	for end := time.Now().Add(time.Second); time.Now().Before(end); {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	w, err := Join(o)
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("Join over inherited descriptors took the process from %d goroutines to %d", before, n)
	}
	launchErr := make(chan error, 1)
	go func() { launchErr <- rankio.CoordinateInherited(o, streams, nil, nil) }()
	if w.ln != nil || w.sessions != nil || w.rsess != nil || w.peers != nil {
		t.Errorf("Join over inherited descriptors built a wire: listener %v, %d sessions, %d peers", w.ln, len(w.rsess), len(w.peers))
	}
	if w.ar == nil || w.Pacer() != nil {
		t.Errorf("arena %v, pacer %v: want the launcher's anonymous arena and, unpaced, no pacer", w.ar, w.Pacer())
	}
	if _, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fds[1]), syscall.F_GETFD, 0); e != syscall.EBADF {
		t.Errorf("the arena's inherited descriptor is still open after Join (%v)", e)
	}
	if err := w.Ready(); err != nil {
		t.Fatal(err)
	}
	w.Finish()
	select {
	case err := <-launchErr:
		if err != nil {
			t.Fatalf("launcher: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("launcher did not return after DONE")
	}
}

func errFromPanic(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return &panicErr{r}
}

type panicErr struct{ v any }

func (p *panicErr) Error() string { return "panic: " + sprint(p.v) }

func sprint(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return "non-string panic value"
}
