package netrun

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"fompi/internal/mprun"
	"fompi/internal/rankio"
	"fompi/internal/simnet"
	"fompi/internal/sock"
)

// TestHostListRendezvous exercises the host-list bootstrap path end to end
// inside one process: the coordinator runs in wait-join mode (Hosts set, so
// it spawns nothing), and two worker goroutines Join without FOMPI_RANK — the
// coordinator must assign ranks in join order, broadcast the catalog,
// run the READY/GO barrier, and carry one real put-and-flag exchange over
// loopback TCP before the DONE/BYE teardown.
func TestHostListRendezvous(t *testing.T) {
	// Reserve an ephemeral port for the coordinator: workers need a dialable
	// address before Launch can report the one it bound.
	addr := reserveAddr(t)

	o := rankio.Options{Backend: BackendNet, Ranks: 2, RanksPerNode: 1, Hosts: []string{"localhost"}, Listen: addr}
	t.Setenv(rankio.EnvCoord, BackendNet+":tcp:"+addr)
	t.Setenv(rankio.EnvRank, "") // unassigned: the coordinator picks join order

	launchErr := make(chan error, 1)
	go func() { launchErr <- Launch(o) }()

	// Wait for the coordinator's listener before starting workers; the
	// coordinator ignores connections that send no JOIN line, so probing is
	// harmless.
	waitListening(t, addr)

	workerErr := make(chan error, 2)
	seen := make(chan int, 2)
	worker := func() {
		defer func() {
			if r := recover(); r != nil {
				workerErr <- errFromPanic(r)
			}
		}()
		w, err := Join(rankio.Options{Backend: BackendNet, Ranks: 2, RanksPerNode: 1})
		if err != nil {
			workerErr <- err
			return
		}
		ep := simnet.NewEndpoint(w, w.Rank(), simnet.FoMPI())
		reg := ep.Register(64)
		w.Ready()
		seen <- w.Rank()
		peer := 1 - w.Rank()
		ep.StoreW(simnet.Addr{Rank: peer, Key: reg.Key(), Off: 0}, uint64(w.Rank())+1)
		ep.WaitLocal(func() bool { return reg.LocalWord(0) == uint64(peer)+1 })
		w.Finish()
		workerErr <- nil
	}
	go worker()
	go worker()

	// A worker sends seen before its nil, so one that finishes before the
	// other's seen arrives is a success already counted toward the second
	// loop; only a non-nil error fails here.
	ranks := map[int]bool{}
	finished := 0
	for n := 0; n < 2; {
		select {
		case err := <-workerErr:
			if err != nil {
				t.Fatalf("worker failed before the barrier: %v", err)
			}
			finished++
		case r := <-seen:
			ranks[r] = true
			n++
		case <-time.After(30 * time.Second):
			t.Fatalf("rendezvous barrier did not complete")
		}
	}
	if !ranks[0] || !ranks[1] {
		t.Fatalf("join-order assignment produced ranks %v, want {0, 1}", ranks)
	}
	for ; finished < 2; finished++ {
		select {
		case err := <-workerErr:
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers did not finish")
		}
	}
	select {
	case err := <-launchErr:
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator did not return after all DONEs")
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

	before := runtime.NumGoroutine()
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
	if w.ar == nil || w.creator || w.Pacer() != nil || w.SegmentPath() != "" {
		t.Errorf("arena %v (creator %v, path %q), pacer %v: want the launcher's anonymous arena and, unpaced, no pacer",
			w.ar, w.creator, w.SegmentPath(), w.Pacer())
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
