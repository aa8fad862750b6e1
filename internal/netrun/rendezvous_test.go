package netrun

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"fompi/internal/rankio"
	"fompi/internal/simnet"
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

// TestJoinOverUnixSocketOpensNoWire pins the boot of a world whose launcher
// put every rank on one key: a Join that finds a Unix control socket maps the
// arena the launcher made and is done — no TCP listener, no session table, and
// not one goroutine started (the accept loop would be one), which is where an
// mp Join has always left the count. The launcher half runs in this process in
// wait-join mode, so it spawns nothing.
func TestJoinOverUnixSocketOpensNoWire(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	o := rankio.Options{Backend: BackendMP, Ranks: 1, RanksPerNode: 1, ArenaBytes: 1 << 20}
	launcher := o
	launcher.Hosts = []string{"localhost"}
	launchErr := make(chan error, 1)
	go func() { launchErr <- launchMapped(launcher) }()
	var ctl []string
	for i := 0; len(ctl) == 0; i++ {
		if i > 500 {
			t.Fatal("the launcher never made its control socket")
		}
		time.Sleep(10 * time.Millisecond)
		ctl, _ = filepath.Glob(filepath.Join(os.TempDir(), "fompi-mp-*", "ctl"))
	}
	t.Setenv(rankio.EnvCoord, BackendMP+":unix:"+ctl[0])
	t.Setenv(rankio.EnvRank, "0")

	before := runtime.NumGoroutine()
	w, err := Join(o)
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("Join over a Unix control socket took the process from %d goroutines to %d", before, n)
	}
	if w.ln != nil || w.sessions != nil || w.rsess != nil || w.peers != nil {
		t.Errorf("Join over a Unix control socket built a wire: listener %v, %d sessions, %d peers", w.ln, len(w.rsess), len(w.peers))
	}
	if w.ar == nil || w.creator || w.Pacer() != nil {
		t.Errorf("arena %v (creator %v), pacer %v: want the launcher's arena and, unpaced, no pacer", w.ar, w.creator, w.Pacer())
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
