//go:build !windows

package transporttest

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"fompi/internal/faultnet"
	"fompi/internal/rankio"
	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

// The chaos half of the conformance suite: the same workloads as the clean
// tests, run under internal/faultnet's injected faults and real rank death.
// Two claims are pinned here. Transient faults — delays, torn writes,
// refused first dials, and (since the session layer) mid-stream data-plane
// resets and periodic blackholes — must be invisible to virtual time: the
// vtime workload's clocks stay bit-identical to a fault-free run, because
// recovery is pure real-time plumbing below the Transport line. Fatal
// faults (a dead control plane, a SIGKILLed rank) must tear the world down
// promptly with typed errors — never a hang, never an untyped string.

// chaosTimeouts tightens the two failure-model knobs for every chaos leg:
// they keep the fatal legs' detection latency (and so the CI job) small
// without loosening the promises under test, and the wire budget and the
// idle cutoff that follow from them (stale + 2×heartbeat = 5s) bound each
// injected blackhole stall.
const chaosTimeouts = "heartbeat=500ms,stale=4s"

// chaosLog is where the runner wants the shared fault + recovery log (CI
// uploads it as an artifact). The launcher folds it into the fault spec its
// workers inherit.
var chaosLog = flag.String("chaos.log", "", "append the chaos suite's fault + recovery log to this file")

// chaosSpec appends the shared chaos log to a fault spec when the runner
// asked for one.
func chaosSpec(base string) string {
	if *chaosLog != "" {
		return base + ",log=" + *chaosLog
	}
	return base
}

// crossLegsAtOnce runs leg once per cross-process backend, as
// eachBackendLeg does, but for legs that mostly wait out a timeout: in the
// launcher every leg runs at the same time on its own goroutine, under one
// launcher snapshot taken before the first and compared after the last, and
// budget bounds them all, so a failure-detection bug reads as a test failure
// rather than a hung suite. A worker runs its own leg alone. A leg reports
// with t.Errorf, never t.Fatalf: it does not run on the test goroutine.
func crossLegsAtOnce(t *testing.T, name string, cfg spmd.Config, budget time.Duration, leg func(label string, cfg spmd.Config)) {
	t.Helper()
	if spmd.WorkerOf() != "" {
		eachBackendLeg(t, name, cfg, leg)
		return
	}
	left := launcherSnapshot()
	var wg sync.WaitGroup
	for _, b := range spmd.CrossBackends() {
		if !legEnabled(legLabel[b]) {
			continue
		}
		c := cfg
		c.Backend = b
		c.MPRelaunch = []string{os.Args[0], "-test.run=^" + name + "$"}
		wg.Add(1)
		go func() {
			defer wg.Done()
			leg(legLabel[b], c)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(budget):
		t.Fatalf("%s: a world never tore down (launcher still waiting after %v)", name, budget)
	}
	for _, l := range left(5 * time.Second) {
		t.Errorf("%s: the worlds left in their launcher %s", name, l)
	}
}

// chaosRun runs one backend leg in a goroutine with a hard deadline, so a
// failure-detection bug reads as a test failure rather than a hung suite.
func chaosRun(t *testing.T, label string, budget time.Duration, run func() error) (error, time.Duration) {
	t.Helper()
	start := time.Now()
	errc := make(chan error, 1)
	go func() { errc <- run() }()
	select {
	case err := <-errc:
		return err, time.Since(start)
	case <-time.After(budget):
		t.Fatalf("%s backend: world never tore down (launcher still waiting after %v)", label, budget)
		return nil, 0
	}
}

// TestKillMidRun pins crash detection: one rank is SIGKILLed mid-run — no
// FAIL line, no control-channel goodbye, just a vanished process — and the
// launcher must still exit with a typed *rankio.RankError within 10 seconds,
// with every surviving rank released from its blocked primitive. Only the
// cross-process backends run (SIGKILLing a goroutine-rank would take the
// test binary with it).
func TestKillMidRun(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	body := func(p *spmd.Proc) {
		reg, key := setupRegion(p, 128)
		ep := p.EP()
		if p.Rank() == 1 {
			// Prove the world was live, then vanish without a trace.
			ep.StoreW(simnet.Addr{Rank: 0, Key: key, Off: 0}, 1)
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
		// Survivors park on a word nothing will ever write: only failure
		// detection and abort propagation can release them.
		ep.WaitLocal(func() bool { return reg.LocalWord(64) == 0xdead })
		panic("unreachable: the wait above can only end by abort")
	}
	eachBackendLeg(t, "TestKillMidRun", cfg, func(label string, c spmd.Config) {
		if label == "in-process" {
			return
		}
		err, elapsed := chaosRun(t, label, 60*time.Second, func() error { return spmd.Run(c, body) })
		if err == nil {
			t.Fatalf("%s backend: world with a SIGKILLed rank reported success", label)
		}
		var re *rankio.RankError
		if !errors.As(err, &re) {
			t.Fatalf("%s backend: kill error %v (%T) is not a rankio.RankError", label, err, err)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("%s backend: rank death took %v to surface, want under 10s", label, elapsed)
		}
	})
}

// The transient scenarios: fixed-seed fault schedules the session layer
// must absorb without perturbing virtual time. The first injects only
// byte-level trouble (delays, torn writes, refused first dials); the
// recurring two keep re-breaking the data plane — every fresh connection is
// reset again, every conn periodically blackholes writes — so one run
// crosses the reconnect/resume/replay path many times. plane=data confines
// the conn-killing modes to the resumable streams; killing the control
// plane is the *fatal* test's job.
var chaosTransientScenarios = []struct{ name, spec string }{
	{"transient", "seed=11,delayp=0.08,delaymax=2ms,partialp=0.15,dialfailn=1"},
	{"recurring-resets", "seed=17,reseteveryn=40,plane=data"},
	{"periodic-blackholes", "seed=23,dropeveryn=60,dropfor=2,plane=data,delayp=0.05,delaymax=1ms"},
}

// TestChaosTransientVirtualTime pins the tentpole's robustness corollary:
// virtual time is invariant under transient real-time faults — including
// mid-op connection resets and blackholed writes, which the session layer
// recovers by resume-and-replay. The expected clocks come from a fault-free
// in-process run; the TCP-carrying backends then run the same workload under
// each fixed-seed fault scenario, and every rank's final virtual time must
// match bit for bit.
func TestChaosTransientVirtualTime(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	want := make([]timing.Time, cfg.Ranks)
	if err := spmd.Run(cfg, func(p *spmd.Proc) {
		reg, key := setupRegion(p, 1024)
		want[p.Rank()] = vtimeWorkload(p, key, reg)
	}); err != nil {
		t.Fatalf("fault-free reference run: %v", err)
	}
	// A worker process serves exactly one world of one scenario: it must
	// keep the fault spec it inherited from its launcher (not rewind the
	// matrix to scenario one) and stop after its single backend leg — a
	// second spmd.Run would try to re-join a coordinator that is done.
	worker := spmd.WorkerOf() != ""
	if !worker {
		t.Setenv(rankio.EnvTimeouts, chaosTimeouts)
	}
	for _, sc := range chaosTransientScenarios {
		if !worker {
			t.Setenv(faultnet.EnvVar, chaosSpec(sc.spec))
		}
		eachBackendLeg(t, "TestChaosTransientVirtualTime", cfg, func(label string, c spmd.Config) {
			if label == "in-process" || label == "multi-process" {
				return // no TCP: nothing to inject
			}
			if err := spmd.Run(c, func(p *spmd.Proc) {
				reg, key := setupRegion(p, 1024)
				got := vtimeWorkload(p, key, reg)
				check(got == want[p.Rank()],
					"rank %d virtual time %d under %s faults on the %s backend, %d fault-free",
					p.Rank(), got, sc.name, label, want[p.Rank()])
			}); err != nil {
				t.Fatalf("%s backend under %s faults: %v", label, sc.name, err)
			}
		})
		if worker {
			break
		}
	}
}

// TestChaosFatalTeardown pins the other half of the fault split: a fault
// the protocol cannot retry must end in a prompt, typed teardown — the
// launcher returns *rankio.RankError and no rank is left hanging — not in a
// stall or an unclassified crash. Since the session layer made data-plane
// resets survivable, the unretryable fault is a dead *control* plane: the
// spec resets every connection (plane=all) after a small op budget, so the
// heartbeat traffic kills the coordinator↔worker streams a few seconds
// after GO while the ranks sit parked on a wait only an abort can release.
func TestChaosFatalTeardown(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	body := func(p *spmd.Proc) {
		reg, _ := setupRegion(p, 1024)
		// Park forever: teardown must come from failure detection, never
		// from the workload winning a race against the injected faults.
		p.EP().WaitLocal(func() bool { return reg.LocalWord(64) == 0xdead })
		panic("unreachable: the wait above can only end by abort")
	}
	if spmd.WorkerOf() == "" {
		t.Setenv(rankio.EnvTimeouts, chaosTimeouts)
	}
	eachBackendLeg(t, "TestChaosFatalTeardown", cfg, func(label string, c spmd.Config) {
		if label == "in-process" || label == "multi-process" {
			return // no TCP: nothing to reset
		}
		// Setenv inside the leg: the reference-free test still must not
		// leak resets into another leg's bootstrap on a worker re-run.
		t.Setenv(faultnet.EnvVar, chaosSpec("seed=5,resetafter=20"))
		err, elapsed := chaosRun(t, label, 60*time.Second, func() error { return spmd.Run(c, body) })
		if err == nil {
			t.Fatalf("%s backend: control plane reset mid-run, yet the world reported success", label)
		}
		var re *rankio.RankError
		if !errors.As(err, &re) {
			t.Fatalf("%s backend: fatal-fault error %v (%T) is not a rankio.RankError", label, err, err)
		}
		if elapsed > 30*time.Second {
			t.Fatalf("%s backend: control-plane death took %v to surface, want well under the chaos budget", label, elapsed)
		}
	})
}

// TestStoppedRank pins liveness detection on every cross-process backend: one
// rank SIGSTOPs itself mid-body — alive to the kernel, its control stream
// open, but answering nothing. The coordinator's heartbeat must declare it
// dead by name within the stale budget, every survivor's blocked wait must
// unwind with a *simnet.ErrPeerFailed naming it, the launcher must kill what
// cannot unwind and return a *rankio.RankError naming it within the abort
// grace, and nothing may be left behind. (Before the one control plane an mp
// world had no heartbeat: its launcher waited on the stopped rank forever.)
// The three worlds run at once: each spends its time waiting out the stale
// budget and the abort grace.
func TestStoppedRank(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	const victim = 1
	const abortGrace = 8 * time.Second // rankio's: abort broadcast to kill
	tm, err := rankio.ParseTimeouts(chaosTimeouts)
	if err != nil {
		t.Fatal(err)
	}
	assertNone := func(string) {}
	if spmd.WorkerOf() == "" {
		assertNone = leakWatch(t) // also gives the world a private TMPDIR: where the witnesses go
		t.Setenv(rankio.EnvTimeouts, chaosTimeouts)
	}
	// A survivor that unwound with the typed verdict leaves a witness file.
	witness := func(backend spmd.Backend, rank int) string {
		return filepath.Join(os.TempDir(), fmt.Sprintf("stopped-rank-%s-survivor-%d", backend, rank))
	}
	body := func(p *spmd.Proc) {
		// Armed before the setup: a survivor may still be draining its last
		// barrier store to the victim when the victim freezes.
		defer func() {
			e := recover()
			var pf *simnet.ErrPeerFailed
			if err, ok := e.(error); ok && errors.As(err, &pf) && pf.Rank == victim {
				os.WriteFile(witness(spmd.WorkerOf(), p.Rank()), nil, 0o600)
			}
			panic(e)
		}()
		reg, key := setupRegion(p, 128)
		ep := p.EP()
		if p.Rank() == victim {
			// Prove the world was live, then freeze.
			ep.StoreW(simnet.Addr{Rank: 0, Key: key, Off: 0}, 1)
			syscall.Kill(os.Getpid(), syscall.SIGSTOP)
		}
		// Survivors park on a word nothing will ever write: only the
		// heartbeat verdict and abort propagation can release them.
		ep.WaitLocal(func() bool { return reg.LocalWord(64) == 0xdead })
		panic("unreachable: the wait above can only end by abort")
	}
	// Stopping a goroutine-rank would stop the test binary: no in-process leg.
	crossLegsAtOnce(t, "TestStoppedRank", cfg, 60*time.Second, func(label string, c spmd.Config) {
		start := time.Now()
		err := spmd.Run(c, body)
		elapsed := time.Since(start)
		var re *rankio.RankError
		if !errors.As(err, &re) || re.Rank != victim {
			t.Errorf("%s backend: world with a stopped rank returned %v, want a rankio.RankError naming rank %d", label, err, victim)
			return
		}
		// Slack: one heartbeat tick of detection granularity plus process start and teardown.
		if budget := tm.HeartbeatStale + abortGrace + 3*time.Second; elapsed > budget {
			t.Errorf("%s backend: the stopped rank took %v to surface, want under %v (stale + abort grace)", label, elapsed, budget)
		}
		for r := 0; r < cfg.Ranks; r++ {
			if _, err := os.Stat(witness(c.Backend, r)); r != victim && err != nil {
				t.Errorf("%s backend: rank %d did not unwind with *simnet.ErrPeerFailed naming rank %d", label, r, victim)
			}
		}
	})
	assertNone("after the worlds with a stopped rank")
}

// TestStoppedPeerBehindWire pins who judges a rank's death: the coordinator,
// never a survivor's wire budget. Rank 1 SIGSTOPs itself while rank 0 loops on
// blocking Gets from it over TCP, so the requester's budget and the
// coordinator's heartbeat race for the same silence. The wire budget is
// derived from the heartbeat knobs (rankio.Timeouts.SilenceBudget), so the
// verdict reaches rank 0 first: the world's error names rank 1, and rank 0
// unwinds with a *simnet.ErrPeerFailed naming it. Only the legs whose ranks
// talk over the wire run, at the same time.
func TestStoppedPeerBehindWire(t *testing.T) {
	cfg := spmd.Config{Ranks: 2, RanksPerNode: 1}
	const victim = 1
	if spmd.WorkerOf() == "" {
		t.Setenv("TMPDIR", t.TempDir()) // where the witness goes
		t.Setenv(rankio.EnvTimeouts, chaosTimeouts)
	}
	// Rank 0 writes what it unwound with to a witness file: nothing when it
	// was the typed verdict.
	witness := func(backend spmd.Backend) string {
		return filepath.Join(os.TempDir(), fmt.Sprintf("stopped-peer-%s-survivor", backend))
	}
	body := func(p *spmd.Proc) {
		if p.Rank() != victim { // armed before the setup, as in TestStoppedRank
			defer func() {
				e := recover()
				got := fmt.Sprintf("%T: %v", e, e)
				var pf *simnet.ErrPeerFailed
				if err, ok := e.(error); ok && errors.As(err, &pf) && pf.Rank == victim {
					got = ""
				}
				os.WriteFile(witness(spmd.WorkerOf()), []byte(got), 0o600)
				panic(e)
			}()
		}
		_, key := setupRegion(p, 128)
		if p.Rank() == victim {
			syscall.Kill(os.Getpid(), syscall.SIGSTOP)
		}
		buf := make([]byte, 8)
		for {
			p.EP().Get(buf, simnet.Addr{Rank: victim, Key: key, Off: 0})
		}
	}
	crossLegsAtOnce(t, "TestStoppedPeerBehindWire", cfg, 60*time.Second, func(label string, c spmd.Config) {
		if label == "multi-process" {
			return // no wire between the two ranks
		}
		err := spmd.Run(c, body)
		var re *rankio.RankError
		if !errors.As(err, &re) || re.Rank != victim {
			t.Errorf("%s backend: world with a stopped peer returned %v, want a rankio.RankError naming rank %d", label, err, victim)
			return
		}
		if got, err := os.ReadFile(witness(c.Backend)); err != nil || len(got) != 0 {
			t.Errorf("%s backend: rank 0 unwound with %q (%v), want *simnet.ErrPeerFailed naming rank %d", label, got, err, victim)
		}
	})
}
