// Package pacetest is the behavioural test of simnet.Pacer that every home
// of its tables runs: the in-process fabric over heap tables, and mprun over
// two views of one mapped arena. The cases use the backend's real hook —
// real sleeps, real pokes — so they pin what a fake cannot: that a parked
// rank is released when the laggards catch up and not before, that the stall
// valve frees it when nothing moves, and that an abort does.
package pacetest

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"fompi/internal/simnet"
	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

// World is one paced world under test. The one rank a case blocks paces
// through Blocker; every other rank publishes through Others. They are the
// same Pacer in process and two processes' views of one table on mprun.
type World struct {
	Blocker, Others *simnet.Pacer
	Abort           func()
}

// Make builds a fresh n-rank world with the given window whose rank blocker
// is the one that will park.
type Make func(t *testing.T, n int, window int64, blocker int) World

// Run runs every case against worlds from mk. A case that needs a rank to
// stay blocked keeps the minimum moving from a second goroutine and fails if
// the stall valve releases the rank regardless. The one excuse is measured,
// not presumed: the valve needs the minimum frozen across two consecutive
// heartbeats (100 + 200 µs), so only an attempt in which the host kept the
// crawling laggard from publishing for that long is repeated in a fresh
// world, and five such attempts out of five fail the case too.
func Run(t *testing.T, mk Make) {
	defer telemetry.SetEnabled(telemetry.On())
	telemetry.SetEnabled(true)
	for _, c := range []struct {
		name string
		run  func(*testing.T, Make) (starved bool)
	}{
		{"ReleaseOnCatchUp", releaseOnCatchUp},
		{"StallValve", stallValve},
		{"AbortReleases", abortReleases},
	} {
		t.Run(c.name, func(t *testing.T) {
			for try := 0; try < 5; try++ {
				if !c.run(t, mk) {
					return
				}
			}
			t.Fatal("the host starved the crawling laggard in five attempts out of five")
		})
	}
}

func stalls() uint64 { return telemetry.Capture(0).Counters["pace.stalls"] }

// valveGap is the shortest freeze of the minimum the stall valve can fire
// on: its second and third heartbeats.
const valveGap = 300 * time.Microsecond

// crawl raises rank's clock from base by a nanosecond every 20 µs of real
// time (a second of it stays inside every case's headroom) until the
// returned stop is called: the minimum moves, so the stall valve — which
// fires only on a frozen minimum — may not release a rank blocked on it. It
// yields between publishes instead of sleeping: a 50 µs sleep takes a
// millisecond on a coarse-timer host, which freezes the minimum for real.
// stop returns an upper bound on the longest real time between two
// consecutive publishes.
func crawl(p *simnet.Pacer, rank int, base int64) (stop func() time.Duration) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	var gap time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		prev, last := start, int64(0)
		for {
			select {
			case <-quit:
				gap = max(gap, time.Since(prev)) // a publish that never came is a gap too
				return
			default:
			}
			before := time.Now()
			if c := 1 + int64(before.Sub(start)/(20*time.Microsecond)); c > last {
				p.Publish(rank, timing.Time(base+c))
				gap = max(gap, time.Since(prev)) // from before the last publish to after this one
				prev, last = before, c
			}
			runtime.Gosched()
		}
	}()
	var once sync.Once
	return func() time.Duration {
		once.Do(func() { close(quit); wg.Wait() })
		return gap
	}
}

// paceAsync paces rank at t on its own goroutine and returns a channel
// closed when Pace returns.
func paceAsync(p *simnet.Pacer, rank int, t int64) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		p.Pace(rank, timing.Time(t))
		close(done)
	}()
	return done
}

// staysBlocked watches for 20 ms a Pace blocked on a minimum that crawl keeps
// moving, then stops the crawl. Pace returning within them fails the test —
// unless the stall valve released it and the crawl really was frozen for long
// enough to warrant that (starved: see Run).
func staysBlocked(t *testing.T, done <-chan struct{}, stop func() time.Duration, stalls0 uint64, why string) (starved bool) {
	t.Helper()
	select {
	case <-done:
		switch gap := stop(); {
		case stalls() == stalls0:
			t.Fatalf("Pace returned %s", why)
		case gap < valveGap:
			t.Fatalf("the stall valve released Pace %s: the laggard never went longer than %v between publishes", why, gap)
		default:
			t.Logf("the host kept the laggard from publishing for %v and the stall valve fired: repeating", gap)
		}
		return true
	case <-time.After(20 * time.Millisecond):
		stop()
		return false
	}
}

func mustRelease(t *testing.T, done <-chan struct{}, why string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("Pace still blocked %s", why)
	}
}

// releaseOnCatchUp spans three shards (64 + 64 + 2 ranks): a rank inside
// the window passes straight through, a rank beyond it stays parked while
// the laggard crawls, and it is released once every shard's minimum has
// risen past its threshold.
func releaseOnCatchUp(t *testing.T, mk Make) (starved bool) {
	const n, window, blocker, laggard = 130, 1000, 5, 2
	w := mk(t, n, window, blocker)
	for r := 0; r < n; r++ {
		w.Others.Publish(r, timing.Time(10_000+r))
	}
	w.Others.Publish(0, 50_000) // the slowest clock is now rank 1's 10 001
	mustRelease(t, paceAsync(w.Blocker, blocker, 10_001+window), "inside the window")

	for r := 0; r < n; r++ {
		if r != laggard {
			w.Others.Publish(r, 100_000)
		}
	}
	stalls0 := stalls()
	stop := crawl(w.Others, laggard, 10_002)
	defer stop()
	done := paceAsync(w.Blocker, blocker, 200_000)
	// The crawl has stopped before the catch-up (its republishes must not
	// race it back down) that lifts every rank past the blocked rank's
	// threshold.
	starved = staysBlocked(t, done, stop, stalls0, "while the window was exceeded and the minimum moving")
	for r := 0; r < n; r++ {
		if r != blocker {
			w.Others.Publish(r, 300_000)
		}
	}
	mustRelease(t, done, "after every laggard caught up")
	return starved
}

// stallValve: nobody else ever publishes, so only the frozen-minimum valve
// can release the rank.
func stallValve(t *testing.T, mk Make) (starved bool) {
	w := mk(t, 8, 100, 3)
	t0 := time.Now()
	mustRelease(t, paceAsync(w.Blocker, 3, 1_000_000), "with the minimum frozen: the stall valve never fired")
	if d := time.Since(t0); d < 350*time.Microsecond {
		t.Fatalf("stall valve released after %v, before three heartbeats (50+100+200 µs) could time out", d)
	}
	return false
}

// abortReleases: the laggard keeps moving, so the valve stays shut and only
// the abort can end the block.
func abortReleases(t *testing.T, mk Make) (starved bool) {
	w := mk(t, 4, 100, 1)
	w.Others.Publish(2, 100_000)
	w.Others.Publish(3, 100_000)
	stalls0 := stalls()
	stop := crawl(w.Others, 0, 1)
	defer stop()
	done := paceAsync(w.Blocker, 1, 1_000_000)
	starved = staysBlocked(t, done, stop, stalls0, "before the abort, despite a moving laggard")
	w.Abort()
	mustRelease(t, done, "after the world aborted")
	return starved
}
