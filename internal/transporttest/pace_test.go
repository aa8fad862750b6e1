package transporttest

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

const (
	paceWindowNs = 20_000
	paceLeadNs   = 50 * paceWindowNs // how far the paced rank runs ahead

	// Words of rank 1 past everything tokenRing touches in the 1 KiB region.
	paceReadyOff = 792 // rank 0 is about to run ahead
	paceFlagOff  = 800 // set before rank 1 publishes past rank 0's threshold
	paceWordOff  = 808 // written only by rank 0, in the stall phase
	pacePutOff   = 816 // target of rank 0's paced put
	paceGapOff   = 856 // rank 1's longest real time between two publishes of its crawl, in ns

	// paceValveGap is the shortest freeze of the minimum a stall-valve
	// release can rest on: three reads of it at least 50 and 100 µs apart
	// (the wire refreshes its table before each park; shared tables are read
	// after it, 100 + 200 µs apart).
	paceValveGap = 150 * time.Microsecond

	// paceVerdictEnv names the file the abort world's pace-blocked rank
	// records its unwind in; workers inherit it from the launcher.
	paceVerdictEnv = "TT_PACE_VERDICT"
)

func paceCounter(name string) uint64 { return telemetry.Capture(0).Counters[name] }

// crawl advances the rank's clock by steps nanoseconds in one-nanosecond
// publishes spread evenly over at least d of real time, without sleeping:
// the minimum a pace-blocked peer folds keeps moving, so its stall valve
// stays shut, and the virtual cost does not depend on the host. It returns
// an upper bound on the longest real time between two consecutive publishes
// and when the last one began.
func crawl(ep *simnet.Endpoint, steps int, d time.Duration) (gap time.Duration, last time.Time) {
	t0 := time.Now()
	last = t0
	for i := 1; i <= steps; i++ {
		before := time.Now()
		ep.Compute(1)
		gap = max(gap, time.Since(last))
		last = before
		for time.Since(t0) < d*time.Duration(i)/time.Duration(steps) {
		}
	}
	return gap, last
}

// pacedWorkload is the flow world's body: the pacing phases, then the token
// ring. Nothing in it depends on real time except how long ranks sleep —
// rank 0 only ever addresses its node-mate, so no NIC interval is contended
// — and it returns the rank's final clock and a hash of its region.
func pacedWorkload(p *spmd.Proc) (timing.Time, uint64) {
	reg, key := setupRegion(p, 1024)
	ep := p.EP()
	mate := func(off int) simnet.Addr { return simnet.Addr{Rank: 1, Key: key, Off: off} }

	// (a) Rank 0 runs far past the window and puts. Rank 1 is the laggard:
	// once rank 0 is on its way it crawls for 30 ms, raises its flag, and
	// only then publishes a clock inside rank 0's window. The put must not
	// return before that. The one excuse is measured: the stall valve may
	// have let rank 0 go if the host froze the crawl for paceValveGap.
	const crawlNs, crawlFor = 2000, 30 * time.Millisecond
	var valve bool
	p.Barrier()
	switch p.Rank() {
	case 0:
		parks, stalls, t0 := paceCounter("pace.parks"), paceCounter("pace.stalls"), time.Now()
		ep.StoreW(mate(paceReadyOff), 1)
		ep.Compute(paceLeadNs)
		ep.Put(mate(pacePutOff), []byte("a put from far past the window"))
		// The load below is paced too and would wait the laggard out, so
		// the put's real time is taken first: the crawl began after t0.
		early := time.Since(t0) < crawlFor
		valve = paceCounter("pace.stalls") > stalls
		flag := ep.LoadW(mate(paceFlagOff)) // issued on every path: it costs virtual time
		early = early || flag != 1
		check(paceCounter("pace.parks") > parks, "rank 0 ran %d ns past the window without parking", paceLeadNs)
		check(valve || !early, "rank 0's put returned before the laggard had published past its threshold")
	case 1:
		ep.WaitLocal(func() bool { return reg.LocalWord(paceReadyOff) == 1 })
		ep.MergeStamp(reg, paceReadyOff, 8)
		gap, last := crawl(ep, crawlNs, crawlFor)
		reg.LocalWordStore(paceFlagOff, 1, ep.Now())
		ep.Compute(paceLeadNs - crawlNs)
		reg.LocalWordStore(paceGapOff, uint64(max(gap, time.Since(last))), ep.Now())
	default:
		ep.Compute(paceLeadNs)
	}
	p.Barrier()
	if p.Rank() == 0 {
		gap := time.Duration(ep.LoadW(mate(paceGapOff)))
		check(!valve || gap >= paceValveGap,
			"the stall valve released rank 0 on a moving minimum: the laggard never went longer than %v between publishes", gap)
	}

	// (b) Rank 1 parks on a word only rank 0 will write, which freezes the
	// minimum; rank 0 is pace-blocked on exactly that minimum. Only the
	// stall valve can break the cycle.
	p.Barrier()
	switch p.Rank() {
	case 0:
		stalls, t0 := paceCounter("pace.stalls"), time.Now()
		ep.Compute(paceLeadNs)
		ep.StoreW(mate(paceWordOff), 7)
		check(time.Since(t0) < 30*time.Second, "stall valve took %v to release rank 0", time.Since(t0))
		check(paceCounter("pace.stalls") > stalls, "rank 0 passed a frozen minimum without a stall-valve release")
	case 1:
		ep.WaitLocal(func() bool { return reg.LocalWord(paceWordOff) == 7 })
		ep.MergeStamp(reg, paceWordOff, 8)
	}
	p.Barrier()

	// (d) The token ring under pacing: every hand-off has the holder ahead of
	// parked ranks, so the valve meters the whole tour — in real time only.
	tokenRing(p, key, reg)
	p.Barrier()
	if p.Rank() == 1 {
		reg.LocalWordStore(paceGapOff, 0, ep.Now()) // host time: not part of the result
	}
	h := fnv.New64a()
	h.Write(reg.Bytes())
	// Every rank is past its last counter read: the world exits without a
	// STATS line nobody asked for.
	telemetry.SetEnabled(false)
	return p.Now(), h.Sum64()
}

// TestConformancePacing runs the one pacing discipline on every backend.
// flow: a rank past the window parks until the laggard catches up (a), the
// stall valve breaks a frozen-minimum cycle (b), and the final clocks and
// bytes equal the in-process world's bit for bit (d). abort: a world that
// dies while a rank is pace-blocked unwinds that rank with the abort panic
// (c). The two worlds are subtests because a worker re-executes the test up
// to the one Run of its backend.
func TestConformancePacing(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2, PaceWindowNs: paceWindowNs}
	worker := spmd.WorkerOf() != ""

	t.Run("flow", func(t *testing.T) {
		// Every process, workers included, derives the reference from an
		// in-process run of its own (see TestConformanceVirtualTime).
		type result struct {
			clock timing.Time
			sum   uint64
		}
		want := make([]result, cfg.Ranks)
		defer telemetry.SetEnabled(telemetry.On())
		telemetry.SetEnabled(true)
		if err := spmd.Run(cfg, func(p *spmd.Proc) {
			c, s := pacedWorkload(p)
			want[p.Rank()] = result{c, s}
		}); err != nil {
			t.Fatalf("in-process reference run: %v", err)
		}
		eachBackendLeg(t, "TestConformancePacing/flow", cfg, func(label string, c spmd.Config) {
			telemetry.SetEnabled(true)
			if err := spmd.Run(c, func(p *spmd.Proc) {
				c, s := pacedWorkload(p)
				w := want[p.Rank()]
				check(c == w.clock, "rank %d virtual time %d, %d in the in-process reference", p.Rank(), c, w.clock)
				check(s == w.sum, "rank %d region hash %#x, %#x in the in-process reference", p.Rank(), s, w.sum)
			}); err != nil {
				t.Fatalf("%s backend: %v", label, err)
			}
		})
	})

	t.Run("abort", func(t *testing.T) {
		const failMsg = "deliberate failure beside a pace-blocked rank"
		never := func() bool { return false }
		// Whoever built the world knows it died, outside the data plane: both
		// transports answer Aborted.
		aborted := func(p *spmd.Proc) bool { return p.Fabric().(interface{ Aborted() bool }).Aborted() }
		body := func(p *spmd.Proc) {
			_, key := setupRegion(p, 1024)
			ep := p.EP()
			p.Barrier()
			switch p.Rank() {
			case 0:
				defer func() {
					e := recover()
					verdict := fmt.Sprintf("rank 0 unwound with %v, not the abort panic", e)
					if simnet.IsAbortPanic(e) {
						verdict = "abort"
					}
					os.WriteFile(os.Getenv(paceVerdictEnv), []byte(verdict), 0o644)
					panic(e)
				}()
				for !aborted(p) { // a valve release on a starved host leads to the next block
					ep.Compute(paceLeadNs)
					ep.Put(simnet.Addr{Rank: 1, Key: key, Off: pacePutOff}, []byte("never in the window"))
				}
			case 1:
				for !aborted(p) { // a moving minimum: the valve stays shut
					crawl(ep, 10, 200*time.Microsecond)
				}
			case 2:
				time.Sleep(100 * time.Millisecond) // rank 0 is parked by now
				panic(failMsg)
			}
			ep.WaitLocal(never)
		}
		eachBackendLeg(t, "TestConformancePacing/abort", cfg, func(label string, c spmd.Config) {
			verdict := os.Getenv(paceVerdictEnv)
			if !worker {
				verdict = filepath.Join(t.TempDir(), "verdict")
				t.Setenv(paceVerdictEnv, verdict)
			}
			err := spmd.Run(c, body)
			if err == nil || !strings.Contains(err.Error(), failMsg) {
				t.Fatalf("%s backend: world error %v, want the originating %q", label, err, failMsg)
			}
			if got, _ := os.ReadFile(verdict); string(got) != "abort" {
				t.Fatalf("%s backend: pace-blocked rank's verdict %q, want an unwind by the abort panic", label, got)
			}
		})
	})
}
