package simnet

import (
	"sync/atomic"
	"time"

	"fompi/internal/hostatomic"
	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

// The pacing metrics: registered here and nowhere else, whichever backend's
// hook parks the rank.
var (
	mPaceParks  = telemetry.NewCounter("pace.parks")
	mPaceParkNs = telemetry.NewHistogram("pace.park_ns")
	mPaceStalls = telemetry.NewCounter("pace.stalls")
	mPacePokes  = telemetry.NewCounter("pace.pokes")
)

const (
	// paceShardBits sizes the tracker's shards: 64 ranks per shard keeps a
	// shard rescan one cache-line-friendly sweep while the fold touches only
	// p/64 cached minimums.
	paceShardBits = 6

	// A parked rank's heartbeat: how long it sleeps before re-checking
	// whether the world still makes progress. It starts short — the
	// heartbeat doubles as the stall valve, and prompt stall release matters
	// for active-message hand-offs — and doubles to paceBeatMax so
	// long-parked ranks do not saturate the timer wheel.
	paceBeatMin = 50 * time.Microsecond
	paceBeatMax = 2 * time.Millisecond

	// paceNoClock folds above every real clock.
	paceNoClock = int64(1) << 62
)

// Pacer is conservative pacing (DESIGN.md §6.1): each rank publishes its
// virtual clock, and a rank more than the window ahead of the slowest
// published clock parks until the laggards catch up, so the real-time
// interleaving of contended-word workloads approximates virtual-time order.
// Its state is a parked-rank count and three int64 tables, all operated on
// with sync/atomic so that the ranks may be goroutines over heap tables or
// processes over one mapping:
//
//	clocks[r]  the rank's published clock
//	mins[s]    cached minimum of shard s's clocks (64 ranks a shard). It may
//	           run below the true minimum (a racing rescan stores an older
//	           result) but never above it, so pacing only ever over-waits;
//	           a rank rescans the governing shard before it parks.
//	thresh[r]  the clock the folded minimum must reach to release rank r,
//	           0 while r is not parked
type Pacer struct {
	window int64
	parked *int64
	clocks []int64
	mins   []int64
	thresh []int64
	hook   ParkHook
}

// PaceTableWords returns the length of the int64 slab a Pacer for n ranks
// lays its state over.
func PaceTableWords(n int) int { return 1 + 2*n + paceShards(n) }

func paceShards(n int) int { return (n + (1 << paceShardBits) - 1) >> paceShardBits }

// NewPacer returns the pacer of an n-rank world with the given window (> 0).
// slab is PaceTableWords(n) zeroed words that every process of the world
// maps, or nil for a world whose tables live on this process's heap; each
// process builds its own Pacer over the shared words.
func NewPacer(window int64, n int, slab []int64, hook ParkHook) *Pacer {
	if slab == nil {
		slab = make([]int64, PaceTableWords(n))
	}
	s := paceShards(n)
	return &Pacer{
		window: window, hook: hook,
		parked: &slab[0],
		clocks: slab[1 : 1+n],
		mins:   slab[1+n : 1+n+s],
		thresh: slab[1+n+s : 1+2*n+s],
	}
}

// slot is the hook slot rank sleeps under pace-blocked: n+rank, clear of
// the door's slots (ParkHook).
func (p *Pacer) slot(rank int) int { return len(p.clocks) + rank }

// Clock returns rank's published clock.
func (p *Pacer) Clock(rank int) int64 { return atomic.LoadInt64(&p.clocks[rank]) }

// Publish records rank's clock. A publisher at or below its shard's cached
// minimum was (one of) the laggard(s) the cache tracks and rescans the
// shard, so the sweep runs once per laggard operation, not once per
// blocked-rank poll. While ranks are parked every publisher rescans: racing
// rescans can leave a cache below every live clock, where no publisher
// matches the laggard test again, and each hand-off would wait out a
// heartbeat. With nobody parked a non-laggard pays a store and three loads.
func (p *Pacer) Publish(rank int, t timing.Time) {
	old := atomic.LoadInt64(&p.clocks[rank])
	atomic.StoreInt64(&p.clocks[rank], int64(t))
	p.advanced(rank, old)
}

// Observe raises rank's clock to a value learned second-hand (a wire
// piggyback, a Refresh); stale news is dropped.
func (p *Pacer) Observe(rank int, clock int64) {
	if old := p.Clock(rank); clock > old {
		hostatomic.MaxI64(&p.clocks[rank], clock)
		p.advanced(rank, old)
	}
}

// advanced repairs the shard cache after rank's clock rose from old and,
// when that raised the shard's minimum, wakes the parked ranks it released.
// The parked count is read again after the rescan has stored the minimum: a
// rank that parks in between counted itself before it folded.
func (p *Pacer) advanced(rank int, old int64) {
	s := rank >> paceShardBits
	cached := atomic.LoadInt64(&p.mins[s])
	if old > cached && atomic.LoadInt64(p.parked) == 0 {
		return
	}
	if p.rescan(s) > cached && atomic.LoadInt64(p.parked) > 0 {
		p.wake()
	}
}

// rescan recomputes shard s's cached minimum and returns it. Clocks are
// monotone, so the result never exceeds the true minimum.
func (p *Pacer) rescan(s int) int64 {
	lo := s << paceShardBits
	hi := min(lo+(1<<paceShardBits), len(p.clocks))
	m := paceNoClock
	for i := lo; i < hi; i++ {
		m = min(m, atomic.LoadInt64(&p.clocks[i]))
	}
	atomic.StoreInt64(&p.mins[s], m)
	return m
}

// fold returns the minimum over the shard caches and the shard holding it:
// O(p/64), no rescans.
func (p *Pacer) fold() (m int64, shard int) {
	m = paceNoClock
	for s := range p.mins {
		if v := atomic.LoadInt64(&p.mins[s]); v < m {
			m, shard = v, s
		}
	}
	return m, shard
}

// wake pokes every parked rank whose threshold the folded minimum has
// reached. Clearing the threshold claims the wake, so a rank is poked once
// per park however many publishers see it eligible. The parker counts itself,
// publishes its threshold and then folds again; the publisher stores its
// shard minimum and then reads the count and the thresholds: one of them sees
// the other.
func (p *Pacer) wake() {
	m, _ := p.fold()
	for r := range p.thresh {
		th := atomic.LoadInt64(&p.thresh[r])
		if th != 0 && th <= m && atomic.CompareAndSwapInt64(&p.thresh[r], th, 0) && p.hook.Poke(p.slot(r)) {
			mPacePokes.Inc()
		}
	}
}

// Pace publishes rank's clock and blocks while it runs more than the window
// ahead of the slowest published clock.
func (p *Pacer) Pace(rank int, t timing.Time) {
	p.Publish(rank, t)
	if m, _ := p.fold(); int64(t) > m+p.window {
		p.block(rank, int64(t))
	}
}

// block parks rank on its threshold until the minimum folds past it. It
// never spins: on a host with fewer cores than the world has ranks a
// yielding waiter starves the very laggard it waits for.
//
// The heartbeat is the stall valve. The trustworthy freeze signal is the
// folded minimum staying put — a laggard parked at its door pins it,
// while ranks already released keep publishing without moving
// it, so counting publishes would let releases mask a real freeze. The first
// heartbeat that times out records the minimum; the second consecutive one
// after it that finds the minimum unchanged (50 + 100 + 200 µs in all)
// releases the rank past the window for ONE operation. Its next Pace
// re-detects, so frozen-minimum drains progress at the heartbeat rate rather
// than freely: with the window unenforceable, holding the ranks' real
// progress rates together is what keeps their stamp interleavings tame.
func (p *Pacer) block(rank int, me int64) {
	target := me - p.window
	lastMin, idle, beat := int64(-1), 0, paceBeatMin
	var parkStart time.Time
	for p.hook.Aborted() == nil {
		if p.hook.Refresh != nil {
			for r := range p.clocks {
				if r != rank && p.Clock(r) < target {
					p.hook.Refresh(r)
				}
			}
		}
		m, arg := p.fold()
		if m >= target {
			break
		}
		if p.rescan(arg) != m {
			continue // the governing cache was stale: fold again
		}
		seq := p.hook.Seq(p.slot(rank))
		atomic.AddInt64(p.parked, 1)
		atomic.StoreInt64(&p.thresh[rank], target)
		poked := true
		if m, _ := p.fold(); m < target {
			if parkStart.IsZero() && telemetry.On() {
				parkStart = time.Now()
				mPaceParks.Inc()
			}
			poked = p.hook.Park(p.slot(rank), seq, beat)
		}
		atomic.StoreInt64(&p.thresh[rank], 0)
		atomic.AddInt64(p.parked, -1)
		if poked || p.hook.Aborted() != nil {
			idle, beat = 0, paceBeatMin
			continue
		}
		if cur, _ := p.fold(); cur != lastMin {
			lastMin, idle = cur, 0
		} else if idle++; idle == 2 {
			mPaceStalls.Inc()
			telemetry.RecordEvent(telemetry.EvStall, uint64(rank), uint64(me-cur))
			break
		}
		if beat < paceBeatMax {
			beat *= 2
		}
	}
	if !parkStart.IsZero() {
		mPaceParkNs.Record(uint64(time.Since(parkStart)))
	}
}
