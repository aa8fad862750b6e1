package simnet

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

// fakePace is a ParkHook with no fabric, socket or sleep behind it: Park
// records the duration it was asked for and runs the test's script for that
// park, Poke records the slot and reports what the script says.
type fakePace struct {
	parks     []time.Duration
	parkSlots []int
	onPark    func(n int) (poked bool) // n = 1 for the first park
	pokes     []int
	pokeHit   bool
	aborted   bool
}

func (f *fakePace) hook() ParkHook {
	return ParkHook{
		Seq: func(int) uint64 { return 0 },
		Park: func(slot int, _ uint64, d time.Duration) bool {
			f.parks = append(f.parks, d)
			f.parkSlots = append(f.parkSlots, slot)
			return f.onPark != nil && f.onPark(len(f.parks))
		},
		Poke: func(r int) bool { f.pokes = append(f.pokes, r); return f.pokeHit },
		Aborted: func() error {
			if f.aborted {
				return ErrAborted
			}
			return nil
		},
	}
}

func withTelemetry(t *testing.T) {
	was := telemetry.On()
	telemetry.SetEnabled(true)
	t.Cleanup(func() { telemetry.SetEnabled(was) })
}

func lastEvent(kind string) (telemetry.Event, bool) {
	evs := telemetry.Capture(0).Events
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == kind {
			return evs[i], true
		}
	}
	return telemetry.Event{}, false
}

// TestPacerShardTracker drives the tables directly: publishes establish the
// per-shard minimums, a laggard's publish moves the fold, a rescan repairs a
// stale-low cache, and a slab handed in is the state (two Pacers over one
// slab are one world).
func TestPacerShardTracker(t *testing.T) {
	const n = 130 // three shards: 64 + 64 + 2
	slab := make([]int64, PaceTableWords(n))
	var fk fakePace
	p := NewPacer(1000, n, slab, fk.hook())
	for r := 0; r < n; r++ {
		p.Publish(r, timing.Time(10_000+r))
	}
	if !reflect.DeepEqual(p.mins, []int64{10_000, 10_064, 10_128}) {
		t.Fatalf("shard minimums %v after every rank published 10000+r", p.mins)
	}
	if m, s := p.fold(); m != 10_000 || s != 0 {
		t.Fatalf("fold = %d in shard %d, want 10000 in shard 0", m, s)
	}
	p.Publish(0, 50_000)
	if m, _ := p.fold(); m != 10_001 {
		t.Fatalf("fold = %d after the laggard's publish, want rank 1's 10001", m)
	}
	atomic.StoreInt64(&p.mins[2], 5) // what a racing rescan can leave behind
	if m := p.rescan(2); m != 10_128 {
		t.Fatalf("rescan of a stale-low shard = %d, want 10128", m)
	}
	q := NewPacer(1000, n, slab, fk.hook())
	if q.Clock(129) != 10_129 {
		t.Fatalf("a second Pacer over the slab reads clock %d for rank 129, want 10129", q.Clock(129))
	}
	q.Observe(1, 9_000) // stale news is dropped
	q.Observe(1, 60_000)
	if m, _ := p.fold(); m != 10_002 {
		t.Fatalf("fold = %d after rank 1 was observed at 60000 through the other Pacer, want 10002", m)
	}
	p.Pace(5, 10_002+1000)
	if len(fk.parks) != 0 {
		t.Fatalf("a rank exactly the window ahead parked %d times", len(fk.parks))
	}
}

// TestPacerStallValve pins the one stall rule: heartbeats of 50, 100 and
// 200 µs — the first records the minimum, the next two find it frozen — and
// then the rank is released for one operation, with one pace.stalls count
// and an EvStall event carrying its lead over the minimum. A poke is not a
// heartbeat: it zeroes the count of frozen beats and the backoff (the minimum
// already on record stays, so two more frozen beats release).
func TestPacerStallValve(t *testing.T) {
	withTelemetry(t)
	us := time.Microsecond
	for _, c := range []struct {
		name   string
		onPark func(int) bool
		want   []time.Duration
	}{
		{"frozen", nil, []time.Duration{50 * us, 100 * us, 200 * us}},
		{"poke restarts", func(n int) bool { return n == 2 }, []time.Duration{50 * us, 100 * us, 50 * us, 100 * us}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fk := fakePace{onPark: c.onPark}
			p := NewPacer(100, 8, nil, fk.hook())
			p.Publish(0, 400) // everyone else stays at 0
			stalls, parks := mPaceStalls.Load(), mPaceParks.Load()
			p.Pace(3, 1_000_000)
			if !reflect.DeepEqual(fk.parks, c.want) {
				t.Fatalf("parked for %v, want %v", fk.parks, c.want)
			}
			if got := mPaceStalls.Load() - stalls; got != 1 {
				t.Fatalf("pace.stalls rose by %d, want 1", got)
			}
			if got := mPaceParks.Load() - parks; got != 1 {
				t.Fatalf("pace.parks rose by %d over one block, want 1", got)
			}
			if ev, ok := lastEvent("pace.stall"); !ok || ev.A != 3 || ev.B != 1_000_000 {
				t.Fatalf("last stall event %+v, want rank 3 leading the minimum (0) by 1000000", ev)
			}
			if *p.parked != 0 || p.thresh[3] != 0 {
				t.Fatalf("released rank left parked=%d thresh=%d behind", *p.parked, p.thresh[3])
			}
		})
	}
}

// TestPacerValveShutWhileMinimumMoves: a laggard that publishes a higher
// clock during every park keeps the minimum moving, so no number of
// timed-out heartbeats is a stall — the rank backs off to the 2 ms beat and
// stays blocked until the laggard catches up.
func TestPacerValveShutWhileMinimumMoves(t *testing.T) {
	withTelemetry(t)
	const beats = 40
	var fk fakePace
	p := NewPacer(100, 4, nil, fk.hook())
	p.Publish(1, 1_000_000)
	p.Publish(2, 1_000_000)
	fk.onPark = func(n int) bool {
		if n <= beats {
			p.Publish(0, timing.Time(n)) // the laggard: a nanosecond a heartbeat
		} else {
			p.Publish(0, 1_000_000) // caught up: the park after this never happens
		}
		return false // every park times out
	}
	stalls := mPaceStalls.Load()
	p.Pace(3, 1_000_000)
	if len(fk.parks) != beats+1 {
		t.Fatalf("parked %d times, want %d moving-minimum heartbeats and the one the catch-up ended", len(fk.parks), beats+1)
	}
	if got := mPaceStalls.Load() - stalls; got != 0 {
		t.Fatalf("the stall valve fired %d times on a minimum that moved every heartbeat", got)
	}
	if fk.parks[2] != 200*time.Microsecond || fk.parks[beats] < paceBeatMax {
		t.Fatalf("heartbeats %v: want the backoff to run on to %v while the minimum moves", fk.parks, paceBeatMax)
	}
}

// TestPacerWakeByThreshold parks two ranks on different thresholds and
// raises the minimum past one, then the other: each is poked exactly when
// its own threshold is reached, once, under its pace slot (4+r, clear of the
// door's 0…3), and pace.pokes counts only pokes the hook delivered.
func TestPacerWakeByThreshold(t *testing.T) {
	withTelemetry(t)
	fk := fakePace{pokeHit: true}
	p := NewPacer(100, 4, nil, fk.hook())
	for r := range p.clocks {
		p.Publish(r, 1000)
	}
	*p.parked = 2 // ranks 2 and 3 sit in Park
	p.thresh[2], p.thresh[3] = 1500, 3000
	pokes := mPacePokes.Load()

	p.Publish(0, 2000) // rank 1 still holds the minimum at 1000
	if len(fk.pokes) != 0 {
		t.Fatalf("poked %v with the minimum unmoved", fk.pokes)
	}
	p.Publish(1, 2000) // the minimum reaches 2000 once the parked ranks' own clocks do
	p.Publish(2, 2000)
	p.Publish(3, 2000)
	if !reflect.DeepEqual(fk.pokes, []int{4 + 2}) || p.thresh[2] != 0 || p.thresh[3] != 3000 {
		t.Fatalf("minimum 2000: poked %v, thresholds %v; want rank 2 alone, its threshold claimed", fk.pokes, p.thresh)
	}
	p.Publish(0, 2500)
	if len(fk.pokes) != 1 {
		t.Fatalf("a publish that left the minimum at 2000 poked again: %v", fk.pokes)
	}
	fk.pokeHit = false // the hook reaches nobody: not counted
	for r := range p.clocks {
		p.Publish(r, 3000)
	}
	if !reflect.DeepEqual(fk.pokes, []int{4 + 2, 4 + 3}) {
		t.Fatalf("minimum 3000: poked %v, want rank 3 after rank 2", fk.pokes)
	}
	if got := mPacePokes.Load() - pokes; got != 1 {
		t.Fatalf("pace.pokes rose by %d, want 1 (the delivered poke only)", got)
	}
}

// TestPacerRefresh checks the wire backend's half of the hook: a blocked
// rank asks for exactly the entries stale enough to be holding it, and a
// refresh that lifts them releases it without a park.
func TestPacerRefresh(t *testing.T) {
	var fk fakePace
	h := fk.hook()
	var p *Pacer
	var asked []int
	h.Refresh = func(r int) { asked = append(asked, r); p.Observe(r, 5000) }
	p = NewPacer(100, 4, nil, h)
	p.Publish(2, 4950) // inside rank 0's window already
	p.Pace(0, 5000)
	if !reflect.DeepEqual(asked, []int{1, 3}) || len(fk.parks) != 0 {
		t.Fatalf("refreshed %v and parked %d times; want ranks 1 and 3 refreshed, no park", asked, len(fk.parks))
	}
}

// TestPacerAbortedNeverParks: an aborted world's pace-blocked rank proceeds.
func TestPacerAbortedNeverParks(t *testing.T) {
	fk := fakePace{aborted: true}
	NewPacer(100, 2, nil, fk.hook()).Pace(1, 1_000_000)
	if len(fk.parks) != 0 {
		t.Fatalf("parked %d times in an aborted world", len(fk.parks))
	}
}
