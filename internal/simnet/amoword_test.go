package simnet

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"fompi/internal/timing"
)

// TestAmoWordPinned drives every operator — a compare-and-swap both hitting
// and missing — through RegionExec.AmoWord, inter- and intra-node, against
// a word whose record is one store and against one whose record must go
// through Set (a fill came after it). Every figure
// is a constant read off the word branch of RegionExec.Amo that AmoWord
// replaced: the fetched word, the landing, its base, the source-NIC cursor,
// the word and stamp left behind, the port word and the NIC interval.
func TestAmoWordPinned(t *testing.T) {
	const prior = 0b1100
	ops := []struct {
		op     AmoOp
		o1, o2 uint64
		after  uint64
	}{
		{AmoSum, 3, 0, 15},
		{AmoBand, 0b1010, 0, 0b1000},
		{AmoBor, 0b1010, 0, 0b1110},
		{AmoBxor, 0b1010, 0, 0b0110},
		{AmoReplace, 99, 0, 99},
		{AmoCas, prior, 7, 7},
		{AmoCas, prior + 1, 7, prior},
		{AmoNoOp, 99, 0, prior},
	}
	// The word is stamped 500; a fill then restamps its block 450. The port's
	// NIC is busy over [600, 700); the AMO arrives at clock 300 with the
	// source NIC free at 480, 100 ns of latency and 16 of transfer.
	times := []struct {
		fill, reserve     bool
		land, base, free  timing.Time
		nicStart, nicBusy int64
	}{
		{false, true, 716, 500, 516, 600, 716}, // queues behind the busy NIC
		{false, false, 600, 500, 480, 600, 700},
		{true, true, 596, 450, 496, 600, 700}, // served in the hole before it
		{true, false, 550, 450, 480, 600, 700},
	}
	for _, c := range ops {
		for _, tm := range times {
			f := NewFabric(1, 1)
			reg := f.Endpoint(0, FoMPI()).Register(64)
			reg.LocalWordStore(8, prior, 500)
			if tm.fill {
				reg.stamps.SetRange(0, 64, 450)
			}
			if fast := reg.stamps.WordRecord(8) != nil; fast == tm.fill {
				t.Fatalf("fill %v: the word's record is one store: %v", tm.fill, fast)
			}
			reg.port.BookNIC(600, 100)
			old, land, base, free := RegionExec{Reg: reg, Ring: f}.AmoWord(c.op, 8, c.o1, c.o2, 300, 480, tm.reserve, 100, 16)
			at := func(what string, got, want any) {
				if got != want {
					t.Errorf("op %d (%d, %d), fill %v, reserve %v: %s %v, want %v",
						c.op, c.o1, c.o2, tm.fill, tm.reserve, what, got, want)
				}
			}
			at("old", old, uint64(prior))
			at("land", land, tm.land)
			at("base", base, tm.base)
			at("newFree", free, tm.free)
			at("word", reg.LocalWord(8), c.after)
			at("stamp", reg.StampMax(8, 8), tm.land)
			at("port word", atomic.LoadUint64(&reg.port.word), uint64(holderRing))
			at("port wait", atomic.LoadUint64(&reg.port.wait), uint64(0))
			at("NIC interval", [2]int64{reg.port.nicStart, reg.port.nicBusy}, [2]int64{tm.nicStart, tm.nicBusy})
		}
	}
}

// TestAmoWordCountsRings: every inline word atomic rings its target once,
// and door.rings — behind the traced simnet.door_rings_per_* — counts each,
// inter- and intra-node, whichever entry issued it.
func TestAmoWordCountsRings(t *testing.T) {
	withTelemetry(t)
	for _, nodes := range []int{2, 1} {
		f := NewFabric(2, 2/nodes)
		ep := f.Endpoint(0, FoMPI())
		a := f.Endpoint(1, FoMPI()).Register(64).Base()
		before := mDoorRings.Load()
		const n = 10
		for i := 0; i < n; i++ {
			switch i % 5 {
			case 0:
				ep.FetchAdd(a, 1)
			case 1:
				ep.FetchOp(a, AmoBxor, 3)
			case 2:
				ep.CompareSwap(a, 0, 1)
			case 3:
				ep.AddNBI(a, 1)
			case 4:
				ep.FetchOpNB(a, AmoNoOp, 0)
			}
		}
		if got := mDoorRings.Load() - before; got != n {
			t.Errorf("%d nodes: %d word atomics counted %d door rings, want %d", nodes, n, got, n)
		}
	}
}

// TestWrappedOffsetFaultsFree: an offset past the region, a negative one,
// and one so large that offset+length wraps round int — a corrupt wire
// frame can carry one — fault every operation by name before the port is
// taken, leaving both port words as they were. With a wrapping check it
// passed, took the port and panicked under it.
func TestWrappedOffsetFaultsFree(t *testing.T) {
	f := NewFabric(1, 1)
	reg := f.Endpoint(0, FoMPI()).Register(64)
	x := RegionExec{Reg: reg, Ring: f}
	before, waitBefore := atomic.LoadUint64(&reg.port.word), atomic.LoadUint64(&reg.port.wait)
	for _, off := range []int{64, -8, math.MaxInt64 - 7} {
		for _, c := range []struct {
			name string
			op   func()
		}{
			{"one-word put", func() { x.Put(off, make([]byte, 8), true, 0, 1) }},
			{"bulk put", func() { x.Put(off-8, make([]byte, 16), true, 0, 1) }},
			{"one-word get", func() { x.Get(make([]byte, 8), off, 0, true, 100, 1) }},
			{"word put", func() { x.PutWord(off, 1, true, 0, 1) }},
			{"intra-node word put", func() { x.PutWord(off, 1, false, 0, 1) }},
			{"wire owner's word put", func() { RegionExec{Reg: reg}.PutWord(off, 1, true, 0, 1) }},
			{"word get", func() { x.GetWord(off, 0, true, 100, 1) }},
			{"word AMO", func() { x.AmoWord(AmoSum, off, 1, 0, 0, 0, true, 240, 1) }},
			{"chained AMO", func() { x.Amo(AmoSum, off-8, make([]byte, 16), 0, nil, 0, 0, true, 240, 1) }},
			{"notify", func() { x.Notify(off-16, 1, true, 0, 1) }},
		} {
			msg := faultOf(c.op)
			// Checked after each: the next operation would spin on a held port.
			if w, wt := atomic.LoadUint64(&reg.port.word), atomic.LoadUint64(&reg.port.wait); w != before || wt != waitBefore {
				t.Fatalf("port words %#x, %#x after the %s's fault %q at offset %d, want %#x, %#x: the fault left the port held", w, wt, c.name, msg, off, before, waitBefore)
			}
			if !strings.Contains(msg, "outside region of 64 bytes") {
				t.Errorf("%s at offset %d faulted with %q, want the bounds fault", c.name, off, msg)
			}
		}
	}
}
