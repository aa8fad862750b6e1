package simnet

import (
	"encoding/binary"
	"strings"
	"sync/atomic"
	"testing"

	"fompi/internal/timing"
)

// pinnedWord is the fixture of the word bodies' pinned tests: word 8 of a
// 64-byte region holds prior stamped 500, or — fill — a fill then restamps
// its block 450; the port's NIC is busy over [600, 700).
func pinnedWord(t *testing.T, fill bool) (*Fabric, *Region) {
	t.Helper()
	f := NewFabric(1, 1)
	reg := f.Endpoint(0, FoMPI()).Register(64)
	reg.LocalWordStore(8, 0b1100, 500)
	if fill {
		reg.stamps.SetRange(0, 64, 450)
	}
	if fast := reg.stamps.WordRecord(8) != nil; fast == fill {
		t.Fatalf("fill %v: the word's record is one store: %v", fill, fast)
	}
	reg.port.BookNIC(600, 100)
	return f, reg
}

// TestPutGetWordPinned drives RegionExec.PutWord and GetWord inter- and
// intra-node against a word whose record is one store and against one whose
// record must go through Set. Every figure is a
// constant read off the one-word branches of RegionExec.Put and Get that the
// two bodies replaced: the completion, the word and stamps left behind, the
// port's words and the NIC interval.
func TestPutGetWordPinned(t *testing.T) {
	const prior, v = 0b1100, 0xfeed
	// Puts of 16 transfer ns arrive at 650 (queueing behind the busy NIC)
	// or 300 (served in the hole before it).
	puts := []struct {
		reserve           bool
		arrival, comp     timing.Time
		nicStart, nicBusy int64
	}{
		{true, 650, 716, 600, 716},
		{true, 300, 316, 600, 700},
		{false, 650, 650, 600, 700},
		{false, 300, 300, 600, 700},
	}
	// Gets of 100 tail ns and 16 transfer ns read the word at clock 300
	// (below either stamp) or 800 (above both).
	gets := []struct {
		fill, reserve     bool
		clockIn, comp     timing.Time
		nicStart, nicBusy int64
	}{
		{false, true, 300, 716, 600, 716}, // base 500: queues behind the busy NIC
		{false, false, 300, 600, 600, 700},
		{true, true, 300, 566, 600, 700}, // base 450: served in the hole before it
		{true, false, 300, 550, 600, 700},
		{false, true, 800, 916, 900, 916}, // base 800: a fresh busy interval
		{true, false, 800, 900, 600, 700},
	}
	for _, fill := range []bool{false, true} {
		for _, c := range puts {
			f, reg := pinnedWord(t, fill)
			wantWord, wantWait := uint64(holderRing), uint64(0) // rung in the release
			if !c.reserve {
				wantWord, wantWait = 0, outsideRing // rung from outside the port
			}
			comp := RegionExec{Reg: reg, Ring: f}.PutWord(8, v, c.reserve, c.arrival, 16)
			at := func(what string, got, want any) {
				if got != want {
					t.Errorf("put: fill %v, reserve %v, arrival %d: %s %v, want %v",
						fill, c.reserve, c.arrival, what, got, want)
				}
			}
			neighbour := timing.Time(0)
			if fill {
				neighbour = 450
			}
			at("completion", comp, c.comp)
			at("word", reg.LocalWord(8), uint64(v))
			at("stamp", reg.StampMax(8, 8), c.comp)
			at("neighbour's stamp", reg.StampMax(0, 8), neighbour)
			at("port word", atomic.LoadUint64(&reg.port.word), wantWord)
			at("port wait", atomic.LoadUint64(&reg.port.wait), wantWait)
			at("NIC interval", [2]int64{reg.port.nicStart, reg.port.nicBusy}, [2]int64{c.nicStart, c.nicBusy})
		}
		for _, c := range gets {
			if c.fill != fill {
				continue
			}
			f, reg := pinnedWord(t, fill)
			got, comp := RegionExec{Reg: reg, Ring: f}.GetWord(8, c.clockIn, c.reserve, 100, 16)
			at := func(what string, got, want any) {
				if got != want {
					t.Errorf("get: fill %v, reserve %v, clock %d: %s %v, want %v",
						fill, c.reserve, c.clockIn, what, got, want)
				}
			}
			stamp := timing.Time(500)
			if fill {
				stamp = 450
			}
			at("word", got, uint64(prior))
			at("completion", comp, c.comp)
			at("stamp", reg.StampMax(8, 8), stamp)
			at("port word", atomic.LoadUint64(&reg.port.word), uint64(0))
			at("port wait", atomic.LoadUint64(&reg.port.wait), uint64(0))
			at("NIC interval", [2]int64{reg.port.nicStart, reg.port.nicBusy}, [2]int64{c.nicStart, c.nicBusy})
		}
	}
}

// TestPutWordCountsRings: every inline one-word put rings its target once,
// and door.rings counts each, inter- and intra-node, whichever entry issued
// it.
func TestPutWordCountsRings(t *testing.T) {
	withTelemetry(t)
	for _, nodes := range []int{2, 1} {
		f := NewFabric(2, 2/nodes)
		ep := f.Endpoint(0, FoMPI())
		a := f.Endpoint(1, FoMPI()).Register(64).Base()
		var w [8]byte
		before := mDoorRings.Load()
		const n = 8
		for i := 0; i < n; i++ {
			switch i % 4 {
			case 0:
				ep.PutNBI(a, w[:])
			case 1:
				ep.Put(a, w[:])
			case 2:
				ep.Wait(ep.PutNB(a, w[:]))
			case 3:
				ep.StoreW(a, 1)
			}
		}
		if got := mDoorRings.Load() - before; got != n {
			t.Errorf("%d nodes: %d one-word puts counted %d door rings, want %d", nodes, n, got, n)
		}
	}
}

// TestMisalignedWordAccess: a word store or load at an offset that is not a
// multiple of 8 faults by name, while a put or get of 8 bytes there is a
// byte copy and succeeds.
func TestMisalignedWordAccess(t *testing.T) {
	for _, nodes := range []int{2, 1} {
		f := NewFabric(2, 2/nodes)
		ep := f.Endpoint(0, FoMPI())
		a := f.Endpoint(1, FoMPI()).Register(64).Base().Add(4)
		for name, op := range map[string]func(){
			"StoreW": func() { ep.StoreW(a, 1) },
			"LoadW":  func() { ep.LoadW(a) },
		} {
			if msg := faultOf(op); !strings.Contains(msg, "misaligned") {
				t.Errorf("%d nodes: %s at offset 4 faulted with %q, want the alignment fault", nodes, name, msg)
			}
		}
		var src, dst [8]byte
		binary.LittleEndian.PutUint64(src[:], 0x0102030405060708)
		if msg := faultOf(func() { ep.Put(a, src[:]); ep.Get(dst[:], a) }); msg != "" {
			t.Fatalf("%d nodes: 8 bytes put and got at offset 4 faulted: %q", nodes, msg)
		}
		if dst != src {
			t.Errorf("%d nodes: 8 bytes at offset 4 read back %x, want %x", nodes, dst, src)
		}
	}
}
