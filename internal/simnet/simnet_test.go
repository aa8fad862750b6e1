package simnet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"fompi/internal/timing"
)

func newPair(t *testing.T, ranksPerNode int) (*Fabric, *Endpoint, *Endpoint) {
	t.Helper()
	f := NewFabric(2, ranksPerNode)
	return f, f.Endpoint(0, FoMPI()), f.Endpoint(1, FoMPI())
}

func TestPutGetRoundTrip(t *testing.T) {
	_, e0, e1 := newPair(t, 1)
	reg := e1.Register(256)
	src := []byte("hello, remote memory access!")
	e0.Put(reg.Base().Add(16), src)
	dst := make([]byte, len(src))
	e0.Get(dst, reg.Base().Add(16))
	if !bytes.Equal(src, dst) {
		t.Fatalf("round trip mismatch: %q != %q", dst, src)
	}
}

func TestPutAdvancesVirtualTime(t *testing.T) {
	_, e0, e1 := newPair(t, 1) // 2 nodes -> inter-node profile
	reg := e1.Register(64)
	start := e0.Now()
	e0.PutNBI(reg.Base(), make([]byte, 8))
	e0.Gsync()
	lat := e0.Now() - start
	// Paper model: P_put(8B) ≈ 1 µs inter-node.
	if lat.Micros() < 0.8 || lat.Micros() > 1.3 {
		t.Fatalf("inter-node 8B put+flush latency = %.3f µs, want ≈1 µs", lat.Micros())
	}
}

func TestGetLatencyModel(t *testing.T) {
	_, e0, e1 := newPair(t, 1)
	reg := e1.Register(64)
	start := e0.Now()
	e0.Get(make([]byte, 8), reg.Base())
	lat := e0.Now() - start
	// Paper model: P_get(8B) ≈ 1.9 µs inter-node.
	if lat.Micros() < 1.6 || lat.Micros() > 2.3 {
		t.Fatalf("inter-node 8B get latency = %.3f µs, want ≈1.9 µs", lat.Micros())
	}
}

func TestIntraNodeIsCheaper(t *testing.T) {
	f := NewFabric(2, 2) // both ranks on one node
	e0 := f.Endpoint(0, FoMPI())
	e1 := f.Endpoint(1, FoMPI())
	reg := e1.Register(64)
	start := e0.Now()
	e0.PutNBI(reg.Base(), make([]byte, 8))
	e0.Gsync()
	intra := e0.Now() - start

	f2 := NewFabric(2, 1)
	g0 := f2.Endpoint(0, FoMPI())
	g1 := f2.Endpoint(1, FoMPI())
	reg2 := g1.Register(64)
	s2 := g0.Now()
	g0.PutNBI(reg2.Base(), make([]byte, 8))
	g0.Gsync()
	inter := g0.Now() - s2
	if intra >= inter {
		t.Fatalf("intra-node put (%v) should be cheaper than inter-node (%v)", intra, inter)
	}
}

func TestBandwidthDominatesLargeMessages(t *testing.T) {
	_, e0, e1 := newPair(t, 1)
	reg := e1.Register(1 << 20)
	measure := func(n int) float64 {
		start := e0.Now()
		e0.PutNBI(reg.Base(), make([]byte, n))
		e0.Gsync()
		return (e0.Now() - start).Micros()
	}
	t256k := measure(256 << 10)
	t8 := measure(8)
	// 256 KiB at 0.16 ns/B ≈ 42 µs ≫ 1 µs latency floor.
	if t256k < 10*t8 {
		t.Fatalf("large message %.1f µs not bandwidth-dominated vs %.1f µs", t256k, t8)
	}
}

func TestKneeAddsLatency(t *testing.T) {
	_, e0, e1 := newPair(t, 1)
	reg := e1.Register(4096)
	lat := func(n int) timing.Time {
		start := e0.Now()
		e0.PutNBI(reg.Base(), make([]byte, n))
		e0.Gsync()
		return e0.Now() - start
	}
	small, big := lat(16), lat(32)
	extra := int64(big-small) - int64(float64(16)*FoMPI().Inter.NsPerByte)
	if extra < FoMPI().Inter.SmallKneeNs/2 {
		t.Fatalf("expected DMAPP protocol-change knee between 16B and 32B; got extra %d ns", extra)
	}
}

func TestAmoFetchAdd(t *testing.T) {
	_, e0, e1 := newPair(t, 1)
	reg := e1.Register(64)
	if old := e0.FetchAdd(reg.Base(), 5); old != 0 {
		t.Fatalf("first fetch-add returned %d, want 0", old)
	}
	if old := e0.FetchAdd(reg.Base(), 3); old != 5 {
		t.Fatalf("second fetch-add returned %d, want 5", old)
	}
	if v := reg.LocalWord(0); v != 8 {
		t.Fatalf("final value %d, want 8", v)
	}
}

func TestAmoCompareSwap(t *testing.T) {
	_, e0, e1 := newPair(t, 1)
	reg := e1.Register(64)
	if old := e0.CompareSwap(reg.Base(), 0, 42); old != 0 {
		t.Fatalf("CAS from 0 returned %d", old)
	}
	if old := e0.CompareSwap(reg.Base(), 0, 99); old != 42 {
		t.Fatalf("failed CAS should return current value 42, got %d", old)
	}
	if v := reg.LocalWord(0); v != 42 {
		t.Fatalf("failed CAS must not write; value = %d", v)
	}
}

func TestAmoLinearizable(t *testing.T) {
	const ranks, each = 8, 1000
	f := NewFabric(ranks, 4)
	target := f.Endpoint(0, FoMPI()).Register(8)
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := f.Endpoint(r, FoMPI())
			for i := 0; i < each; i++ {
				ep.FetchAdd(target.Base(), 1)
			}
		}(r)
	}
	wg.Wait()
	if v := target.LocalWord(0); v != (ranks-1)*each {
		t.Fatalf("lost updates: %d != %d", v, (ranks-1)*each)
	}
}

func TestStampCausality(t *testing.T) {
	// A rank polling a flag must land at (or after) the writer's completion
	// time even though its own clock was far behind.
	f := NewFabric(2, 1)
	e0 := f.Endpoint(0, FoMPI())
	e1 := f.Endpoint(1, FoMPI())
	reg := e0.Register(64)

	e1.Compute(500_000) // writer is at t=500 µs
	e1.StoreW(reg.Base(), 1)
	e1.Gsync()

	e0.WaitLocal(func() bool { return reg.LocalWord(0) == 1 })
	e0.MergeStamp(reg, 0, 8)
	if e0.Now() < 500_000 {
		t.Fatalf("reader clock %v did not merge writer completion ≥500µs", e0.Now())
	}
}

// TestStampVisibleBeforeValue races a poller against both word stores, a
// StoreW (a one-word put) and an owner's LocalWordStore: a rank that merges
// a word's stamp the moment it sees the value must find that store's stamp,
// so the stamp is written first.
func TestStampVisibleBeforeValue(t *testing.T) {
	const words = 1 << 15
	f := NewFabric(2, 2)
	owner := f.Endpoint(0, FoMPI())
	writer := f.Endpoint(1, FoMPI())
	reg := owner.Register(8 * words)
	seen := make(chan int, 1)
	go func() {
		defer close(seen)
		for w := 0; w < words; w++ {
			for spin := 1; reg.LocalWord(8*w) == 0; spin++ {
				if spin%256 == 0 {
					runtime.Gosched()
				}
			}
			if reg.StampMax(8*w, 8) == 0 {
				seen <- w
				return
			}
		}
	}()
	for w := 0; w < words; w++ {
		if w%2 == 0 {
			writer.StoreW(reg.Base().Add(8*w), 1) // stamped with its (non-zero) completion
		} else {
			reg.LocalWordStore(8*w, 1, timing.Time(w))
		}
	}
	if w, early := <-seen; early {
		t.Fatalf("word %d was visible before its stamp", w)
	}
}

func TestPollRemoteWordBlocksUntilWrite(t *testing.T) {
	f := NewFabric(2, 1)
	e0 := f.Endpoint(0, FoMPI())
	reg := f.Endpoint(1, FoMPI()).Register(64)
	done := make(chan uint64)
	go func() {
		done <- e0.PollRemoteWord(reg.Base(), func(v uint64) bool { return v == 7 })
	}()
	w := f.Endpoint(1, FoMPI())
	w.Compute(1000)
	// Unrelated writes wake the poller but do not satisfy it.
	w.StoreW(reg.Base().Add(8), 3)
	select {
	case v := <-done:
		t.Fatalf("poll returned %d before flag written", v)
	default:
	}
	w.StoreW(reg.Base(), 7)
	if v := <-done; v != 7 {
		t.Fatalf("poll returned %d, want 7", v)
	}
}

func TestIncastSerializes(t *testing.T) {
	// Eight senders streaming to one target should complete no faster than
	// the target NIC's bandwidth allows.
	const senders = 8
	const size = 64 << 10
	f := NewFabric(senders+1, 1)
	reg := f.Endpoint(0, FoMPI()).Register(size * senders)
	var wg sync.WaitGroup
	times := make([]timing.Time, senders)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ep := f.Endpoint(s+1, FoMPI())
			ep.PutNBI(reg.Base().Add(s*size), make([]byte, size))
			ep.Gsync()
			times[s] = ep.Now()
		}(s)
	}
	wg.Wait()
	var latest timing.Time
	for _, tm := range times {
		latest = timing.Max(latest, tm)
	}
	wire := timing.Time(float64(senders*size) * FoMPI().Inter.NsPerByte)
	if latest < wire {
		t.Fatalf("incast finished at %v, faster than wire time %v", latest, wire)
	}
}

func TestHandleExplicitCompletion(t *testing.T) {
	_, e0, e1 := newPair(t, 1)
	reg := e1.Register(1 << 16)
	h := e0.PutNB(reg.Base(), make([]byte, 32<<10))
	if e0.Test(h) {
		t.Fatal("32 KiB put should not complete at issue time")
	}
	before := e0.Now()
	e0.Wait(h)
	if e0.Now() <= before {
		t.Fatal("Wait must advance the clock to completion")
	}
	if !e0.Test(h) {
		t.Fatal("handle must test complete after Wait")
	}
}

func TestRegionBoundsFault(t *testing.T) {
	_, e0, e1 := newPair(t, 1)
	reg := e1.Register(16)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds put must fault")
		}
	}()
	e0.Put(reg.Base().Add(9), make([]byte, 8))
}

func TestUnregisterFaults(t *testing.T) {
	_, e0, e1 := newPair(t, 1)
	reg := e1.Register(16)
	e1.Unregister(reg)
	defer func() {
		if recover() == nil {
			t.Fatal("access after unregister must fault")
		}
	}()
	e0.Put(reg.Base(), make([]byte, 8))
}

func TestMessageRateInjectionLimited(t *testing.T) {
	_, e0, e1 := newPair(t, 1)
	reg := e1.Register(1 << 16)
	const msgs = 1000
	start := e0.Now()
	buf := make([]byte, 8)
	for i := 0; i < msgs; i++ {
		e0.PutNBI(reg.Base(), buf)
	}
	e0.Gsync()
	perMsg := int64(e0.Now()-start) / msgs
	// Paper: 416 ns injection per 8-byte inter-node message.
	if perMsg < 350 || perMsg > 600 {
		t.Fatalf("per-message injection = %d ns, want ≈416 ns", perMsg)
	}
}

func TestPropertyPutGetIdentity(t *testing.T) {
	f := NewFabric(2, 1)
	e0 := f.Endpoint(0, FoMPI())
	reg := f.Endpoint(1, FoMPI()).Register(4096)
	err := quick.Check(func(data []byte, off uint16) bool {
		o := int(off) % (4096 - len(data) - 1)
		if o < 0 {
			o = 0
		}
		e0.Put(reg.Base().Add(o), data)
		out := make([]byte, len(data))
		e0.Get(out, reg.Base().Add(o))
		return bytes.Equal(out, data)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFetchAddSumsAnyOrder(t *testing.T) {
	err := quick.Check(func(deltas []uint8) bool {
		f := NewFabric(2, 1)
		e0 := f.Endpoint(0, FoMPI())
		reg := f.Endpoint(1, FoMPI()).Register(8)
		var want uint64
		for _, d := range deltas {
			e0.FetchAdd(reg.Base(), uint64(d))
			want += uint64(d)
		}
		return reg.LocalWord(0) == want
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotoneUnderRandomOps(t *testing.T) {
	f := NewFabric(4, 2)
	eps := make([]*Endpoint, 4)
	regs := make([]*Region, 4)
	for i := range eps {
		eps[i] = f.Endpoint(i, FoMPI())
		regs[i] = eps[i].Register(256)
	}
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, 16)
	for i := 0; i < 2000; i++ {
		ep := eps[rng.Intn(4)]
		dst := regs[rng.Intn(4)].Base().Add(8 * rng.Intn(16))
		before := ep.Now()
		switch rng.Intn(5) {
		case 0:
			ep.Put(dst, buf[:8])
		case 1:
			ep.Get(buf[:8], dst)
		case 2:
			ep.FetchAdd(dst, 1)
		case 3:
			ep.PutNBI(dst, buf[:8])
		case 4:
			ep.Gsync()
		}
		if ep.Now() < before {
			t.Fatalf("clock went backwards at op %d", i)
		}
	}
}

func TestCountersTrackOps(t *testing.T) {
	_, e0, e1 := newPair(t, 1)
	reg := e1.Register(64)
	base := e0.Counters()
	e0.Put(reg.Base(), make([]byte, 8))
	e0.Get(make([]byte, 8), reg.Base())
	e0.FetchAdd(reg.Base(), 1)
	e0.Gsync()
	d := e0.Counters().Sub(base)
	if d.Puts != 1 || d.Gets != 1 || d.Amos != 1 || d.Gsyncs != 1 {
		t.Fatalf("counters wrong: %+v", d)
	}
	if d.RemoteOps() != 3 {
		t.Fatalf("remote ops = %d, want 3", d.RemoteOps())
	}
}

func TestWordEncoding(t *testing.T) {
	// Regions must interoperate with binary encoding of 8-byte values.
	_, e0, e1 := newPair(t, 1)
	reg := e1.Register(64)
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], 0xdeadbeefcafe)
	e0.Put(reg.Base(), w[:])
	if got := reg.LocalWord(0); got != 0xdeadbeefcafe {
		t.Fatalf("LocalWord = %#x", got)
	}
}
