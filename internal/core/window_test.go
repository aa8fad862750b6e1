package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fompi/internal/spmd"
	"fompi/internal/timing"
)

// run is the package test harness: n ranks, rpn ranks per node.
func run(t *testing.T, n, rpn int, body func(p *spmd.Proc)) {
	t.Helper()
	if err := spmd.Run(spmd.Config{Ranks: n, RanksPerNode: rpn}, body); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateFencePutGet(t *testing.T) {
	run(t, 4, 2, func(p *spmd.Proc) {
		w, mem := Allocate(p, 1024, Config{})
		defer w.Free()
		for i := range mem {
			mem[i] = byte(p.Rank())
		}
		w.Fence()
		right := (p.Rank() + 1) % p.Size()
		msg := make([]byte, 64)
		for i := range msg {
			msg[i] = byte(p.Rank() + 100)
		}
		w.Put(msg, right, 128)
		w.Fence()
		left := (p.Rank() - 1 + p.Size()) % p.Size()
		for i := 0; i < 64; i++ {
			if mem[128+i] != byte(left+100) {
				t.Errorf("rank %d byte %d: got %d want %d", p.Rank(), i, mem[128+i], left+100)
				break
			}
		}
		got := make([]byte, 64)
		w.Get(got, left, 128)
		w.Fence()
		prev := (left - 1 + p.Size()) % p.Size()
		for i := range got {
			if got[i] != byte(prev+100) {
				t.Errorf("get: rank %d byte %d: got %d want %d", p.Rank(), i, got[i], prev+100)
				break
			}
		}
	})
}

func TestCreateTraditionalWindow(t *testing.T) {
	run(t, 3, 1, func(p *spmd.Proc) {
		// Different sizes per rank: the reason Create needs Ω(p) state.
		buf := make([]byte, 256*(p.Rank()+1))
		w := Create(p, buf, Config{})
		defer w.Free()
		w.Fence()
		if p.Rank() == 0 {
			w.Put([]byte("to-rank-2"), 2, 512) // only fits in rank 2's window
		}
		w.Fence()
		if p.Rank() == 2 && !bytes.Equal(buf[512:521], []byte("to-rank-2")) {
			t.Errorf("traditional window put missing: %q", buf[512:521])
		}
	})
}

func TestCreateWindowBoundsPerRank(t *testing.T) {
	err := spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
		w := Create(p, make([]byte, 128*(p.Rank()+1)), Config{})
		w.Fence()
		if p.Rank() == 1 {
			w.Put(make([]byte, 8), 0, 200) // rank 0 has only 128 bytes
		}
		w.Fence()
	})
	if err == nil {
		t.Fatal("out-of-bounds access to a smaller peer window must fault")
	}
}

func TestMemoryFootprintScaling(t *testing.T) {
	// Allocated windows: O(1) per-rank state. Traditional: Ω(p).
	foot := func(n int, traditional bool) int {
		var got int
		run(t, n, 4, func(p *spmd.Proc) {
			var w *Win
			if traditional {
				w = Create(p, make([]byte, 64), Config{})
			} else {
				w, _ = Allocate(p, 64, Config{})
			}
			if p.Rank() == 0 {
				got = w.MemoryFootprint()
			}
			w.Free()
		})
		return got
	}
	if a, b := foot(4, false), foot(32, false); a != b {
		t.Errorf("allocated window footprint grew with p: %d -> %d", a, b)
	}
	if a, b := foot(4, true), foot(32, true); b <= a {
		t.Errorf("traditional window footprint did not grow with p: %d -> %d", a, b)
	}
}

func TestSharedWindowDirectAccess(t *testing.T) {
	run(t, 4, 4, func(p *spmd.Proc) {
		w, mem := AllocateShared(p, 64, Config{})
		defer w.Free()
		binary.LittleEndian.PutUint64(mem, uint64(p.Rank()+1)*11)
		w.Fence()
		peer := (p.Rank() + 1) % 4
		s := w.SharedSlice(peer)
		if got := binary.LittleEndian.Uint64(s); got != uint64(peer+1)*11 {
			t.Errorf("shared slice of rank %d = %d", peer, got)
		}
	})
}

func TestSharedWindowRequiresOneNode(t *testing.T) {
	err := spmd.Run(spmd.Config{Ranks: 4, RanksPerNode: 2}, func(p *spmd.Proc) {
		AllocateShared(p, 64, Config{})
	})
	if err == nil {
		t.Fatal("AllocateShared across nodes must fail")
	}
}

func TestDynamicWindowAttachAccess(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w := CreateDynamic(p, Config{})
		var slot int
		buf := make([]byte, 256)
		if p.Rank() == 1 {
			slot = w.Attach(buf)
		}
		p.Barrier()
		if p.Rank() == 0 {
			w.Lock(LockShared, 1)
			w.PutDyn([]byte("dynamic!"), 1, 0, 16)
			w.Unlock(1)
		}
		p.Barrier()
		if p.Rank() == 1 {
			if !bytes.Equal(buf[16:24], []byte("dynamic!")) {
				t.Errorf("dynamic put missing: %q", buf[16:24])
			}
			w.Detach(slot)
		}
		p.Barrier()
	})
}

func TestDynamicWindowCacheInvalidation(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w := CreateDynamic(p, Config{})
		bufA := make([]byte, 64)
		bufB := make([]byte, 64)
		if p.Rank() == 1 {
			s := w.Attach(bufA)
			p.Barrier()
			p.Barrier() // rank 0 reads via slot 0 (caches table)
			w.Detach(s)
			w.Attach(bufB) // reuses slot 0 with a new region
			p.Barrier()
			p.Barrier()
			if !bytes.Equal(bufB[:5], []byte("fresh")) {
				t.Errorf("second attach missed write: %q", bufB[:5])
			}
			if bytes.Contains(bufA, []byte("fresh")) {
				t.Error("write went to the detached region")
			}
			return
		}
		p.Barrier()
		w.Lock(LockShared, 1)
		w.PutDyn([]byte("first"), 1, 0, 0)
		w.Unlock(1)
		p.Barrier()
		p.Barrier() // target swapped regions; id counter must invalidate cache
		w.Lock(LockShared, 1)
		w.PutDyn([]byte("fresh"), 1, 0, 0)
		w.Unlock(1)
		p.Barrier()
	})
}

func TestDynamicDetachedAccessFaults(t *testing.T) {
	err := spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
		w := CreateDynamic(p, Config{})
		if p.Rank() == 1 {
			w.Attach(make([]byte, 64))
			p.Barrier()
			p.Barrier()
			return
		}
		p.Barrier()
		w.Lock(LockShared, 1)
		w.PutDyn(make([]byte, 8), 1, 3, 0) // slot 3 never attached
		w.Unlock(1)
		p.Barrier()
	})
	if err == nil {
		t.Fatal("access to unattached slot must fault")
	}
}

func TestCommunicationOutsideEpochFaults(t *testing.T) {
	err := spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		w.Put(make([]byte, 8), (p.Rank()+1)%2, 0) // no epoch open
	})
	if err == nil {
		t.Fatal("communication outside an epoch must fault")
	}
}

func TestWindowFreeIsCollective(t *testing.T) {
	run(t, 4, 2, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		w.Fence()
		w.Fence()
		w.Free()
	})
}

func TestMultipleWindowsCoexist(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w1, m1 := Allocate(p, 64, Config{})
		w2, m2 := Allocate(p, 64, Config{})
		w1.Fence()
		w2.Fence()
		peer := (p.Rank() + 1) % 2
		w1.Put([]byte{1, 1, 1, 1, 1, 1, 1, 1}, peer, 0)
		w2.Put([]byte{2, 2, 2, 2, 2, 2, 2, 2}, peer, 0)
		w1.Fence()
		w2.Fence()
		if m1[0] != 1 || m2[0] != 2 {
			t.Errorf("window isolation violated: %d %d", m1[0], m2[0])
		}
		w1.Free()
		w2.Free()
	})
}

// flavours lists the four collective constructors with, for each, the one
// spmd collective its creation must cost.
var flavours = func() []flavour {
	allreduce := func(p *spmd.Proc) { p.Allreduce8(spmd.OpMax, 7) }
	return []flavour{
		{"allocated", false, func(p *spmd.Proc) *Win { w, _ := Allocate(p, 256, Config{}); return w }, allreduce},
		{"shared", true, func(p *spmd.Proc) *Win { w, _ := AllocateShared(p, 256, Config{}); return w }, allreduce},
		{"dynamic", false, func(p *spmd.Proc) *Win { return CreateDynamic(p, Config{}) }, allreduce},
		{"traditional", false, func(p *spmd.Proc) *Win { return Create(p, make([]byte, 256), Config{}) },
			func(p *spmd.Proc) { p.Allgather(make([]byte, 16)) }},
	}
}()

type flavour struct {
	name    string
	oneNode bool // shared windows need every rank on one node
	create  func(p *spmd.Proc) *Win
	same    func(p *spmd.Proc)
}

// TestWindowCreationOneCollective pins what creation costs: on every rank,
// the fabric operations and the virtual time a constructor takes are exactly
// those of one allreduce (one allgather of the descriptor block for a
// traditional window) issued from the same clock.
func TestWindowCreationOneCollective(t *testing.T) {
	type cost struct {
		puts, amos, gets int64
		vtime            timing.Time
	}
	// section runs fn with the rank's clock jumped to at — far past every
	// stamp and NIC reservation earlier sections left — so two sections
	// running the same communication pattern cost the same on each rank.
	section := func(p *spmd.Proc, at timing.Time, fn func()) cost {
		p.Compute(int64(at - p.Now()))
		c0, t0 := p.EP().Counters(), p.Now()
		fn()
		d := p.EP().Counters().Sub(c0)
		return cost{d.Puts, d.Amos, d.Gets, p.Now() - t0}
	}
	for _, n := range []int{2, 5, 8} {
		for _, f := range flavours {
			rpn := 2
			if f.oneNode {
				rpn = n
			}
			got := make([][2]cost, n)
			run(t, n, rpn, func(p *spmd.Proc) {
				f.same(p) // warm the scratch routes
				var w *Win
				got[p.Rank()][0] = section(p, 1e9, func() { w = f.create(p) })
				got[p.Rank()][1] = section(p, 2e9, func() { f.same(p) })
				w.Free()
			})
			for r, g := range got {
				if g[0] != g[1] {
					t.Errorf("p=%d %s window, rank %d: creation cost %+v, one collective costs %+v", n, f.name, r, g[0], g[1])
				}
				if g[1].puts == 0 || g[1].vtime == 0 {
					t.Errorf("p=%d %s window, rank %d: the reference collective cost nothing: %+v", n, f.name, r, g[1])
				}
			}
		}
	}
}

// TestAsymmetricCreationFaults breaks the symmetric-heap property — rank 1
// registers one region more than its peers before the collective constructor
// — and expects every flavour to fail the world by name, with both key pairs
// in the message, no rank left holding a window it can use, and no hang.
func TestAsymmetricCreationFaults(t *testing.T) {
	pair := regexp.MustCompile(`\(ctl \d+, data \d+\)`)
	for _, f := range flavours {
		cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
		if f.oneNode {
			cfg.RanksPerNode = 4
		}
		var usable atomic.Int32
		errc := make(chan error, 1)
		go func() {
			errc <- spmd.Run(cfg, func(p *spmd.Proc) {
				if p.Rank() == 1 {
					p.EP().Register(64)
				}
				f.create(p)
				p.Barrier() // a rank whose keys were the maximum gets this far
				usable.Add(1)
			})
		}()
		select {
		case err := <-errc:
			if err == nil {
				t.Fatalf("%s window: asymmetric creation succeeded", f.name)
			}
			if !strings.Contains(err.Error(), f.name+" window keys not symmetric") {
				t.Errorf("%s window: error does not name the flavour: %v", f.name, err)
			}
			if ps := pair.FindAllString(err.Error(), -1); len(ps) != 2 || ps[0] == ps[1] {
				t.Errorf("%s window: error does not carry two differing key pairs: %v", f.name, err)
			}
			if n := usable.Load(); n != 0 {
				t.Errorf("%s window: %d ranks came away with a usable window", f.name, n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s window: asymmetric creation hung the world", f.name)
		}
	}
}

// TestPackKeysFaultsOnOverflow: a key too wide for its half of the creation
// word is a named fault, not a silent truncation.
func TestPackKeysFaultsOnOverflow(t *testing.T) {
	if ctl, data := unpackKeys(packKeys(math.MaxUint32, 5)); ctl != math.MaxUint32 || data != 5 {
		t.Fatalf("round trip = (%d, %d)", ctl, data)
	}
	for _, kv := range [][2]uint64{{1 << 32, 0}, {0, 1 << 32}} {
		func() {
			defer func() {
				if e := recover(); e == nil || !strings.Contains(fmt.Sprint(e), "do not fit") {
					t.Errorf("packKeys(%d, %d): recovered %v, want the named overflow fault", kv[0], kv[1], e)
				}
			}()
			packKeys(kv[0], kv[1])
		}()
	}
}

// BenchmarkWorldSetup times what the benchmark's proc_rma workload reports as
// setup_s, without its harness: a 2-rank, 2-node in-process world that
// allocates a 280 KiB window, fills a pattern into it and passes a barrier.
// Each iteration is one world; the metrics are the nanoseconds from the
// launch to rank 0 past the barrier, at the 5th percentile and the median.
func BenchmarkWorldSetup(b *testing.B) {
	const size, words = 280 << 10, 512
	ready := make([]float64, 0, b.N)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		spmd.MustRun(spmd.Config{Ranks: 2, RanksPerNode: 1}, func(p *spmd.Proc) {
			w, mem := Allocate(p, size, Config{})
			for k := 0; k < words; k++ {
				binary.LittleEndian.PutUint64(mem[8*k:], uint64(p.Rank())<<32|uint64(k))
			}
			p.Barrier()
			if p.Rank() == 0 {
				ready = append(ready, float64(time.Since(t0).Nanoseconds()))
			}
			w.Free()
		})
	}
	slices.Sort(ready)
	b.ReportMetric(ready[len(ready)/20], "ready-ns-p5")
	b.ReportMetric(ready[len(ready)/2], "ready-ns-p50")
}
