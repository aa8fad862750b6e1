package spmd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"fompi/internal/timing"
)

func TestRunSpawnsAllRanks(t *testing.T) {
	var count int64
	err := Run(Config{Ranks: 17}, func(p *Proc) {
		atomic.AddInt64(&count, 1)
		if p.Size() != 17 {
			t.Errorf("Size = %d", p.Size())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 17 {
		t.Fatalf("ran %d ranks, want 17", count)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	err := Run(Config{Ranks: 8}, func(p *Proc) {
		if p.Rank() == 3 {
			panic("boom")
		}
		p.Barrier() // the others block; abort must free them
	})
	if err == nil || !errors.Is(err, err) || err.Error() != "rank 3 panicked: boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestNodePlacement(t *testing.T) {
	err := Run(Config{Ranks: 8, RanksPerNode: 4}, func(p *Proc) {
		if want := p.Rank() / 4; p.Node() != want {
			t.Errorf("rank %d on node %d, want %d", p.Rank(), p.Node(), want)
		}
		if p.SameNode((p.Rank() + 4) % 8) {
			t.Errorf("rank %d should not share a node with rank %d", p.Rank(), (p.Rank()+4)%8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16, 33} {
		var phase int64
		err := Run(Config{Ranks: n, RanksPerNode: 4}, func(p *Proc) {
			atomic.AddInt64(&phase, 1)
			p.Barrier()
			if got := atomic.LoadInt64(&phase); got != int64(n) {
				t.Errorf("n=%d rank %d: saw phase %d after barrier", n, p.Rank(), got)
			}
			p.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBarrierVirtualTimeGrowsLogP(t *testing.T) {
	lat := func(n int) timing.Time {
		var worst int64
		MustRun(Config{Ranks: n, RanksPerNode: 1}, func(p *Proc) {
			p.Barrier() // warm up, align clocks
			start := p.Now()
			p.Barrier()
			hostatomicMax(&worst, int64(p.Now()-start))
		})
		return timing.Time(worst)
	}
	t4, t64 := lat(4), lat(64)
	if t64 <= t4 {
		t.Fatalf("barrier time must grow with p: %v (p=4) vs %v (p=64)", t4, t64)
	}
	// log2(64)/log2(4) = 3; allow generous slack but reject linear growth (16x).
	if float64(t64)/float64(t4) > 8 {
		t.Fatalf("barrier growth looks super-logarithmic: %v -> %v", t4, t64)
	}
}

func hostatomicMax(p *int64, v int64) {
	for {
		c := atomic.LoadInt64(p)
		if v <= c || atomic.CompareAndSwapInt64(p, c, v) {
			return
		}
	}
}

func TestBcast8AllRoots(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 13, 32} {
		err := Run(Config{Ranks: n, RanksPerNode: 4}, func(p *Proc) {
			for root := 0; root < n; root++ {
				var v uint64
				if p.Rank() == root {
					v = uint64(root)*1000 + 7
				}
				got := p.Bcast8(root, v)
				if got != uint64(root)*1000+7 {
					t.Errorf("n=%d root=%d rank=%d: got %d", n, root, p.Rank(), got)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduce8Ops(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8, 16, 31} {
		err := Run(Config{Ranks: n, RanksPerNode: 4}, func(p *Proc) {
			r := uint64(p.Rank())
			if got, want := p.Allreduce8(OpSum, r+1), uint64(n*(n+1)/2); got != want {
				t.Errorf("n=%d sum: got %d want %d", n, got, want)
			}
			if got := p.Allreduce8(OpMin, r+5); got != 5 {
				t.Errorf("n=%d min: got %d", n, got)
			}
			if got, want := p.Allreduce8(OpMax, r), uint64(n-1); got != want {
				t.Errorf("n=%d max: got %d want %d", n, got, want)
			}
			if got := p.Allreduce8(OpBor, uint64(1)<<(p.Rank()%60)); got == 0 {
				t.Errorf("n=%d bor: got 0", n)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceFloatSum(t *testing.T) {
	const n = 9
	err := Run(Config{Ranks: n}, func(p *Proc) {
		v := math.Float64bits(0.5 * float64(p.Rank()+1))
		got := math.Float64frombits(p.Allreduce8(OpFSum, v))
		want := 0.5 * float64(n*(n+1)/2)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("fsum: got %g want %g", got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllgather gathers 8-byte blocks and then 40 KiB ones, past the 64 KiB a
// world once reserved for every collective payload: the area is the call's.
func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17} {
		err := Run(Config{Ranks: n, RanksPerNode: 4}, func(p *Proc) {
			for _, each := range []int{8, 40 << 10} {
				mine := make([]byte, each)
				for i := range mine {
					mine[i] = byte(p.Rank()*31 + i)
				}
				all := p.Allgather(mine)
				for r := 0; r < n; r++ {
					for i := 0; i < each; i++ {
						if got, want := all[r*each+i], byte(r*31+i); got != want {
							t.Errorf("n=%d rank %d, %d B blocks: block %d byte %d is %d, want %d", n, p.Rank(), each, r, i, got, want)
							return
						}
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCollectivesComposeRepeatedly(t *testing.T) {
	// Interleaving different collectives many times must not corrupt the
	// shared scratch region (seq-number isolation).
	const n = 8
	err := Run(Config{Ranks: n, RanksPerNode: 2}, func(p *Proc) {
		rng := rand.New(rand.NewSource(99)) // same stream on all ranks
		for i := 0; i < 50; i++ {
			switch rng.Intn(4) {
			case 0:
				p.Barrier()
			case 1:
				root := rng.Intn(n)
				want := uint64(i*31 + root)
				v := uint64(0)
				if p.Rank() == root {
					v = want
				}
				if got := p.Bcast8(root, v); got != want {
					t.Errorf("iter %d bcast: got %d want %d", i, got, want)
				}
			case 2:
				if got, want := p.Allreduce8(OpSum, 1), uint64(n); got != want {
					t.Errorf("iter %d allreduce: got %d want %d", i, got, want)
				}
			case 3:
				all := p.Allgather([]byte{byte(p.Rank())})
				for r := 0; r < n; r++ {
					if all[r] != byte(r) {
						t.Errorf("iter %d allgather: block %d = %d", i, r, all[r])
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAllreduceMatchesSequential(t *testing.T) {
	err := quick.Check(func(vals []uint16, opSel uint8) bool {
		if len(vals) == 0 || len(vals) > 12 {
			return true
		}
		op := []Op{OpSum, OpMin, OpMax, OpBand, OpBor}[int(opSel)%5]
		want := uint64(vals[0])
		for _, v := range vals[1:] {
			want = op.Apply(want, uint64(v))
		}
		ok := true
		MustRun(Config{Ranks: len(vals), RanksPerNode: 3}, func(p *Proc) {
			if got := p.Allreduce8(op, uint64(vals[p.Rank()])); got != want {
				ok = false
			}
		})
		return ok
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllgatherUnequalBlocksFault: the handshake carries each rank's block
// size to its left neighbour, so a rank whose block differs from its right
// neighbour's faults, naming both sizes, before any block moves.
func TestAllgatherUnequalBlocksFault(t *testing.T) {
	err := Run(Config{Ranks: 4, RanksPerNode: 2}, func(p *Proc) {
		each := 8
		if p.Rank() == 2 {
			each = 9
		}
		p.Allgather(make([]byte, each))
	})
	if err == nil || !regexp.MustCompile(`rank 1 gives 8 B, rank 2 gives 9 B|rank 2 gives 9 B, rank 3 gives 8 B`).MatchString(err.Error()) {
		t.Fatalf("unequal Allgather blocks: got %v, want a fault naming both ranks' sizes", err)
	}
}

// TestAllgatherWaitsForEveryRegistration: rank 1 registers its area 20 ms of
// host time after its peers, so its left neighbour's first write would reach
// an unregistered key unless a writer waits for its right neighbour's
// handshake.
func TestAllgatherWaitsForEveryRegistration(t *testing.T) {
	const n = 4
	err := Run(Config{Ranks: n, RanksPerNode: 2}, func(p *Proc) {
		for i := 0; i < 3; i++ {
			if p.Rank() == 1 {
				time.Sleep(20 * time.Millisecond)
			}
			all := p.Allgather([]byte{byte(p.Rank()), byte(i)})
			for r := 0; r < n; r++ {
				if all[2*r] != byte(r) || all[2*r+1] != byte(i) {
					t.Errorf("rank %d call %d: block %d = %v", p.Rank(), i, r, all[2*r:2*r+2])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorldHeapPerRankIsFlat: a bare in-process world — 16 ranks a node, two
// barriers — holds the same live heap a rank at p = 256 and p = 4096, and at
// most 32 KiB of it. A term in p (collective scratch sized by the world, say)
// fails by name.
func TestWorldHeapPerRankIsFlat(t *testing.T) {
	small, large := worldHeapPerRank(256), worldHeapPerRank(4096)
	t.Logf("live heap a rank: %.0f B at p = 256, %.0f B at p = 4096", small, large)
	for _, b := range []float64{small, large} {
		if b > 32<<10 {
			t.Errorf("a bare world holds %.0f B a rank, past 32 KiB", b)
		}
	}
	if d := math.Abs(large-small) / small; d > 0.10 {
		t.Errorf("heap a rank moves %.0f%% from p = 256 to 4096 (%.0f → %.0f B): a term in p", 100*d, small, large)
	}
}

// worldHeapPerRank boots a bare world of p ranks on a zero World, runs two
// barriers, and returns the live heap it added, a rank, as rank 0 sees it
// after a GC while every other rank waits in a third barrier.
func worldHeapPerRank(p int) float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle drains what sync.Pools moved to their victim caches
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	var during uint64
	err := new(World).run(Config{Ranks: p, RanksPerNode: 16}.withDefaults(), func(pr *Proc) {
		pr.Barrier()
		pr.Barrier()
		if pr.Rank() == 0 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			during = ms.HeapAlloc
		}
		pr.Barrier()
	})
	if err != nil {
		panic(err)
	}
	return float64(int64(during)-int64(before)) / float64(p)
}

// The in-process launcher runs rank 0 on Run's calling goroutine. The four
// tests below are that arrangement's edges.

func TestRunRank0PanicAbortsWorld(t *testing.T) {
	err := Run(Config{Ranks: 4}, func(p *Proc) {
		if p.Rank() == 0 {
			panic("boom")
		}
		p.Barrier() // the goroutine ranks block; the caller's abort must free them
	})
	if err == nil || err.Error() != "rank 0 panicked: boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestRunPeerPanicUnwindsCaller(t *testing.T) {
	var parked atomic.Bool
	err := Run(Config{Ranks: 4}, func(p *Proc) {
		if p.Rank() == 1 {
			for !parked.Load() {
				runtime.Gosched()
			}
			panic("boom")
		}
		if p.Rank() == 0 {
			parked.Store(true)
		}
		p.Barrier() // rank 0, the caller, waits here for a rank that never comes
	})
	// Rank 1's own failure, not the abort symptom rank 0 unwound with.
	if err == nil || err.Error() != "rank 1 panicked: boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestRunNestedFromRank0(t *testing.T) {
	var inner atomic.Int64
	err := Run(Config{Ranks: 3}, func(p *Proc) {
		if p.Rank() == 0 {
			MustRun(Config{Ranks: 5}, func(q *Proc) {
				inner.Add(int64(q.Allreduce8(OpSum, 1)))
			})
		}
		if got := p.Allreduce8(OpSum, uint64(p.Rank())); got != 3 {
			t.Errorf("outer allreduce after the nested world = %d, want 3", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if inner.Load() != 25 {
		t.Fatalf("nested world: sum of allreduce results = %d, want 25", inner.Load())
	}
}

func TestRunOneRankSpawnsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	var during int
	if err := Run(Config{Ranks: 1}, func(p *Proc) { during = runtime.NumGoroutine() }); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); during != before || after != before {
		t.Fatalf("goroutines: %d before Run, %d in the body, %d after", before, during, after)
	}
}

// TestRunReusesRankGoroutines: ranks 1…p−1 run on workers that outlive their
// world. The worlds after the first run on the goroutines it left, and leave
// the count where it left it, as does a world whose rank panicked followed by
// a clean one; a rank body that calls runtime.Goexit ends its worker without
// hanging Run.
func TestRunReusesRankGoroutines(t *testing.T) {
	const p = 4
	during := math.MaxInt // the fewest goroutines rank 0, the caller, saw with every rank running
	allreduce := func(q *Proc) {
		if got := q.Allreduce8(OpSum, 1); got != p {
			panic(fmt.Sprintf("allreduce = %d, want %d", got, p))
		}
		if q.Rank() == 0 {
			during = min(during, runtime.NumGoroutine())
		}
		q.Barrier() // no rank has returned while rank 0 counts
	}
	// settled reports whether the goroutine count comes down to at most want:
	// a goroutine another test left may still be on its way out.
	settled := func(want int) (int, bool) {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return n, n <= want
	}
	MustRun(Config{Ranks: p}, allreduce)
	base := runtime.NumGoroutine()
	during = math.MaxInt
	for i := 0; i < 50; i++ {
		MustRun(Config{Ranks: p}, allreduce)
	}
	if during > base {
		t.Fatalf("every one of 50 worlds ran its ranks on new goroutines: %d running, %d after the first world", during, base)
	}
	if n, ok := settled(base); !ok {
		t.Fatalf("50 worlds of %d ranks took the goroutine count from %d to %d", p, base, n)
	}

	err := Run(Config{Ranks: p}, func(q *Proc) {
		if q.Rank() == 2 {
			panic("boom")
		}
		q.Barrier()
	})
	if err == nil || err.Error() != "rank 2 panicked: boom" {
		t.Fatalf("err = %v, want rank 2's panic", err)
	}
	MustRun(Config{Ranks: p}, allreduce)
	if n, ok := settled(base); !ok {
		t.Fatalf("a world whose rank panicked, then a clean one, took the goroutine count from %d to %d", base, n)
	}

	ran := make(chan error, 1)
	go func() {
		ran <- Run(Config{Ranks: p}, func(q *Proc) {
			if q.Rank() == p-1 {
				runtime.Goexit()
			}
		})
	}()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("a world whose rank called runtime.Goexit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after a rank body called runtime.Goexit")
	}
	MustRun(Config{Ranks: p}, allreduce)
}
