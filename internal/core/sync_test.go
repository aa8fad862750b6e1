package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

func TestPSCWRing(t *testing.T) {
	// The Fig. 6c pattern: a ring where every rank exposes to and accesses
	// its two neighbors (k=2).
	for _, n := range []int{2, 3, 4, 8, 16} {
		run(t, n, 4, func(p *spmd.Proc) {
			w, mem := Allocate(p, 64, Config{})
			defer w.Free()
			left := (p.Rank() - 1 + n) % n
			right := (p.Rank() + 1) % n
			group := []int{left, right}
			if n == 2 {
				group = []int{left} // left == right
			}
			for iter := 0; iter < 5; iter++ {
				w.Post(group)
				w.Start(group)
				var v [8]byte
				binary.LittleEndian.PutUint64(v[:], uint64(p.Rank()*1000+iter))
				w.Put(v[:], left, 0)
				w.Put(v[:], right, 8)
				w.Complete()
				w.WaitEpoch()
				gotR := binary.LittleEndian.Uint64(mem[0:])
				gotL := binary.LittleEndian.Uint64(mem[8:])
				if gotR != uint64(right*1000+iter) {
					t.Errorf("n=%d iter %d rank %d: from right %d", n, iter, p.Rank(), gotR)
				}
				if gotL != uint64(left*1000+iter) {
					t.Errorf("n=%d iter %d rank %d: from left %d", n, iter, p.Rank(), gotL)
				}
			}
		})
	}
}

// TestPSCWStartAndWaitStamps instruments DESIGN §5's account of P_start and
// P_wait (5 ns, one intra-node poll) in bench.Models' PSCW ring: 8 ranks, 4 a
// node, k = 2, a barrier between 51 rounds, the model read on rank 4.
//   - Every call costs exactly its poll plus whatever the stamps it reads lie
//     past its entry clock: a Start ends one poll after the later of its entry
//     and the posts it matched, a WaitEpoch at the later of one poll past its
//     entry and the completes it counted.
//   - On the ranks with an off-node neighbour (0, 3, 4, 7), whose own Complete
//     waits out an inter-node add, no WaitEpoch reads a complete stamped after
//     its entry: P_wait is one poll.
//   - On rank 4, most Starts read only posts stamped before entry, so the
//     median is one poll. The rest match a neighbour's post that landed late
//     because the neighbour lost the race on the counter (bench's
//     orderDependentModelRow); in 300 runs at most 22 of 51 did.
//
// So the 5 ns is the measured rank's, not the ring's: on ranks 1, 2, 5 and 6,
// whose neighbours share their node, a Post is intra-node only and can end
// before a neighbour's, which first waits out an inter-node fetch-add. In 300
// runs ranks 5 and 6 merged a later post in every Start, ranks 1 and 2 in
// 3 to 47 of 51; the test logs each rank's count.
func TestPSCWStartAndWaitStamps(t *testing.T) {
	const n, reps = 8, 51
	poll := timing.Time(simnet.FoMPI().Intra.PollNs)
	run(t, n, 4, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		defer w.Free()
		me := p.Rank()
		group := []int{(me + n - 1) % n, (me + 1) % n}
		lateStarts, lateWaits := 0, 0
		for r := 0; r < reps; r++ {
			w.Post(group)
			base := w.postBase
			t0 := p.Now()
			w.Start(group)
			read := t0
			for tk := base; tk < w.postBase; tk++ {
				read = max(read, w.ctl.StampMax(postSlot(tk), 8))
			}
			if want := read + poll; p.Now() != want {
				t.Errorf("rank %d round %d: Start entered at %d, its posts were stamped by %d, and it ended at %d, not %d", me, r, t0, read, p.Now(), want)
			}
			if read > t0 {
				lateStarts++
			}
			w.Complete()
			t0 = p.Now()
			w.WaitEpoch()
			read = w.ctl.StampMax(ctlComplete, 8)
			if want := max(t0+poll, read); p.Now() != want {
				t.Errorf("rank %d round %d: WaitEpoch entered at %d, its completes were stamped %d, and it ended at %d, not %d", me, r, t0, read, p.Now(), want)
			}
			if read > t0 {
				lateWaits++
			}
			p.Barrier()
		}
		offNode := !p.SameNode(group[0]) || !p.SameNode(group[1])
		if offNode && lateWaits > 0 {
			t.Errorf("rank %d, an off-node neighbour: %d of %d WaitEpochs read a complete stamped after entry", me, lateWaits, reps)
		}
		if me == 4 && 2*lateStarts >= reps {
			t.Errorf("rank 4: %d of %d Starts read a post stamped after entry, so their median is not one poll", lateStarts, reps)
		}
		t.Logf("rank %d: %d of %d Starts and %d WaitEpochs read a stamp past entry", me, lateStarts, reps, lateWaits)
	})
}

// runWithin is spmd.Run bounded by d: a world still running after d fails
// the test as hung (and is left parked).
func runWithin(t *testing.T, d time.Duration, cfg spmd.Config, body func(p *spmd.Proc)) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- spmd.Run(cfg, body) }()
	select {
	case err := <-errc:
		return err
	case <-time.After(d):
		t.Fatalf("the world hung for %v", d)
		return nil
	}
}

// TestPSCWMatchingListReusesSlots: the matching list bounds the posts
// outstanding at a rank, not the posts a window receives over its life, so
// 20 000 epochs into one rank — 78 turns of its 256-slot ring — all match.
func TestPSCWMatchingListReusesSlots(t *testing.T) {
	const epochs = 20_000
	err := runWithin(t, time.Minute, spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
		w, mem := Allocate(p, 64, Config{})
		defer w.Free()
		for e := range epochs {
			if p.Rank() == 0 {
				w.Post([]int{1})
				w.WaitEpoch()
				if got := binary.LittleEndian.Uint64(mem); got != uint64(e)+1 {
					panic(fmt.Sprintf("epoch %d: rank 0 holds %d, want %d", e, got, e+1))
				}
			} else {
				w.Start([]int{0})
				var v [8]byte
				binary.LittleEndian.PutUint64(v[:], uint64(e)+1)
				w.Put(v[:], 0, 0)
				w.Complete()
			}
		}
		if p.Rank() == 1 && w.postBase != epochs {
			t.Errorf("rank 1 matched %d posts, yet its oldest unmatched ticket is %d", epochs, w.postBase)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPSCWOutstandingPostsFaultAtStart: maxPosts posts queued into one rank
// are the bound, and all match; one more faults by name at that rank's
// Start, the list's owner, instead of overwriting an unmatched post.
func TestPSCWOutstandingPostsFaultAtStart(t *testing.T) {
	err := runWithin(t, 30*time.Second, spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		defer w.Free()
		for _, queued := range []int{maxPosts, maxPosts + 1} {
			if p.Rank() == 0 {
				for range queued {
					w.Post([]int{1})
				}
			}
			p.Barrier()
			for range queued {
				if p.Rank() == 1 {
					w.Start([]int{0})
					w.Complete()
				} else {
					w.WaitEpoch()
				}
			}
		}
	})
	want := fmt.Sprintf("rank 1 panicked: core: matching list of rank 1 overflowed: %d posts outstanding, bound %d", maxPosts+1, maxPosts)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%d posts queued into one rank ended the world with %v, want %q", maxPosts+1, err, want)
	}
}

// TestPSCWStartWaitsForReusedSlot: a ticket whose slot still holds the post
// of the ticket maxPosts before it is not yet posted. Rank 1 takes ticket
// maxPosts at rank 0, and writes its slot only after 1 ms of compute, and
// only once rank 0 has been in Start for 20 ms of host time; rank 0's Start
// must wait for that write and merge its stamp, not match the stale post of
// ticket 0 in the same slot.
func TestPSCWStartWaitsForReusedSlot(t *testing.T) {
	var starting atomic.Bool
	run(t, 2, 1, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		defer w.Free()
		for range maxPosts {
			if p.Rank() == 1 {
				w.Post([]int{0})
				w.WaitEpoch()
			} else {
				w.Start([]int{1})
				w.Complete()
			}
		}
		if p.Rank() == 1 {
			tk := w.ep.FetchOp(w.ctlAddr(0, ctlPostCount), simnet.AmoSum, 1)
			p.Barrier()
			for !starting.Load() {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			p.Compute(1_000_000)
			w.ep.StoreW(w.ctlAddr(0, postSlot(tk)), tk<<32|2) // Post's word: ticket, rank+1
			w.ep.Gsync()
			p.Barrier()
			return
		}
		p.Barrier()
		t0 := p.Now()
		starting.Store(true)
		w.Start([]int{1})
		if got := p.Now() - t0; got < 1_000_000 {
			t.Errorf("Start matched ticket %d's post %d ns after entry, before rank 1 wrote it", maxPosts, got)
		}
		w.Complete()
		p.Barrier()
	})
}

// TestFreeUnderPanicAbortsWorld: a rank that faults under a deferred Free
// aborts the world, so a peer blocked in Start for its post unwinds, rather
// than parking in Free's closing barrier.
func TestFreeUnderPanicAbortsWorld(t *testing.T) {
	err := runWithin(t, 10*time.Second, spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		defer w.Free()
		if p.Rank() == 0 {
			panic("boom")
		}
		w.Start([]int{0})
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 panicked: boom") {
		t.Fatalf("a rank's panic under a deferred Free ended the world with %v, want rank 0's panic", err)
	}
}

func TestPSCWStartBlocksUntilPost(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, mem := Allocate(p, 64, Config{})
		defer w.Free()
		if p.Rank() == 1 {
			p.Compute(800_000) // post arrives at t≈800µs
			w.Post([]int{0})
			w.WaitEpoch()
			if binary.LittleEndian.Uint64(mem) != 42 {
				t.Error("data missing after wait")
			}
			return
		}
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], 42)
		w.Start([]int{1})
		if p.Now().Micros() < 800 {
			t.Errorf("start returned at %.1fµs, before the matching post", p.Now().Micros())
		}
		w.Put(v[:], 1, 0)
		w.Complete()
	})
}

func TestPSCWWaitBlocksUntilComplete(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		defer w.Free()
		if p.Rank() == 0 {
			w.Post([]int{1})
			w.WaitEpoch()
			if p.Now().Micros() < 500 {
				t.Errorf("wait returned at %.1fµs before complete", p.Now().Micros())
			}
			return
		}
		w.Start([]int{0})
		p.Compute(500_000)
		w.Complete()
	})
}

func TestPSCWTwoDistinctMatches(t *testing.T) {
	// The paper's Fig. 2a program: process 0 matches {1,2} then {3}.
	run(t, 4, 2, func(p *spmd.Proc) {
		w, mem := Allocate(p, 64, Config{})
		defer w.Free()
		switch p.Rank() {
		case 0:
			w.Start([]int{1, 2})
			w.Put([]byte{1, 0, 0, 0, 0, 0, 0, 1}, 1, 0)
			w.Put([]byte{2, 0, 0, 0, 0, 0, 0, 2}, 2, 0)
			w.Complete()
			w.Start([]int{3})
			w.Put([]byte{3, 0, 0, 0, 0, 0, 0, 3}, 3, 0)
			w.Complete()
		case 1, 2:
			w.Post([]int{0})
			w.WaitEpoch()
			if mem[0] != byte(p.Rank()) {
				t.Errorf("rank %d got %d", p.Rank(), mem[0])
			}
		case 3:
			w.Post([]int{0})
			w.WaitEpoch()
			if mem[0] != 3 {
				t.Errorf("rank 3 got %d", mem[0])
			}
		}
	})
}

func TestPSCWTestEpoch(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		defer w.Free()
		if p.Rank() == 0 {
			w.Post([]int{1})
			for !w.TestEpoch() {
			}
			return
		}
		w.Start([]int{0})
		w.Complete()
	})
}

func TestFenceOrdersEpochs(t *testing.T) {
	run(t, 4, 1, func(p *spmd.Proc) {
		w, mem := Allocate(p, 8, Config{})
		defer w.Free()
		w.Fence()
		for iter := 0; iter < 10; iter++ {
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], uint64(iter)<<8|uint64(p.Rank()))
			w.Put(v[:], (p.Rank()+1)%4, 0)
			w.Fence()
			got := binary.LittleEndian.Uint64(mem)
			if int(got>>8) != iter || int(got&0xff) != (p.Rank()+3)%4 {
				t.Errorf("iter %d rank %d: got %#x", iter, p.Rank(), got)
			}
			w.Fence()
		}
	})
}

// TestFenceCompletesEpochGets: a Fence completes the epoch's operations
// remotely (its gsync) before its barrier, so a rank that gets 64 KiB from
// its peer on another node leaves the Fence no sooner than the same get,
// completed alone by its request, takes. The barrier alone ends sooner: the
// peer's flag does not wait for the get's reply.
func TestFenceCompletesEpochGets(t *testing.T) {
	const size = 64 << 10
	run(t, 2, 1, func(p *spmd.Proc) {
		w, _ := Allocate(p, size, Config{})
		defer w.Free()
		buf, peer := make([]byte, size), 1-p.Rank()
		w.Fence()
		t0 := p.Now()
		w.WaitRequest(w.RGet(buf, peer, 0))
		alone := p.Now() - t0
		w.Fence()
		t0 = p.Now()
		w.Get(buf, peer, 0)
		w.Fence()
		if fenced := p.Now() - t0; fenced < alone {
			t.Errorf("rank %d: a get and a Fence took %d ns, less than the get alone (%d ns)", p.Rank(), fenced, alone)
		}
	})
}

func TestLockSharedExclusiveExclusion(t *testing.T) {
	// Property: no reader may observe the counter mid-update by a writer.
	const n, iters = 8, 50
	run(t, n, 4, func(p *spmd.Proc) {
		w, mem := Allocate(p, 16, Config{})
		defer w.Free()
		w.Fence()
		rng := rand.New(rand.NewSource(int64(p.Rank())))
		for i := 0; i < iters; i++ {
			if rng.Intn(2) == 0 { // writer: keep the two words equal
				w.Lock(LockExclusive, 0)
				var a, b [8]byte
				w.Get(a[:], 0, 0)
				w.Flush(0)
				v := binary.LittleEndian.Uint64(a[:]) + 1
				binary.LittleEndian.PutUint64(b[:], v)
				w.Put(b[:], 0, 0)
				w.Flush(0)
				w.Put(b[:], 0, 8)
				w.Unlock(0)
			} else { // reader: both words must agree under the shared lock
				w.Lock(LockShared, 0)
				var a, b [8]byte
				w.Get(a[:], 0, 0)
				w.Get(b[:], 0, 8)
				w.Flush(0)
				x := binary.LittleEndian.Uint64(a[:])
				y := binary.LittleEndian.Uint64(b[:])
				if x != y {
					t.Errorf("reader saw torn state %d != %d", x, y)
				}
				w.Unlock(0)
			}
		}
		p.Barrier()
		_ = mem
	})
}

func TestLockAllExcludesExclusive(t *testing.T) {
	// While any rank holds lock_all, exclusive locks must wait — and vice
	// versa (the two halves of the global word).
	const n = 6
	var inLockAll, inExcl int64
	run(t, n, 2, func(p *spmd.Proc) {
		w, _ := Allocate(p, 8, Config{})
		defer w.Free()
		for i := 0; i < 30; i++ {
			if p.Rank()%2 == 0 {
				w.LockAll()
				atomic.AddInt64(&inLockAll, 1)
				if atomic.LoadInt64(&inExcl) != 0 {
					t.Error("lock_all and exclusive lock held concurrently")
				}
				atomic.AddInt64(&inLockAll, -1)
				w.UnlockAll()
			} else {
				w.Lock(LockExclusive, 3)
				atomic.AddInt64(&inExcl, 1)
				if atomic.LoadInt64(&inLockAll) != 0 {
					t.Error("exclusive lock and lock_all held concurrently")
				}
				atomic.AddInt64(&inExcl, -1)
				w.Unlock(3)
			}
		}
	})
}

func TestExclusiveLockMutualExclusion(t *testing.T) {
	const n = 8
	var holders int64
	run(t, n, 4, func(p *spmd.Proc) {
		w, _ := Allocate(p, 8, Config{})
		defer w.Free()
		for i := 0; i < 40; i++ {
			w.Lock(LockExclusive, 2)
			if atomic.AddInt64(&holders, 1) != 1 {
				t.Error("two exclusive holders")
			}
			atomic.AddInt64(&holders, -1)
			w.Unlock(2)
		}
	})
}

func TestSharedLocksAdmitManyReaders(t *testing.T) {
	run(t, 4, 2, func(p *spmd.Proc) {
		w, _ := Allocate(p, 8, Config{})
		defer w.Free()
		w.Lock(LockShared, 0) // all four ranks hold it concurrently
		p.Barrier()           // would deadlock if shared locks excluded each other
		w.Unlock(0)
	})
}

func TestSecondExclusiveLockSkipsGlobal(t *testing.T) {
	run(t, 3, 1, func(p *spmd.Proc) {
		w, _ := Allocate(p, 8, Config{})
		defer w.Free()
		if p.Rank() == 0 {
			base := p.EP().Counters()
			w.Lock(LockExclusive, 1)
			first := p.EP().Counters().Sub(base).Amos
			base = p.EP().Counters()
			w.Lock(LockExclusive, 2)
			second := p.EP().Counters().Sub(base).Amos
			if first < 2 {
				t.Errorf("first exclusive lock used %d AMOs, want ≥2 (global+local)", first)
			}
			if second != 1 {
				t.Errorf("second exclusive lock used %d AMOs, want 1 (local CAS only)", second)
			}
			w.Unlock(2)
			w.Unlock(1)
		}
		p.Barrier()
	})
}

func TestLockStateErrors(t *testing.T) {
	cases := []struct {
		name string
		body func(w *Win)
	}{
		{"unlock-without-lock", func(w *Win) { w.Unlock(0) }},
		{"double-lock-same-target", func(w *Win) { w.Lock(LockShared, 0); w.Lock(LockShared, 0) }},
		{"nested-lockall", func(w *Win) { w.LockAll(); w.LockAll() }},
		{"unlockall-without", func(w *Win) { w.UnlockAll() }},
		{"lock-inside-lockall", func(w *Win) { w.LockAll(); w.Lock(LockShared, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := spmd.Run(spmd.Config{Ranks: 1}, func(p *spmd.Proc) {
				w, _ := Allocate(p, 8, Config{})
				tc.body(w)
			})
			if err == nil {
				t.Fatalf("%s must fault", tc.name)
			}
		})
	}
}

func TestFlushMakesDataVisible(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, mem := Allocate(p, 16, Config{})
		defer w.Free()
		if p.Rank() == 0 {
			w.LockAll()
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], 7777)
			w.Put(v[:], 1, 0)
			w.Flush(1)
			// Notify via an atomic after the flush: the MILC pattern.
			w.FetchAndOp(AccSum, 1, 1, 8)
			w.UnlockAll()
			return
		}
		w.LockAll()
		for w.FetchAndOp(AccNoOp, 0, 1, 8) == 0 {
		}
		if got := binary.LittleEndian.Uint64(mem); got != 7777 {
			t.Errorf("flag visible before flushed data: %d", got)
		}
		w.UnlockAll()
	})
}

// BenchmarkLockAll times the world's lock_all round — every rank runs
// LockAll, FlushAll and UnlockAll on one window — in process, four ranks a
// node, as the benchmark's proc_sync workload runs it. ns/op is one round of
// the whole world; ns/rank divides it by p, so a global lock word that
// convoys its p fetch-adds shows as a per-rank time that grows with p.
func BenchmarkLockAll(b *testing.B) {
	for _, p := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			spmd.MustRun(spmd.Config{Ranks: p, RanksPerNode: 4}, func(pr *spmd.Proc) {
				w, _ := Allocate(pr, 64, Config{})
				pr.Barrier()
				if pr.Rank() == 0 { // the calling goroutine: it owns b
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					w.LockAll()
					w.FlushAll()
					w.UnlockAll()
				}
				pr.Barrier()
				if pr.Rank() == 0 {
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p), "ns/rank")
				}
				w.Free()
			})
		})
	}
}
