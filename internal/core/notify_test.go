package core

import (
	"bytes"
	"testing"

	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

func TestPutNotifyDeliversDataAndTag(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, mem := Allocate(p, 256, Config{})
		defer w.Free()
		if p.Rank() == 0 {
			w.LockAll()
			w.PutNotify([]byte("pipelined!"), 1, 32, 5)
			w.UnlockAll()
			return
		}
		seq := w.WaitNotify(5)
		if seq != 1 {
			t.Errorf("first notification sequence = %d, want 1", seq)
		}
		// The data must be visible (and causally stamped) after the wait.
		if !bytes.Equal(mem[32:42], []byte("pipelined!")) {
			t.Errorf("data not visible after WaitNotify: %q", mem[32:42])
		}
	})
}

func TestWaitNotifyMergesDataTime(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, _ := Allocate(p, 1<<20, Config{})
		defer w.Free()
		if p.Rank() == 0 {
			w.LockAll()
			w.PutNotify(make([]byte, 1<<20), 1, 0, 1)
			w.UnlockAll()
			return
		}
		w.WaitNotify(1)
		// A 1 MiB transfer takes ≥ size/bandwidth virtual time; the consumer
		// clock must reflect it even though it never synchronized an epoch.
		min := timing.Time((1 << 20) / 10) // 0.1 ns/B, well below the model's 0.16
		if p.Now() < min {
			t.Errorf("consumer clock %d ns too low for a 1 MiB notified put (want ≥ %d)", p.Now(), min)
		}
	})
}

func TestGetNotifyNotifiesTarget(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, mem := Allocate(p, 64, Config{})
		defer w.Free()
		if p.Rank() == 1 {
			copy(mem, "consume!")
			p.Barrier()
			w.WaitNotify(3) // learn the reader is done; buffer reusable
			return
		}
		p.Barrier()
		dst := make([]byte, 8)
		w.Lock(LockShared, 1)
		w.GetNotify(dst, 1, 0, 3)
		w.Unlock(1)
		if !bytes.Equal(dst, []byte("consume!")) {
			t.Errorf("GetNotify data = %q", dst)
		}
	})
}

func TestTestNotifyNonblocking(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		defer w.Free()
		if p.Rank() == 0 {
			// Nothing can have been sent yet: the producer blocks on the
			// barrier below before notifying.
			if _, ok := w.TestNotify(9); ok {
				t.Error("TestNotify before any send must fail")
			}
			p.Barrier()
			for {
				if seq, ok := w.TestNotify(9); ok {
					if seq != 1 {
						t.Errorf("seq = %d, want 1", seq)
					}
					break
				}
			}
			return
		}
		p.Barrier()
		w.LockAll()
		w.Notify(0, 9)
		w.UnlockAll()
	})
}

func TestNotifyTagMatchingOutOfOrder(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		defer w.Free()
		if p.Rank() == 0 {
			w.Notify(1, 10)
			w.Notify(1, 20)
			w.Notify(1, 30)
			return
		}
		// Consume in reverse tag order: matching is by tag, not arrival.
		if seq := w.WaitNotify(30); seq != 3 {
			t.Errorf("tag 30 seq = %d, want 3", seq)
		}
		if seq := w.WaitNotify(20); seq != 2 {
			t.Errorf("tag 20 seq = %d, want 2", seq)
		}
		if seq := w.WaitNotify(10); seq != 1 {
			t.Errorf("tag 10 seq = %d, want 1", seq)
		}
		if w.PendingNotify() != 0 {
			t.Errorf("pending = %d after consuming all", w.PendingNotify())
		}
	})
}

func TestNotifySameTagFIFO(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		defer w.Free()
		if p.Rank() == 0 {
			for i := 0; i < 5; i++ {
				w.Notify(1, 7)
			}
			return
		}
		for i := 1; i <= 5; i++ {
			if seq := w.WaitNotify(7); int(seq) != i {
				t.Fatalf("same-tag delivery out of order: seq %d, want %d", seq, i)
			}
		}
	})
}

func TestNotifyConcurrentProducersToOneConsumer(t *testing.T) {
	const producers = 7
	run(t, producers+1, 4, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		defer w.Free()
		// All producers' notifications fit the ring at once, so none
		// overflows it however late the consumer drains.
		const each = maxNotify / producers
		if p.Rank() < producers {
			for i := 0; i < each; i++ {
				w.Notify(producers, uint32(p.Rank()+1))
			}
			p.Barrier()
			return
		}
		// Per-producer FIFO: sequences per tag must come out 1..each.
		for i := 1; i <= each; i++ {
			for pr := 0; pr < producers; pr++ {
				if seq := w.WaitNotify(uint32(pr + 1)); int(seq) != i {
					t.Fatalf("producer %d notification %d carried seq %d", pr, i, seq)
				}
			}
		}
		p.Barrier()
	})
}

func TestNotifyMonotoneVirtualTime(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, _ := Allocate(p, 1024, Config{})
		defer w.Free()
		if p.Rank() == 0 {
			w.LockAll()
			for i := 0; i < 10; i++ {
				w.PutNotify(make([]byte, 64), 1, 0, uint32(i))
			}
			w.UnlockAll()
			return
		}
		var prev timing.Time
		for i := 0; i < 10; i++ {
			w.WaitNotify(uint32(i))
			if p.Now() < prev {
				t.Fatalf("consumer clock regressed: %d after %d", p.Now(), prev)
			}
			prev = p.Now()
		}
	})
}

func TestNotifyRingOverflowFaultsLoudly(t *testing.T) {
	err := spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		if p.Rank() == 0 {
			for i := 0; i < 2*maxNotify; i++ { // consumer never pops: maxNotify+1st must fault
				w.Notify(1, 1)
			}
		}
		p.Barrier()
	})
	if err == nil {
		t.Fatalf("overflowing a ring of %d must abort the world", maxNotify)
	}
}

func TestNotifyMatchingListOverflowFaults(t *testing.T) {
	err := spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		if p.Rank() == 0 {
			for round := 0; round < 3; round++ {
				for i := 0; i < maxNotify; i++ {
					w.Notify(1, 1) // tag 1, never consumed
				}
				p.Barrier() // let the consumer drain the ring
				p.Barrier()
			}
			return
		}
		for round := 0; round < 3; round++ {
			p.Barrier()
			// Drain into the unmatched list looking for a tag that never
			// arrives; after maxNotify unmatched entries this must fault.
			w.TestNotify(2)
			p.Barrier()
		}
	})
	if err == nil {
		t.Fatal("unbounded unmatched-list growth must fault")
	}
}

func TestNotifyFullRingOfMatchingTagDoesNotFault(t *testing.T) {
	// A consumer keeping up with the tag it waits for must not trip the
	// matching-list bound on entries it is about to consume, even with a
	// stale unmatched notification parked and the ring exactly full.
	run(t, 2, 1, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		defer w.Free()
		if p.Rank() == 0 {
			w.Notify(1, 1) // the stale tag, parked by the consumer's probe
			p.Barrier()
			p.Barrier()
			for i := 0; i < maxNotify; i++ { // fills the ring
				w.Notify(1, 2)
			}
			p.Barrier()
			return
		}
		p.Barrier()
		if _, ok := w.TestNotify(3); ok { // parks the tag-1 entry unmatched
			t.Error("tag 3 was never sent")
		}
		p.Barrier()
		p.Barrier() // all maxNotify tag-2 notifications are now delivered
		for i := 1; i <= maxNotify; i++ {
			if seq := w.WaitNotify(2); int(seq) != i+1 {
				t.Errorf("tag 2 match %d: seq %d, want %d", i, seq, i+1)
			}
		}
		if seq := w.WaitNotify(1); seq != 1 {
			t.Errorf("stale tag 1 seq = %d, want 1", seq)
		}
	})
}

func TestNotifyTagTooLargeFaults(t *testing.T) {
	err := spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		if p.Rank() == 0 {
			w.Notify(1, 1<<31)
		}
		p.Barrier()
	})
	if err == nil {
		t.Fatal("32-bit tag beyond 31 bits must fault")
	}
}

func TestPutNotifyRequiresEpoch(t *testing.T) {
	err := spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		if p.Rank() == 0 {
			w.PutNotify(make([]byte, 8), 1, 0, 1) // no epoch open
		}
		p.Barrier()
	})
	if err == nil {
		t.Fatal("PutNotify outside an access epoch must fault")
	}
}

func TestNotifyFootprintIncludesRing(t *testing.T) {
	run(t, 2, 1, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		// The control region ends with the ring, and the rest of a fresh
		// allocated window's footprint is its PSCW consumed window.
		if ring, want := w.MemoryFootprint()-len(w.consumed)-ctlNotifyRing, simnet.NotifyRingBytes(maxNotify); ring != want {
			t.Errorf("footprint past the matching list = %d, want the %d-slot ring's %d", ring, maxNotify, want)
		}
		w.Free()
	})
}
