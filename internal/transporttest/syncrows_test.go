package transporttest

import (
	"testing"
	"time"

	"fompi/internal/core"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

// syncRows times one uncontended call of each synchronization row of the
// model table (bench.Models) on p, a 4-rank world of two nodes, and returns
// this rank's virtual cost of each call it made, by name: a fence of every
// rank; a PSCW epoch of k = 2, ranks 1 and 2 exposing to origins 0 and 3;
// and, on rank 2 alone, the passive-target calls against the off-node rank
// 1. Barriers order the calls one rank at a time, so that no call waits on
// another's NIC booking.
func syncRows(p *spmd.Proc) map[string]timing.Time {
	w, _ := core.Allocate(p, 64, core.Config{})
	defer w.Free()
	costs := map[string]timing.Time{}
	timed := func(name string, call func()) {
		t0 := p.Now()
		call()
		costs[name] = p.Now() - t0
	}
	timed("fence", w.Fence)
	p.Barrier()
	targets, origins := []int{1, 2}, []int{0, 3}
	for _, r := range targets {
		if p.Rank() == r {
			timed("post", func() { w.Post(origins) })
		}
		p.Barrier()
	}
	for _, r := range origins {
		if p.Rank() == r {
			timed("start", func() { w.Start(targets) })
			timed("complete", w.Complete)
		}
		p.Barrier()
	}
	if p.Rank() == 1 || p.Rank() == 2 {
		timed("wait", w.WaitEpoch)
	}
	p.Barrier()
	if p.Rank() == 2 {
		const target = 1
		timed("lock exclusive", func() { w.Lock(core.LockExclusive, target) })
		timed("unlock", func() { w.Unlock(target) })
		timed("lock shared", func() { w.Lock(core.LockShared, target) })
		timed("unlock shared", func() { w.Unlock(target) })
		timed("lock all", w.LockAll)
		timed("flush", func() { w.Flush(target) })
		timed("flush local", func() { w.FlushLocal(target) })
		timed("sync", w.Sync)
		timed("unlock all", w.UnlockAll)
	}
	p.Barrier()
	return costs
}

// TestConformanceSyncRows runs the model table's uncontended
// synchronization rows — fence, post, start, complete, wait, both locks,
// LockAll, unlock, UnlockAll, flush, FlushLocal and sync — in one world per
// backend, and requires each call's virtual cost to equal the in-process
// one bit for bit: the boot a process world takes leaves virtual time as
// the fabric's.
func TestConformanceSyncRows(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	want := make([]map[string]timing.Time, cfg.Ranks)
	if err := spmd.Run(cfg, func(p *spmd.Proc) { want[p.Rank()] = syncRows(p) }); err != nil {
		t.Fatalf("in-process reference run: %v", err)
	}
	if n := len(want[2]); n != 12 {
		t.Fatalf("rank 2 timed %d calls, want 12", n)
	}
	eachBackendLeg(t, "TestConformanceSyncRows", cfg, func(label string, c spmd.Config) {
		start := time.Now()
		if err := spmd.Run(c, func(p *spmd.Proc) {
			got := syncRows(p)
			check(len(got) == len(want[p.Rank()]), "rank %d timed %d calls on the %s backend, %d in process", p.Rank(), len(got), label, len(want[p.Rank()]))
			for name, cost := range want[p.Rank()] {
				check(got[name] == cost, "rank %d: %s costs %d virtual ns on the %s backend, %d in process",
					p.Rank(), name, got[name], label, cost)
			}
		}); err != nil {
			t.Fatalf("%s backend: %v", label, err)
		}
		if spmd.WorkerOf() == "" {
			t.Logf("%s: %v", label, time.Since(start))
		}
	})
}
