package core

import (
	"sync/atomic"
	"testing"

	"fompi/internal/spmd"
)

// TestFenceAllocCeiling is the alloc-regression guard for the collective
// synchronization path: with the window control regions pooled and the
// per-rank handles slab-allocated, a steady-state fence epoch at p=64 must
// stay under a small world-wide allocation ceiling (the pre-pooling cost was
// ~22 allocations per fence, dominated by per-world setup). AllocsPerRun
// counts mallocs process-wide, so every rank's fence work is included; rank
// 0 measures while the other ranks run the same number of fences.
func TestFenceAllocCeiling(t *testing.T) {
	const ranks = 64
	const runs = 5 // AllocsPerRun executes runs+1 calls (one warmup)
	var avg atomic.Uint64
	spmd.MustRun(spmd.Config{Ranks: ranks, RanksPerNode: 4}, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		defer w.Free()
		p.Barrier()
		if p.Rank() == 0 {
			a := testing.AllocsPerRun(runs, func() { w.Fence() })
			avg.Store(uint64(a * 1000))
		} else {
			for i := 0; i < runs+1; i++ {
				w.Fence()
			}
		}
		p.Barrier()
	})
	// World-wide ceiling per fence: the fence itself is allocation-free;
	// the slack absorbs runtime-internal noise (stack growth, timer churn).
	if got := float64(avg.Load()) / 1000; got > 32 {
		t.Fatalf("fence@p=%d allocates %.1f objects world-wide per call, ceiling 32", ranks, got)
	}
}

// TestAccumulateAllocFree pins the atomic unit's fetching calls at zero
// allocations: FetchAndOp of an accelerated op other than SUM is one
// fetching AMO, FetchAndOp(AccNoOp) one word load (a one-word get), and a
// one-element GetAccumulate one fetching AMO. Rank 0 measures against rank 1 on the
// other node while rank 1 waits in the closing fence.
func TestAccumulateAllocFree(t *testing.T) {
	const runs = 100
	var fetchOp, fetchNoOp, getAcc atomic.Uint64
	spmd.MustRun(spmd.Config{Ranks: 2, RanksPerNode: 1}, func(p *spmd.Proc) {
		w, _ := Allocate(p, 64, Config{})
		defer w.Free()
		w.Fence()
		if p.Rank() == 0 {
			src, res := make([]byte, 8), make([]byte, 8)
			a := testing.AllocsPerRun(runs, func() { w.FetchAndOp(AccBxor, 5, 1, 0) })
			fetchOp.Store(uint64(a * 1000))
			a = testing.AllocsPerRun(runs, func() { w.FetchAndOp(AccNoOp, 0, 1, 0) })
			fetchNoOp.Store(uint64(a * 1000))
			a = testing.AllocsPerRun(runs, func() { w.GetAccumulate(AccSum, src, res, 1, 8) })
			getAcc.Store(uint64(a * 1000))
		}
		w.Fence()
	})
	if got := float64(fetchOp.Load()) / 1000; got != 0 {
		t.Errorf("FetchAndOp(AccBxor) allocates %.2f objects per call, want 0", got)
	}
	if got := float64(fetchNoOp.Load()) / 1000; got != 0 {
		t.Errorf("FetchAndOp(AccNoOp) allocates %.2f objects per call, want 0", got)
	}
	if got := float64(getAcc.Load()) / 1000; got != 0 {
		t.Errorf("one-element GetAccumulate(AccSum) allocates %.2f objects per call, want 0", got)
	}
}
