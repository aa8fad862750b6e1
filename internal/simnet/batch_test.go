package simnet

import (
	"math/rand"
	"testing"
)

// batchWorld is a deterministic three-rank fixture (two nodes, so inter- and
// intra-node paths both run) with one region per rank, driven entirely from
// the test goroutine: issue-side semantics need no peer goroutines.
type batchWorld struct {
	fab  *Fabric
	eps  []*Endpoint
	regs []*Region
}

func newBatchWorld() *batchWorld {
	f := NewFabric(3, 2)
	w := &batchWorld{fab: f}
	for r := 0; r < 3; r++ {
		ep := f.Endpoint(r, FoMPI())
		w.eps = append(w.eps, ep)
		w.regs = append(w.regs, ep.Register(1<<12))
	}
	return w
}

// batchOp is one step of a randomized issue sequence.
type batchOp struct {
	kind int // 0 put, 1 get, 2 storew, 3 addnbi, 4 fetchaddnb, 5 bulkamo, 6 compute, 7 gsync
	dst  int
	off  int
	size int
	val  uint64
}

func randOps(rng *rand.Rand, n int) []batchOp {
	ops := make([]batchOp, n)
	for i := range ops {
		ops[i] = batchOp{
			kind: rng.Intn(8),
			dst:  1 + rng.Intn(2), // remote ranks only; rank 0 issues
			off:  8 * rng.Intn(256),
			size: 8 * (1 + rng.Intn(64)),
			val:  rng.Uint64() >> 1,
		}
	}
	return ops
}

// run issues ops from rank 0, wrapping [batchLo, batchHi) spans in batch
// scopes when batches is non-nil.
func (w *batchWorld) run(ops []batchOp, batches [][2]int) {
	ep := w.eps[0]
	buf := make([]byte, 8*64)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	inBatch := func(i int) bool {
		for _, b := range batches {
			if i == b[0] {
				ep.BeginBatch()
			}
			if i >= b[0] && i < b[1] {
				return true
			}
		}
		return false
	}
	endBatch := func(i int) {
		for _, b := range batches {
			if i == b[1]-1 {
				ep.EndBatch()
			}
		}
	}
	for i, op := range ops {
		_ = inBatch(i)
		a := Addr{Rank: op.dst, Key: w.regs[op.dst].Key(), Off: op.off}
		switch op.kind {
		case 0:
			ep.PutNBI(a, buf[:op.size])
		case 1:
			ep.GetNBI(buf[:op.size], a)
		case 2:
			ep.StoreW(a, op.val)
		case 3:
			ep.AddNBI(a, op.val)
		case 4:
			old, h := ep.FetchAddNB(a, op.val)
			_ = old
			ep.Wait(h)
		case 5:
			ep.AmoBulkNBI(a, AmoSum, buf[:op.size])
		case 6:
			ep.Compute(int64(op.size))
		case 7:
			ep.Gsync()
		}
		endBatch(i)
	}
}

// TestBatchEquivalence drives identical randomized issue sequences through
// two fabrics — one plain, one with randomized batch scopes — and requires
// bit-identical virtual time: clocks, implicit completion, counters, stamps,
// and memory contents. This is the tentpole guarantee of the batched issue
// engine: batching coalesces host-side disciplines only.
func TestBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		ops := randOps(rng, 1+rng.Intn(24))
		// Random non-overlapping batch spans (possibly none).
		var batches [][2]int
		for i := 0; i < len(ops); {
			if rng.Intn(2) == 0 {
				end := i + 1 + rng.Intn(len(ops)-i)
				batches = append(batches, [2]int{i, end})
				i = end
			} else {
				i++
			}
		}
		plain, batched := newBatchWorld(), newBatchWorld()
		plain.run(ops, nil)
		batched.run(ops, batches)

		pe, be := plain.eps[0], batched.eps[0]
		if pe.Now() != be.Now() {
			t.Fatalf("trial %d: clock diverged: plain %d batched %d (ops %+v batches %v)",
				trial, pe.Now(), be.Now(), ops, batches)
		}
		pe.Gsync()
		be.Gsync()
		if pe.Now() != be.Now() {
			t.Fatalf("trial %d: implicit completion diverged: plain %d batched %d",
				trial, pe.Now(), be.Now())
		}
		if pc, bc := pe.Counters(), be.Counters(); pc != bc {
			t.Fatalf("trial %d: counters diverged: plain %+v batched %+v", trial, pc, bc)
		}
		for r := 1; r < 3; r++ {
			pr, br := plain.regs[r], batched.regs[r]
			for off := 0; off < pr.Size(); off += 8 {
				if pr.StampMax(off, 8) != br.StampMax(off, 8) {
					t.Fatalf("trial %d: stamp diverged at rank %d off %d: plain %d batched %d",
						trial, r, off, pr.StampMax(off, 8), br.StampMax(off, 8))
				}
				if pr.LocalWord(off) != br.LocalWord(off) {
					t.Fatalf("trial %d: memory diverged at rank %d off %d", trial, r, off)
				}
			}
		}
	}
}

// TestBatchCoalescesDoorbells checks the dedup contract: a batch of writes
// to one destination rings its doorbell exactly once, at EndBatch.
func TestBatchCoalescesDoorbells(t *testing.T) {
	w := newBatchWorld()
	ep := w.eps[0]
	a := Addr{Rank: 1, Key: w.regs[1].Key()}
	g0 := w.fab.DoorGen(1)
	ep.BeginBatch()
	ep.StoreW(a, 1)
	ep.StoreW(a.Add(8), 2)
	ep.AddNBI(a.Add(16), 3)
	if g := w.fab.DoorGen(1); g != g0 {
		t.Fatalf("doorbell rang mid-batch: gen %d -> %d", g0, g)
	}
	ep.EndBatch()
	if g := w.fab.DoorGen(1); g != g0+1 {
		t.Fatalf("EndBatch rang doorbell %d times, want 1", g-g0)
	}
}

// TestBatchFlushesBeforeBlocking checks that a wait inside a batch releases
// the deferred doorbells first: the batched write must be able to wake a
// peer before this rank parks.
func TestBatchFlushesBeforeBlocking(t *testing.T) {
	w := newBatchWorld()
	ep := w.eps[0]
	a := Addr{Rank: 1, Key: w.regs[1].Key()}
	g0 := w.fab.DoorGen(1)
	ep.BeginBatch()
	ep.StoreW(a, 42)
	if g := w.fab.DoorGen(1); g != g0 {
		t.Fatal("doorbell rang before the blocking wait")
	}
	// A wait whose predicate is immediately true still flushes first.
	ep.WaitLocal(func() bool { return true })
	if g := w.fab.DoorGen(1); g != g0+1 {
		t.Fatalf("blocking wait did not flush the deferred doorbell (gen %d, want %d)", w.fab.DoorGen(1), g0+1)
	}
	// Later writes in the same batch re-arm their destination.
	ep.StoreW(a.Add(8), 43)
	ep.EndBatch()
	if g := w.fab.DoorGen(1); g != g0+2 {
		t.Fatalf("post-flush write lost its doorbell (gen %d, want %d)", w.fab.DoorGen(1), g0+2)
	}
}

// TestBatchNesting checks nested scopes flush only at the outermost end, and
// that an unmatched EndBatch faults.
func TestBatchNesting(t *testing.T) {
	w := newBatchWorld()
	ep := w.eps[0]
	a := Addr{Rank: 2, Key: w.regs[2].Key()}
	g0 := w.fab.DoorGen(2)
	ep.BeginBatch()
	ep.BeginBatch()
	ep.StoreW(a, 7)
	ep.EndBatch()
	if g := w.fab.DoorGen(2); g != g0 {
		t.Fatal("inner EndBatch flushed")
	}
	ep.EndBatch()
	if g := w.fab.DoorGen(2); g != g0+1 {
		t.Fatal("outer EndBatch did not flush")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unmatched EndBatch did not panic")
		}
	}()
	ep.EndBatch()
}

// TestBatchRegionMemoServesCurrentTable checks the memo is (re)filled per
// batch: a region registered after one batch is visible to the next.
func TestBatchRegionMemoServesCurrentTable(t *testing.T) {
	w := newBatchWorld()
	ep := w.eps[0]
	ep.BeginBatch()
	ep.StoreW(Addr{Rank: 1, Key: w.regs[1].Key()}, 1)
	ep.EndBatch()
	fresh := w.eps[1].Register(64)
	ep.BeginBatch()
	ep.StoreW(Addr{Rank: 1, Key: fresh.Key(), Off: 8}, 9)
	ep.EndBatch()
	if got := fresh.LocalWord(8); got != 9 {
		t.Fatalf("write through fresh region = %d, want 9", got)
	}
}
