package simnet

import (
	"runtime"
	"testing"
)

// Alloc-regression guards: the per-operation fabric hot paths must stay
// allocation-free, or the pooled-scratch work rots silently. The fixture
// drives remote operations from rank 0 with no peer goroutines (issue-side
// semantics need none), so AllocsPerRun measures only the op itself.

func allocFixture() (*Endpoint, Addr, []byte) {
	f := NewFabric(2, 1) // inter-node: the full NIC/stamp path
	ep := f.Endpoint(0, FoMPI())
	tgt := f.Endpoint(1, FoMPI()).Register(1 << 12)
	return ep, tgt.Base(), make([]byte, 1<<10)
}

func TestPutNBAllocFree(t *testing.T) {
	ep, a, buf := allocFixture()
	if avg := testing.AllocsPerRun(200, func() {
		ep.Wait(ep.PutNB(a, buf))
	}); avg > 0 {
		t.Fatalf("PutNB allocates %.2f objects per op, want 0", avg)
	}
}

func TestGetNBAllocFree(t *testing.T) {
	ep, a, buf := allocFixture()
	if avg := testing.AllocsPerRun(200, func() {
		ep.Wait(ep.GetNB(buf, a))
	}); avg > 0 {
		t.Fatalf("GetNB allocates %.2f objects per op, want 0", avg)
	}
}

func TestFetchAddAllocFree(t *testing.T) {
	ep, a, _ := allocFixture()
	if avg := testing.AllocsPerRun(200, func() {
		ep.FetchAdd(a, 3)
	}); avg > 0 {
		t.Fatalf("FetchAdd allocates %.2f objects per op, want 0", avg)
	}
}

func TestAmoBulkNBIAllocFree(t *testing.T) {
	ep, a, buf := allocFixture()
	if avg := testing.AllocsPerRun(200, func() {
		ep.AmoBulkNBI(a, AmoSum, buf[:64])
	}); avg > 0 {
		t.Fatalf("AmoBulkNBI allocates %.2f objects per op, want 0", avg)
	}
}

// TestPutNBIStoreWAllocFree pins the payload-then-flag pair every collective
// issues: an implicit put and a word store through a warm route, each ringing
// its target in its own port release.
func TestPutNBIStoreWAllocFree(t *testing.T) {
	ep, a, buf := allocFixture()
	ep.StoreW(a, 1) // first use fills the route memo
	if avg := testing.AllocsPerRun(200, func() {
		ep.PutNBI(a, buf)
		ep.StoreW(a.Add(2048), 7)
	}); avg > 0 {
		t.Fatalf("PutNBI+StoreW allocates %.2f objects per pair, want 0", avg)
	}
}

// TestFabricSetupBytesScaleLinearly: what a world allocates to exist grows
// with the rank count, not with its square — each rank keeps O(1) state, as
// foMPI's protocols do. Quadrupling the ranks may cost at most 4.5 times the
// bytes; a per-pair table (a waiter bitset of p·⌈p/64⌉ words) costs about 8
// times at these sizes. Each size is measured a few times and the least
// taken, so an allocation of another goroutine cannot fail the test.
func TestFabricSetupBytesScaleLinearly(t *testing.T) {
	bytes := func(n int) uint64 {
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			NewFabric(n, 4)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := bytes(1024), bytes(4096)
	t.Logf("NewFabric: %d B at p=1024, %d B at p=4096", small, large)
	if ratio := float64(large) / float64(small); ratio > 4.5 {
		t.Fatalf("NewFabric allocates %d B at p=4096 and %d B at p=1024: %.2f times for 4 times the ranks, want at most 4.5", large, small, ratio)
	}
}
