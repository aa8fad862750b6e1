package simnet

import "testing"

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
