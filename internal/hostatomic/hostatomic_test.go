package hostatomic

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestLoadStoreAddCasSwap(t *testing.T) {
	b := make([]byte, 64)
	Store(b, 8, 42)
	if Load(b, 8) != 42 {
		t.Fatal("store/load")
	}
	if old := Add(b, 8, 8); old != 42 || Load(b, 8) != 50 {
		t.Fatalf("add: old=%d now=%d", old, Load(b, 8))
	}
	if old := Cas(b, 8, 50, 99); old != 50 || Load(b, 8) != 99 {
		t.Fatal("cas success path")
	}
	if old := Cas(b, 8, 50, 7); old != 99 || Load(b, 8) != 99 {
		t.Fatal("cas failure must not write")
	}
	if old := Swap(b, 8, 1); old != 99 || Load(b, 8) != 1 {
		t.Fatal("swap")
	}
}

func TestBitwiseOps(t *testing.T) {
	f := func(init, v uint64) bool {
		b := make([]byte, 8)
		Store(b, 0, init)
		if And(b, 0, v) != init || Load(b, 0) != init&v {
			return false
		}
		Store(b, 0, init)
		if Or(b, 0, v) != init || Load(b, 0) != init|v {
			return false
		}
		Store(b, 0, init)
		if Xor(b, 0, v) != init || Load(b, 0) != init^v {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAddLinearizes(t *testing.T) {
	b := make([]byte, 8)
	const gs, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				Add(b, 0, 1)
			}
		}()
	}
	wg.Wait()
	if Load(b, 0) != gs*per {
		t.Fatalf("lost updates: %d != %d", Load(b, 0), gs*per)
	}
}

func TestConcurrentCasOneWinnerPerValue(t *testing.T) {
	b := make([]byte, 8)
	const gs = 32
	wins := make(chan int, gs)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if Cas(b, 0, 0, uint64(g)+1) == 0 {
				wins <- g
			}
		}(g)
	}
	wg.Wait()
	close(wins)
	count := 0
	for range wins {
		count++
	}
	if count != 1 {
		t.Fatalf("%d CAS winners, want exactly 1", count)
	}
}

// TestStoreRelMessagePassing is the message-passing litmus test of the
// release stores: a writer release-stores round i's data word (StoreRel, so
// StoreRel64 beneath it) and then the flag (StoreRel32); a reader loads the
// flag and then the data, and must never find the flag at round i with the
// data of an earlier round. It runs against the build's own primitive: the
// plain store on amd64, the sync/atomic one under -race and elsewhere.
func TestStoreRelMessagePassing(t *testing.T) {
	rounds := uint32(1_000_000)
	if testing.Short() {
		rounds = 100_000
	}
	b := make([]byte, 64)
	var flag uint32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint32(1); i <= rounds; i++ {
			StoreRel(b, 0, uint64(i))
			StoreRel32(&flag, i)
		}
	}()
	var seen uint32
	for seen < rounds {
		f := atomic.LoadUint32(&flag)
		if d := Load(b, 0); d < uint64(f) {
			t.Fatalf("flag at round %d, data still at round %d: the data store was not released before the flag", f, d)
		}
		seen = f
	}
	<-done
}

func TestMaxI64(t *testing.T) {
	var m int64
	MaxI64(&m, 5)
	MaxI64(&m, 3)
	MaxI64(&m, 9)
	if m != 9 {
		t.Fatalf("m = %d", m)
	}
}

func TestUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unaligned offset")
		}
	}()
	b := make([]byte, 16)
	Load(b, 3)
}
