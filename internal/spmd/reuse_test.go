package spmd

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"fompi/internal/simnet"
	"fompi/internal/timing"
)

// freshRecord is what one rank of fixedProgram saw.
type freshRecord struct {
	Start, End timing.Time
	Keys       []simnet.Key
	Fetched    uint64
	Got        []byte
	Sum        uint64
	Clocks     []timing.Time
	Ctr        simnet.Counters
}

// fixedProgram registers a region, puts to and fetch-adds at the next rank,
// gets back and reduces, recording every key, clock and value, and
// unregisters what it registered. fabs receives each rank's transport.
func fixedProgram(recs []freshRecord, fabs []simnet.Transport) func(*Proc) {
	return func(p *Proc) {
		ep := p.EP()
		r := freshRecord{Start: ep.Now()}
		fabs[p.Rank()] = p.Fabric()
		reg := ep.Register(256)
		r.Keys = append(r.Keys, reg.Key())
		p.Barrier()
		r.Clocks = append(r.Clocks, ep.Now())
		next := simnet.Addr{Rank: (p.Rank() + 1) % p.Size(), Key: reg.Key()}
		ep.Put(next.Add(8*p.Rank()), []byte{1, 2, 3, byte(p.Rank()), 5, 6, 7, 8})
		r.Fetched = ep.FetchAdd(next.Add(128), uint64(p.Rank()+3))
		ep.Gsync()
		r.Clocks = append(r.Clocks, ep.Now())
		p.Barrier()
		r.Got = make([]byte, 32)
		ep.Get(r.Got, next)
		r.Sum = p.Allreduce8(OpSum, uint64(p.Rank()+1)<<8)
		r.Clocks = append(r.Clocks, ep.Now())
		ep.Unregister(reg)
		p.Barrier()
		r.End, r.Ctr = ep.Now(), ep.Counters()
		r.Ctr.Polls = 0 // how often a wait looked follows the host's schedule
		recs[p.Rank()] = r
	}
}

// leaveEverything is a world that ends cleanly with every kind of state a
// reused world must not inherit: routes memoised, a region still registered,
// a pacer, rank 1 parked under its door slot (the write it waits for comes
// after a host-time sleep), both ports rung and each NIC's last booking a
// 256 KiB transfer early in virtual time, whose busy interval covers most of
// fixedProgram's, and clocks far advanced after it.
func leaveEverything(fabs []simnet.Transport) func(*Proc) {
	return func(p *Proc) {
		ep := p.EP()
		fabs[p.Rank()] = p.Fabric()
		left := ep.Register(4096 + 256<<10)
		p.Barrier()
		next := simnet.Addr{Rank: (p.Rank() + 1) % p.Size(), Key: left.Key()}
		ep.FetchAdd(next.Add(64), 1)
		if p.Rank() == 0 {
			time.Sleep(2 * time.Millisecond)
			ep.StoreW(simnet.Addr{Rank: 1, Key: left.Key(), Off: 512}, 7)
		} else if p.Rank() == 1 {
			ep.WaitLocal(func() bool { return left.LocalWord(512) == 7 })
		}
		ep.PutNBI(next.Add(4096), make([]byte, 256<<10)) // past the words rank 1 waits on
		p.Compute(1_000_000 * int64(p.Rank()+1))
	}
}

// TestReusedWorldIsFresh: an in-process world that ended cleanly serves the
// next launch of its shape, reset. After a world that left every kind of
// state behind (leaveEverything), a world of its shape that got its fabric
// runs fixedProgram bit-identically — keys, per-rank clocks, results and
// counters — to a zero World no launch has used. A world whose rank panicked
// is never reused, and the kept worlds leave no goroutine behind
// (TestFabricResetIsNew holds their parkers' stopped timers).
func TestReusedWorldIsFresh(t *testing.T) {
	const ranks = 2
	used := Config{Ranks: ranks, RanksPerNode: 1}.withDefaults()
	paced := used
	paced.PaceWindowNs = 5000

	want := make([]freshRecord, ranks)
	if err := new(World).run(used, fixedProgram(want, make([]simnet.Transport, ranks))); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	reused := 0
	// A kept world may be dropped (the race detector drops a quarter of
	// sync.Pool puts, a GC drains it), so try until one launch is served.
	for try := 0; try < 32 && reused == 0; try++ {
		left, fabs := make([]simnet.Transport, ranks), make([]simnet.Transport, ranks)
		MustRun(paced, leaveEverything(left))
		got := make([]freshRecord, ranks)
		MustRun(used, fixedProgram(got, fabs))
		if fabs[0] != left[0] {
			continue
		}
		reused++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a reused world differs from a fresh one:\n reused %+v\n fresh  %+v", got, want)
		}
	}
	if reused == 0 {
		t.Fatal("no launch of 32 was served the world its shape's last launch left")
	}

	for try := 0; try < 8; try++ {
		died, next := make([]simnet.Transport, ranks), make([]simnet.Transport, ranks)
		err := Run(used, func(p *Proc) {
			died[p.Rank()] = p.Fabric()
			if p.Rank() == 1 {
				panic("boom")
			}
			p.Barrier()
		})
		if err == nil {
			t.Fatal("a world whose rank panicked returned no error")
		}
		MustRun(used, func(p *Proc) { next[p.Rank()] = p.Fabric() })
		if next[0] == died[0] {
			t.Fatal("the fabric of a world whose rank panicked served the next launch")
		}
	}

	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("the kept worlds took the goroutine count from %d to %d", before, n)
	}
}
