package dsde

import (
	"sort"
	"testing"
	"testing/quick"

	"fompi/internal/mpi1"
	"fompi/internal/spmd"
)

// sorted returns a sorted copy for multiset comparison.
func sorted(xs []uint64) []uint64 {
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runAll executes every protocol in one world and checks each rank received
// exactly the expected multiset.
func runAll(t *testing.T, ranks int, prm Params) {
	t.Helper()
	type got struct {
		name string
		recv []uint64
	}
	results := make([][]got, ranks)
	err := spmd.Run(spmd.Config{Ranks: ranks, RanksPerNode: 4}, func(p *spmd.Proc) {
		c := mpi1.Dial(p)
		add := func(name string, r Result) {
			results[p.Rank()] = append(results[p.Rank()], got{name, r.Received})
		}
		add("alltoall", RunAlltoall(c, prm))
		add("reduce_scatter", RunReduceScatter(c, prm))
		add("nbx", RunNBX(c, prm))
		add("rma-fompi", RunFoMPI(p, prm))
		add("rma-mpi22", RunMPI22(p, prm))
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		want := Expected(prm, r, ranks)
		for _, g := range results[r] {
			if !equal(sorted(g.recv), want) {
				t.Fatalf("rank %d %s: got %v want %v", r, g.name, sorted(g.recv), want)
			}
		}
	}
}

func TestAllProtocolsDeliverExactMultiset(t *testing.T) {
	runAll(t, 8, Params{K: 3, Seed: 1})
	runAll(t, 16, Params{K: 6, Seed: 2})
}

func TestPropertyRandomSeedsAndK(t *testing.T) {
	f := func(seed int16, kSel, nSel uint8) bool {
		n := 8 + int(nSel%3)*4 // 8, 12, 16
		k := 1 + int(kSel)%(n-2)
		if k > 7 {
			k = 7
		}
		ok := true
		spmd.MustRun(spmd.Config{Ranks: n, RanksPerNode: 4}, func(p *spmd.Proc) {
			prm := Params{K: k, Seed: int64(seed)}
			c := mpi1.Dial(p)
			for _, recv := range [][]uint64{
				RunNBX(c, prm).Received,
				RunFoMPI(p, prm).Received,
			} {
				if !equal(sorted(recv), Expected(prm, p.Rank(), n)) {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedIsConsistentAcrossRanks(t *testing.T) {
	// The union of all ranks' expectations must be exactly p·k payloads.
	prm := Params{K: 4, Seed: 11}
	const n = 12
	total := 0
	for r := 0; r < n; r++ {
		total += len(Expected(prm, r, n))
	}
	if total != n*4 {
		t.Fatalf("expected %d total payloads, got %d", n*4, total)
	}
}

func TestKValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for K >= ranks")
		}
	}()
	targetsOf(Params{K: 8}, 0, 8)
}
