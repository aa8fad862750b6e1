package hashtable

import (
	"sort"
	"testing"
	"testing/quick"

	"fompi/internal/spmd"
)

// expectedKeys returns the sorted multiset of all keys every rank inserts.
func expectedKeys(prm Params, ranks int) []uint64 {
	var all []uint64
	for r := 0; r < ranks; r++ {
		all = append(all, Keys(prm, r, ranks)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// collectAll extracts the stored keys from every rank's volume.
func collectAll(prm Params, vols [][]byte) []uint64 {
	var all []uint64
	for _, v := range vols {
		all = append(all, Collect(prm, v)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
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

// runVariant executes one implementation and verifies the table contents
// equal the inserted multiset.
func runVariant(t *testing.T, name string, ranks int, prm Params,
	run func(p *spmd.Proc) (Result, []byte)) {
	t.Helper()
	vols := make([][]byte, ranks)
	err := spmd.Run(spmd.Config{Ranks: ranks, RanksPerNode: 4, PaceWindowNs: 50000},
		func(p *spmd.Proc) {
			_, vol := run(p)
			vols[p.Rank()] = vol
		})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := collectAll(prm, vols)
	want := expectedKeys(prm, ranks)
	if !equal(got, want) {
		t.Fatalf("%s: stored %d keys, want %d (multisets differ)", name, len(got), len(want))
	}
}

func TestAllVariantsStoreExactKeyMultiset(t *testing.T) {
	const ranks = 8
	prm := Params{TableSlots: 256, OverflowCells: 4096, InsertsPerRank: 300, Seed: 5}
	runVariant(t, "fompi", ranks, prm, func(p *spmd.Proc) (Result, []byte) {
		return RunFoMPI(p, prm)
	})
	runVariant(t, "upc", ranks, prm, func(p *spmd.Proc) (Result, []byte) {
		return RunUPC(p, prm)
	})
	runVariant(t, "mpi1", ranks, prm, func(p *spmd.Proc) (Result, []byte) {
		return RunMPI1(p, prm)
	})
}

func TestHeavyCollisions(t *testing.T) {
	// A tiny table forces nearly every insert through the overflow-chain
	// protocol (fetch-and-add + linked CAS), the paper's collision path.
	const ranks = 4
	prm := Params{TableSlots: 8, OverflowCells: 2048, InsertsPerRank: 256, Seed: 9}
	runVariant(t, "fompi-collide", ranks, prm, func(p *spmd.Proc) (Result, []byte) {
		return RunFoMPI(p, prm)
	})
}

func TestPropertyRandomSeeds(t *testing.T) {
	f := func(seed int16) bool {
		const ranks = 4
		prm := Params{TableSlots: 64, OverflowCells: 1024, InsertsPerRank: 100,
			Seed: int64(seed)}
		vols := make([][]byte, ranks)
		spmd.MustRun(spmd.Config{Ranks: ranks, RanksPerNode: 2, PaceWindowNs: 50000},
			func(p *spmd.Proc) {
				_, vol := RunFoMPI(p, prm)
				vols[p.Rank()] = vol
			})
		return equal(collectAll(prm, vols), expectedKeys(prm, ranks))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestKeysAreUniqueAndNonZero(t *testing.T) {
	prm := Params{InsertsPerRank: 512, Seed: 1}.withDefaults()
	seen := map[uint64]bool{}
	for r := 0; r < 8; r++ {
		for _, k := range Keys(prm, r, 8) {
			if k == 0 {
				t.Fatal("zero key (collides with the empty-slot sentinel)")
			}
			if seen[k] {
				t.Fatalf("duplicate key %#x", k)
			}
			seen[k] = true
		}
	}
}
