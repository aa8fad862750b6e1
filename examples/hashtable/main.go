// Distributed hashtable example (the paper's §4.1 motif): every rank
// inserts random keys into a table spread over all ranks using passive-
// target atomics — compare-and-swap into the slot, fetch-and-op to claim
// overflow cells — inside one lock_all epoch. Run it to see the insert
// rates of the MPI-3 RMA, UPC, and MPI-1 active-message implementations
// side by side on identical simulated hardware.
package main

import (
	"fmt"

	"fompi"
	"fompi/internal/apps/hashtable"
	"fompi/internal/spmd"
)

func main() {
	const ranks = 8
	prm := hashtable.Params{InsertsPerRank: 2048, TableSlots: 1 << 15, Seed: 42,
		OverflowCells: 2048 * ranks}
	fompi.MustRun(fompi.Config{Ranks: ranks, RanksPerNode: 4, PaceWindowNs: 20000,
		Backend: fompi.BackendFromEnv()},
		func(p *fompi.Proc) {
			type variant struct {
				name string
				run  func() hashtable.Result
			}
			for _, v := range []variant{
				{"foMPI MPI-3 RMA", func() hashtable.Result { r, _ := hashtable.RunFoMPI(p, prm); return r }},
				{"Cray UPC       ", func() hashtable.Result { r, _ := hashtable.RunUPC(p, prm); return r }},
				{"MPI-1 active msg", func() hashtable.Result { r, _ := hashtable.RunMPI1(p, prm); return r }},
			} {
				res := v.run()
				worst := p.Allreduce8(spmd.OpMax, uint64(res.Elapsed))
				p.Barrier()
				if p.Rank() == 0 {
					rate := float64(ranks*prm.InsertsPerRank) / float64(worst) * 1e3
					fmt.Printf("%s  %7.2f M inserts/s  (%d inserts, %d ranks)\n",
						v.name, rate, ranks*prm.InsertsPerRank, ranks)
				}
			}
		})
}
