// Dynamic sparse data exchange example (the paper's §4.2 motif): every rank
// has a few words for k random targets and nobody knows who will send to
// them — the communication pattern of graph traversals, n-body methods, and
// adaptive meshes. The example runs all the protocols of Hoefler et al.
// [15] plus the paper's one-sided accumulate protocol and prints their
// virtual-time costs.
package main

import (
	"fmt"

	"fompi"
	"fompi/internal/apps/dsde"
	"fompi/internal/mpi1"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

func main() {
	const ranks = 16
	prm := dsde.Params{K: 6, Seed: 3}
	fompi.MustRun(fompi.Config{Ranks: ranks, RanksPerNode: 4, PaceWindowNs: 20000},
		func(p *fompi.Proc) {
			c := mpi1.Dial(p)
			type variant struct {
				name string
				run  func() dsde.Result
			}
			for _, v := range []variant{
				{"MPI-1 alltoall      ", func() dsde.Result { return dsde.RunAlltoall(c, prm) }},
				{"MPI-1 reduce_scatter", func() dsde.Result { return dsde.RunReduceScatter(c, prm) }},
				{"MPI-1 NBX           ", func() dsde.Result { return dsde.RunNBX(c, prm) }},
				{"foMPI RMA accumulate", func() dsde.Result { return dsde.RunFoMPI(p, prm) }},
			} {
				res := v.run()
				worst := timing.Time(p.Allreduce8(spmd.OpMax, uint64(res.Elapsed)))
				p.Barrier()
				if p.Rank() == 0 {
					fmt.Printf("%s  %8.2f us  (received %d words at rank 0)\n",
						v.name, worst.Micros(), len(res.Received))
				}
			}
		})
}
