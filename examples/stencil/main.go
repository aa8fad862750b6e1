// Stencil example: a MILC-style 4-D lattice conjugate-gradient solve
// (the paper's §4.4 application) with the halo exchange implemented three
// ways — MPI-1 messages, UPC notify+get, and foMPI MPI-3 RMA in a single
// lock_all epoch — followed by the notified-access (foMPI-NA) 2-D Jacobi
// stencil, where PutNotify/WaitNotify replace the per-iteration fences
// entirely. All variants compute bit-identical residuals/checksums; the
// virtual times show the one-sided and notified variants' advantage.
//
// The -backend flag selects the transport (proc: in-process goroutines, mp:
// one OS process per rank over shared memory, net: TCP between processes,
// hybrid: both); every variant runs on each. With -check the output is the
// residuals and checksums only, which are bit-identical across runs and
// backends — the examples smoke diffs exactly that.
package main

import (
	"flag"
	"fmt"

	"fompi"
	"fompi/internal/apps/milc"
	"fompi/internal/apps/stencil"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

func main() {
	backend := flag.String("backend", string(fompi.BackendFromEnv()),
		"transport backend: proc (in-process, default), mp (multi-process), net (inter-node TCP) or hybrid (shm within a host, TCP across)")
	ppn := flag.Int("ppn", 4, "ranks per node; 8 puts the whole world on one node, "+
		"whose virtual times are fully deterministic (no cross-node NIC incast races)")
	check := flag.Bool("check", false,
		"print only run-deterministic figures — residuals and checksums — which must "+
			"be bit-identical across runs and backends (the virtual times of whole apps "+
			"vary sub-percent with host scheduling, here and on the in-process backend "+
			"alike, so -check omits them)")
	pace := flag.Int64("pace", 0, "pacing window in virtual ns (0 disables); bounds "+
		"cross-rank clock divergence so real scheduling noise cannot reorder stamp merges")
	flag.Parse()
	be := fompi.Backend(*backend)

	const ranks = 8
	prm := milc.Params{Local: [4]int{4, 4, 4, 8}, Grid: [4]int{1, 1, 2, 4}, Iters: 25}
	fompi.MustRun(fompi.Config{Ranks: ranks, RanksPerNode: *ppn, Backend: be, PaceWindowNs: *pace}, func(p *fompi.Proc) {
		type variant struct {
			name string
			run  func() milc.Result
		}
		for _, v := range []variant{
			{"MPI-1 send/recv ", func() milc.Result { return milc.RunMPI1(p, prm) }},
			{"UPC notify+get  ", func() milc.Result { return milc.RunUPC(p, prm) }},
			{"foMPI MPI-3 RMA ", func() milc.Result { return milc.RunFoMPI(p, prm) }},
		} {
			res := v.run()
			worst := timing.Time(p.Allreduce8(spmd.OpMax, uint64(res.Elapsed)))
			p.Barrier()
			if p.Rank() == 0 {
				if *check {
					fmt.Printf("%s  residual %.6e\n", v.name, res.Residual)
				} else {
					fmt.Printf("%s  %8.2f us   residual %.6e\n",
						v.name, worst.Micros(), res.Residual)
				}
			}
		}

		// Notified access: the same halo-exchange pattern with the consumer's
		// synchronization epoch replaced by a tag-matched single-word poll.
		sprm := stencil.Params{NX: 64, NY: 32, Iters: 10}
		fence := stencil.RunFence(p, sprm)
		wf := timing.Time(p.Allreduce8(spmd.OpMax, uint64(fence.Elapsed)))
		notif := stencil.RunNotify(p, sprm)
		wn := timing.Time(p.Allreduce8(spmd.OpMax, uint64(notif.Elapsed)))
		stencil.Verify(fence, notif, stencil.RunReference(p, sprm))
		p.Barrier()
		if p.Rank() == 0 {
			if *check {
				fmt.Printf("stencil fence     checksum %.6e\n", fence.Checksum)
				fmt.Printf("stencil notified  checksum %.6e\n", notif.Checksum)
			} else {
				fmt.Printf("stencil fence     %8.2f us   checksum %.6e\n", wf.Micros(), fence.Checksum)
				fmt.Printf("stencil notified  %8.2f us   checksum %.6e  (%.1fx)\n",
					wn.Micros(), notif.Checksum, float64(wf)/float64(wn))
			}
		}
	})
}
