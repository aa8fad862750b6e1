package bench

import (
	"fompi/internal/apps/dsde"
	"fompi/internal/apps/fft"
	"fompi/internal/apps/hashtable"
	"fompi/internal/apps/milc"
	"fompi/internal/mpi1"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

// Fig7a measures distributed-hashtable insert throughput versus rank count
// (§4.1): aggregate inserts per second including synchronization, for the
// foMPI, UPC, and MPI-1 active-message implementations.
func Fig7a(cfg Config) *Table {
	t := NewTable("fig7a", "Hashtable inserts per second", "ranks", "million_inserts_per_s",
		serFoMPI, serUPC, serMPI1)
	for _, n := range PSweep(cfg.MaxP) {
		// TableSlots keeps the load factor low: contended slots couple the
		// ranks' virtual clocks through the overflow counter, and the real
		// Blue Waters runs size the table for the 16k-insert batches too.
		prm := hashtable.Params{InsertsPerRank: cfg.Inserts, Seed: cfg.Seed,
			TableSlots: 16 * cfg.Inserts, OverflowCells: cfg.Inserts * n}
		els := map[string][]timing.Time{}
		// Pacing bounds cross-rank clock divergence: the hashtable's CAS
		// and overflow-counter words couple the ranks' virtual clocks, and
		// unpaced real-time scheduling would turn that into noise.
		spmd.MustRun(spmd.Config{Ranks: n, RanksPerNode: 4, PaceWindowNs: 20000}, func(p *spmd.Proc) {
			type variant struct {
				name string
				run  func() hashtable.Result
			}
			for _, v := range []variant{
				{serFoMPI, func() hashtable.Result { r, _ := hashtable.RunFoMPI(p, prm); return r }},
				{serUPC, func() hashtable.Result { r, _ := hashtable.RunUPC(p, prm); return r }},
				{serMPI1, func() hashtable.Result { r, _ := hashtable.RunMPI1(p, prm); return r }},
			} {
				res := v.run()
				worst := p.Allreduce8(spmd.OpMax, uint64(res.Elapsed))
				p.Barrier()
				if p.Rank() == 0 {
					els[v.name] = append(els[v.name], timing.Time(worst))
				}
			}
		})
		for _, name := range []string{serFoMPI, serUPC, serMPI1} {
			worst := els[name][0]
			if worst > 0 {
				total := float64(n * cfg.Inserts)
				t.Set(float64(n), name, total/float64(worst)*1e3) // inserts/ns → M/s
			}
		}
	}
	return t
}

// Fig7b measures the dynamic sparse data exchange (§4.2) with k = 6 random
// neighbors: the four protocols of [15] plus the RMA protocol over both
// foMPI and the Cray MPI-2.2 comparator.
func Fig7b(cfg Config) *Table {
	t := NewTable("fig7b", "Dynamic sparse data exchange (k=6)", "ranks", "time_us",
		"Alltoall", "ReduceScatter", "NBX", "RMA-"+serFoMPI, "RMA-"+serMPI22)
	for _, n := range PSweep(cfg.MaxP) {
		if n <= 6 {
			continue // k must be below the rank count
		}
		prm := dsde.Params{K: 6, Seed: cfg.Seed}
		worst := map[string]timing.Time{}
		spmd.MustRun(spmd.Config{Ranks: n, RanksPerNode: 4, PaceWindowNs: 20000}, func(p *spmd.Proc) {
			c := mpi1.Dial(p)
			type variant struct {
				name string
				run  func() dsde.Result
			}
			for _, v := range []variant{
				{"Alltoall", func() dsde.Result { return dsde.RunAlltoall(c, prm) }},
				{"ReduceScatter", func() dsde.Result { return dsde.RunReduceScatter(c, prm) }},
				{"NBX", func() dsde.Result { return dsde.RunNBX(c, prm) }},
				{"RMA-" + serFoMPI, func() dsde.Result { return dsde.RunFoMPI(p, prm) }},
				{"RMA-" + serMPI22, func() dsde.Result { return dsde.RunMPI22(p, prm) }},
			} {
				res := v.run()
				w := p.Allreduce8(spmd.OpMax, uint64(res.Elapsed))
				p.Barrier()
				if p.Rank() == 0 {
					worst[v.name] = timing.Time(w)
				}
			}
		})
		for name, w := range worst {
			t.Set(float64(n), name, w.Micros())
		}
	}
	return t
}

// Fig7c measures 3-D FFT performance (§4.3): strong scaling of the
// aggregate GFlop/s rate for the MPI-1 bulk, UPC slab, and foMPI slab
// variants. NsPerFlop models a node-rate rank against the same NIC, the
// regime where overlap pays (Blue Waters class D).
func Fig7c(cfg Config) *Table {
	t := NewTable("fig7c", "3D FFT performance", "ranks", "gflops",
		serFoMPI, serUPC, serMPI1)
	maxP := cfg.MaxP
	if maxP > 64 {
		maxP = 64 // NX must divide by p; grid below is 64³
	}
	for _, n := range PSweep(maxP) {
		prm := fft.Params{NX: 64, NY: 64, NZ: 64, Iters: 1, NsPerFlop: 0.02}
		worst := map[string]float64{}
		spmd.MustRun(spmd.Config{Ranks: n, RanksPerNode: 4}, func(p *spmd.Proc) {
			c := mpi1.Dial(p)
			type variant struct {
				name string
				run  func() fft.Result
			}
			for _, v := range []variant{
				{serMPI1, func() fft.Result { return fft.RunMPI1(c, prm) }},
				{serUPC, func() fft.Result { return fft.RunUPC(p, prm) }},
				{serFoMPI, func() fft.Result { return fft.RunFoMPI(p, prm) }},
			} {
				res := v.run()
				w := p.Allreduce8(spmd.OpMax, uint64(res.Elapsed))
				p.Barrier()
				if p.Rank() == 0 {
					// Aggregate rate from the slowest rank's completion.
					worst[v.name] = res.GFlops * float64(res.Elapsed) / float64(w)
				}
			}
		})
		for name, g := range worst {
			t.Set(float64(n), name, g)
		}
	}
	return t
}

// Fig8 measures the MILC proxy (§4.4): weak scaling of full execution time
// with the paper's 4×4×4×8 local lattice, for MPI-1, UPC, and foMPI.
func Fig8(cfg Config) *Table {
	t := NewTable("fig8", "MILC application completion time", "ranks", "time_ms",
		serFoMPI, serUPC, serMPI1)
	for _, n := range PSweep(cfg.MaxP) {
		grid := milcGrid(n)
		prm := milc.Params{Local: [4]int{4, 4, 4, 8}, Grid: grid, Iters: 20, Seed: cfg.Seed}
		worst := map[string]timing.Time{}
		spmd.MustRun(spmd.Config{Ranks: n, RanksPerNode: 4}, func(p *spmd.Proc) {
			type variant struct {
				name string
				run  func() milc.Result
			}
			for _, v := range []variant{
				{serMPI1, func() milc.Result { return milc.RunMPI1(p, prm) }},
				{serUPC, func() milc.Result { return milc.RunUPC(p, prm) }},
				{serFoMPI, func() milc.Result { return milc.RunFoMPI(p, prm) }},
			} {
				res := v.run()
				w := p.Allreduce8(spmd.OpMax, uint64(res.Elapsed))
				p.Barrier()
				if p.Rank() == 0 {
					worst[v.name] = timing.Time(w)
				}
			}
		})
		for name, w := range worst {
			t.Set(float64(n), name, float64(w)/1e6) // ns → ms
		}
	}
	return t
}

// milcGrid factors n into a near-square 4-D process grid.
func milcGrid(n int) [4]int {
	grid := [4]int{1, 1, 1, 1}
	d := 3
	for rem := n; rem > 1; {
		f := 2
		for rem%f != 0 {
			f++
		}
		grid[d] *= f
		rem /= f
		d--
		if d < 0 {
			d = 3
		}
	}
	return grid
}
