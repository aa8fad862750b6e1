package bench

import (
	"math"

	"fompi/internal/core"
	"fompi/internal/pgas"
	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

// maxAcross gathers each rank's sample and returns the maximum (the paper's
// per-repetition bucket). Ranks deposit through a shared slice; the caller
// must synchronize before reading (all experiments barrier between reps).
type perRank struct {
	ts []timing.Time
}

func newPerRank(n int) *perRank { return &perRank{ts: make([]timing.Time, n)} }

// ringGroup returns the (deduplicated) ring neighbors of rank: k=2, or k=1
// when both directions meet the same peer (n = 2).
func ringGroup(rank, n int) []int {
	left, right := (rank+n-1)%n, (rank+1)%n
	if left == right {
		return []int{left}
	}
	return []int{left, right}
}

// Fig6b compares global synchronization latency versus rank count:
// foMPI MPI_Win_fence, UPC barrier, CAF sync_all, and Cray MPI's fence
// (the same protocol over the untuned MPI-2.2 software profile).
func Fig6b(cfg Config) *Table {
	t := NewTable("fig6b", "Latency for Global Synchronization", "ranks", "latency_us",
		serFoMPI+"-fence", "UPC-barrier", "CAF-sync_all", serMPI22+"-fence")
	for _, n := range PSweep(cfg.MaxP) {
		// foMPI fence plus the PGAS barriers, all over one fabric.
		per := newPerRank(n)
		perUPC := newPerRank(n)
		perCAF := newPerRank(n)
		medians := make(map[string][]timing.Time)
		spmd.MustRun(spmd.Config{Ranks: n, RanksPerNode: 4}, func(p *spmd.Proc) {
			w, _ := core.Allocate(p, 64, core.Config{})
			defer w.Free()
			u := pgas.DialUPC(p, 64)
			defer u.Free()
			cf := pgas.DialCAF(p, 64)
			defer cf.Free()
			var fo, uc, ca []timing.Time
			w.Fence() // warm up / align
			for r := 0; r < cfg.Reps; r++ {
				t0 := p.Now()
				w.Fence()
				per.ts[p.Rank()] = p.Now() - t0
				p.Barrier()
				if p.Rank() == 0 {
					fo = append(fo, MaxOf(per.ts))
				}

				t0 = u.Now()
				u.Barrier()
				perUPC.ts[p.Rank()] = u.Now() - t0
				p.Barrier()
				if p.Rank() == 0 {
					uc = append(uc, MaxOf(perUPC.ts))
				}

				t0 = cf.Now()
				cf.Barrier()
				perCAF.ts[p.Rank()] = cf.Now() - t0
				p.Barrier()
				if p.Rank() == 0 {
					ca = append(ca, MaxOf(perCAF.ts))
				}
			}
			if p.Rank() == 0 {
				medians[serFoMPI+"-fence"] = fo
				medians["UPC-barrier"] = uc
				medians["CAF-sync_all"] = ca
			}
		})
		// Cray MPI fence: identical protocol over the MPI-2.2 cost model.
		perM := newPerRank(n)
		spmd.MustRun(spmd.Config{Ranks: n, RanksPerNode: 4, Model: simnet.CrayMPI22()}, func(p *spmd.Proc) {
			w, _ := core.Allocate(p, 64, core.Config{})
			defer w.Free()
			var ms []timing.Time
			w.Fence()
			for r := 0; r < cfg.Reps; r++ {
				t0 := p.Now()
				w.Fence()
				perM.ts[p.Rank()] = p.Now() - t0
				p.Barrier()
				if p.Rank() == 0 {
					ms = append(ms, MaxOf(perM.ts))
				}
			}
			if p.Rank() == 0 {
				medians[serMPI22+"-fence"] = ms
			}
		})
		for name, ts := range medians {
			t.Set(float64(n), name, Median(ts).Micros())
		}
	}
	return t
}

// Fig6c measures General Active Target (PSCW) synchronization around a ring
// (k = 2 neighbors): a full post/start/complete/wait cycle per rank. An
// ideal implementation is flat in p.
func Fig6c(cfg Config) *Table {
	t := NewTable("fig6c", "Latency for PSCW (Ring Topology)", "ranks", "latency_us",
		serFoMPI, serMPI22)
	run := func(n int, model *simnet.CostModel) timing.Time {
		// A row per repetition: PSCW syncs a rank with its ring neighbours
		// only, so a far rank may finish its next cycle while rank 0 still
		// reads this one's row.
		per := make([]*perRank, cfg.Reps)
		for r := range per {
			per[r] = newPerRank(n)
		}
		var med timing.Time
		spmd.MustRun(spmd.Config{Ranks: n, RanksPerNode: 4, Model: model}, func(p *spmd.Proc) {
			w, _ := core.Allocate(p, 64, core.Config{})
			defer w.Free()
			group := ringGroup(p.Rank(), n)
			var ts []timing.Time
			for r := 0; r < cfg.Reps; r++ {
				t0 := p.Now()
				w.Post(group)
				w.Start(group)
				w.Complete()
				w.WaitEpoch()
				per[r].ts[p.Rank()] = p.Now() - t0
				p.Barrier()
				if p.Rank() == 0 {
					ts = append(ts, MaxOf(per[r].ts))
				}
			}
			if p.Rank() == 0 {
				med = Median(ts)
			}
		})
		return med
	}
	for _, n := range PSweep(cfg.MaxP) {
		t.Set(float64(n), serFoMPI, run(n, nil).Micros())
		t.Set(float64(n), serMPI22, run(n, simnet.CrayMPI22()).Micros())
	}
	return t
}

// Models recovers the paper's closed-form performance models (§3.1, §3.2)
// from measured sweeps: linear fits for the communication calls and direct
// medians for the synchronization constants. X is an enumeration index; the
// series hold slope (ns/B) and intercept (µs) or the constant (µs).
func Models(cfg Config) *Table {
	t := NewTable("models", "Fitted performance models", "model", "per_row",
		"slope_ns_per_B", "intercept_or_const_us")
	row := 0.0
	add := func(_, name string, slope, us float64) {
		t.XName(row, name)
		t.Set(row, "slope_ns_per_B", slope)
		t.Set(row, "intercept_or_const_us", us)
		row++
	}

	// Communication fits from the Figure 4 sweeps (foMPI series).
	put := Fig4a(cfg)
	sl, ic := put.Fit(serFoMPI) // µs per byte, µs
	add("1:P_put", "P_put", sl*1e3, ic)
	get := Fig4b(cfg)
	sl, ic = get.Fit(serFoMPI)
	add("2:P_get", "P_get", sl*1e3, ic)

	// Accumulate fits from the Figure 6a sweep (x in elements of 8 B).
	acc := Fig6a(cfg)
	sl, ic = acc.Fit("foMPI-SUM")
	add("3:P_acc_sum", "P_acc,sum", sl*1e3/8, ic)
	sl, ic = acc.Fit("foMPI-MIN")
	add("4:P_acc_min", "P_acc,min", sl*1e3/8, ic)
	cas, _ := acc.Get(1, "foMPI-CAS")
	add("5:P_cas", "P_CAS", 0, cas)

	// Fence scaling coefficient: P_fence ≈ c · log2 p.
	fence := Fig6b(cfg)
	var cs []float64
	for _, x := range fence.Xs() {
		if y, ok := fence.Get(x, serFoMPI+"-fence"); ok && x > 1 {
			cs = append(cs, y/math.Log2(x))
		}
	}
	var sum float64
	for _, c := range cs {
		sum += c
	}
	if len(cs) > 0 {
		add("6:P_fence_per_log2p", "P_fence/log2(p)", 0, sum/float64(len(cs)))
	}

	// PSCW and passive-target constants at a small fixed world.
	spmd.MustRun(spmd.Config{Ranks: 8, RanksPerNode: 4}, func(p *spmd.Proc) {
		w, _ := core.Allocate(p, 64, core.Config{})
		defer w.Free()
		group := ringGroup(p.Rank(), p.Size())
		// timed appends to ts the virtual time call takes on this rank.
		timed := func(ts *[]timing.Time, call func()) {
			t0 := p.Now()
			call()
			*ts = append(*ts, p.Now()-t0)
		}
		var post, start, complete, wait []timing.Time
		for r := 0; r < cfg.Reps; r++ {
			timed(&post, func() { w.Post(group) })
			timed(&start, func() { w.Start(group) })
			timed(&complete, w.Complete)
			timed(&wait, w.WaitEpoch)
			p.Barrier()
		}
		// Lock constants are the paper's uncontended inter-node costs: rank 4
		// (off the master's node) measures against the off-node rank 1;
		// everyone else just keeps the barriers.
		var lockE, lockS, lockA, unlock, flush, syncT, flushL, unlockA []timing.Time
		target := 1
		if p.Rank() != 4 {
			for r := 0; r < cfg.Reps; r++ {
				p.Barrier()
				p.Barrier()
				p.Barrier()
			}
			p.Barrier()
			return
		}
		for r := 0; r < cfg.Reps; r++ {
			timed(&lockE, func() { w.Lock(core.LockExclusive, target) })
			timed(&unlock, func() { w.Unlock(target) })
			p.Barrier()
			timed(&lockS, func() { w.Lock(core.LockShared, target) })
			w.Unlock(target)
			p.Barrier()
			timed(&lockA, w.LockAll)
			timed(&flush, func() { w.Flush(target) })
			timed(&syncT, w.Sync)
			timed(&flushL, func() { w.FlushLocal(target) })
			timed(&unlockA, w.UnlockAll)
			p.Barrier()
		}
		add("7:P_post_k2", "P_post (k=2)", 0, Median(post).Micros())
		add("8:P_start", "P_start", 0, Median(start).Micros())
		add("9:P_complete_k2", "P_complete (k=2)", 0, Median(complete).Micros())
		add("10:P_wait", "P_wait", 0, Median(wait).Micros())
		add("11:P_lock_excl", "P_lock,excl", 0, Median(lockE).Micros())
		add("12:P_lock_shrd", "P_lock,shrd", 0, Median(lockS).Micros())
		add("13:P_lock_all", "P_lock_all", 0, Median(lockA).Micros())
		add("14:P_unlock", "P_unlock", 0, Median(unlock).Micros())
		add("15:P_flush", "P_flush", 0, Median(flush).Micros())
		add("16:P_sync", "P_sync", 0, Median(syncT).Micros())
		add("17:P_flush_local", "P_flush_local", 0, Median(flushL).Micros())
		add("18:P_unlock_all", "P_unlock_all", 0, Median(unlockA).Micros())
		p.Barrier()
	})
	return t
}

// Instr reports the software fast-path cost of the critical calls: the
// paper's instruction-count study (§2.3/§2.4: flush adds 78 instructions,
// put/get 173, sync 17) plus the remote operations each protocol call
// issues. X enumerates the calls.
func Instr(cfg Config) *Table {
	t := NewTable("instr", "Fast-path cost per call", "call", "count",
		"soft_steps", "remote_ops")
	spmd.MustRun(spmd.Config{Ranks: 4, RanksPerNode: 2}, func(p *spmd.Proc) {
		w, _ := core.Allocate(p, 4096, core.Config{})
		defer w.Free()
		if p.Rank() != 0 {
			p.Barrier()
			return
		}
		buf := make([]byte, 8)
		ep := p.EP()
		w.LockAll()
		w.FlushAll()
		type probe struct {
			name string
			fn   func()
		}
		probes := []probe{
			{"1:Put8", func() { w.Put(buf, 1, 0) }},
			{"2:Get8", func() { w.Get(buf, 1, 0) }},
			{"3:Flush", func() { w.Flush(1) }},
			{"4:Sync", func() { w.Sync() }},
			{"5:FetchAndOp", func() { w.FetchAndOp(core.AccSum, 1, 1, 0) }},
			{"6:CAS", func() { w.CompareAndSwap(0, 1, 1, 0) }},
		}
		for i, pr := range probes {
			before := ep.Counters()
			pr.fn()
			d := ep.Counters().Sub(before)
			t.XName(float64(i+1), pr.name)
			t.Set(float64(i+1), "soft_steps", float64(d.SoftSteps))
			t.Set(float64(i+1), "remote_ops", float64(d.RemoteOps()))
		}
		w.UnlockAll()
		// Lock/Unlock issue remote AMOs; count them separately.
		before := ep.Counters()
		w.Lock(core.LockExclusive, 1)
		d := ep.Counters().Sub(before)
		t.XName(7, "7:LockExcl")
		t.Set(7, "soft_steps", float64(d.SoftSteps))
		t.Set(7, "remote_ops", float64(d.RemoteOps()))
		before = ep.Counters()
		w.Unlock(1)
		d = ep.Counters().Sub(before)
		t.XName(8, "8:Unlock")
		t.Set(8, "soft_steps", float64(d.SoftSteps))
		t.Set(8, "remote_ops", float64(d.RemoteOps()))
		p.Barrier()
	})
	return t
}

// Memory reports the per-rank bookkeeping bytes of each window flavour
// versus rank count: the O(1)-allocated versus Ω(p)-traditional storage
// claim of §2.2.
func Memory(cfg Config) *Table {
	t := NewTable("memory", "Per-rank window bookkeeping", "ranks", "bytes",
		"allocate", "create", "dynamic")
	for _, n := range PSweep(cfg.MaxP) {
		foot := make(map[string]int, 3)
		spmd.MustRun(spmd.Config{Ranks: n, RanksPerNode: 4}, func(p *spmd.Proc) {
			small := core.Config{MaxPosts: 64, MaxAttach: 4}
			wa, _ := core.Allocate(p, 64, small)
			wc := core.Create(p, make([]byte, 64), small)
			wd := core.CreateDynamic(p, small)
			if p.Rank() == 0 {
				foot["allocate"] = wa.MemoryFootprint()
				foot["create"] = wc.MemoryFootprint()
				foot["dynamic"] = wd.MemoryFootprint()
			}
			wa.Free()
			wc.Free()
			wd.Free()
		})
		for k, v := range foot {
			t.Set(float64(n), k, float64(v))
		}
	}
	return t
}
