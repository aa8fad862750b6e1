package main

import (
	"fmt"
	"slices"
	"time"

	"fompi/internal/core"
	"fompi/internal/segpool"
	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

// Everything a traced run (-trace 1) adds to the script: the kinds that
// isolate one layer each, the counter deltas read at block boundaries, the
// direct probes of simnet.Transport, timing.Stamps and segpool, and the
// table that sets the layers' shares beside the untraced end-to-end median.

var sweepNames = [numSweep]string{"4KiB", "8KiB", "16KiB", "32KiB", "64KiB", "128KiB", "256KiB"}

// setupTraced defines the kinds that run only under -trace 1.
func (s *script) setupTraced() {
	if !s.cfg.Trace {
		return
	}
	w, p, tg := s.w, s.p, s.wl.targets
	ep := p.EP()
	key := s.epReg.Key()

	s.defs[kBarrier] = kindDef{name: "barrier", trace: true, n0: 16, minN: 4, maxN: 2048, fast: true,
		who: everyone, origin: []step{{fn: func(int) { p.Barrier() }}}, others: []step{{fn: func(int) { p.Barrier() }}}}
	var red uint64
	allred := []step{{fn: func(int) { red = p.Allreduce8(spmd.OpMax, red+1) }}}
	s.defs[kAllreduce] = kindDef{name: "allreduce", trace: true, n0: 16, minN: 4, maxN: 2048, fast: true,
		who: everyone, origin: allred, others: allred}

	var w2 *core.Win
	winAlloc := []step{
		{name: "core.Allocate", fn: func(int) { w2, _ = core.Allocate(p, 64, core.Config{}) }},
		{name: "core.Win.Free", fn: func(int) { w2.Free() }},
	}
	s.defs[kWinAlloc] = kindDef{name: "winalloc", trace: true, n0: 2, minN: 1, maxN: 2, makesWindow: true,
		who: everyone, origin: winAlloc, others: winAlloc}

	// The same three ops one layer down: simnet.Endpoint calls against a
	// region registered beside the window, no core epoch or step accounting.
	gsync := step{name: "simnet.Endpoint.Gsync", once: true, fn: func(int) { ep.Gsync() }}
	s.defs[kEpPut] = kindDef{name: "ep_put", trace: true, n0: 32, minN: 16, maxN: 4096, fast: true,
		origin: []step{{name: "simnet.Endpoint.PutNBI", fn: func(i int) {
			for _, t := range tg {
				ep.PutNBI(simnet.Addr{Rank: t, Key: key, Off: 8 * s.slotSeq[i]}, s.word[:])
			}
		}}, gsync}}
	s.defs[kEpGet] = kindDef{name: "ep_get", trace: true, n0: 32, minN: 16, maxN: 4096, fast: true,
		origin: []step{{name: "simnet.Endpoint.GetNBI", fn: func(i int) {
			for j, t := range tg {
				ep.GetNBI(s.getBuf[(i%group*len(tg)+j)*8:][:8], simnet.Addr{Rank: t, Key: key, Off: 8 * s.slotSeq[i]})
			}
		}}, gsync}}
	s.defs[kEpAmo] = kindDef{name: "ep_amo", trace: true, n0: 32, minN: 16, maxN: 4096, fast: true,
		origin: []step{{name: "simnet.Endpoint.FetchAdd", fn: func(int) {
			for _, t := range tg {
				if old := ep.FetchAdd(simnet.Addr{Rank: t, Key: key, Off: slots * 8}, 1); old != s.epAmo {
					s.failed++
				}
			}
			s.epAmo++
		}}}}

	flush := step{name: "core.Win.Flush", once: true, fn: func(int) { w.Flush(tg[0]) }}
	for i := 0; i < numSweep; i++ {
		sz := sweepBytes(i)
		s.defs[kSweepPut+kind(i)] = kindDef{name: "sweep_put_" + sweepNames[i], trace: true, n0: 4, minN: 4, maxN: 64,
			origin: []step{{name: "core.Win.Put", fn: func(int) {
				for _, t := range tg {
					w.Put(s.bulkSrc[:sz], t, bulkOff)
				}
			}}, flush}}
		s.defs[kSweepGet+kind(i)] = kindDef{name: "sweep_get_" + sweepNames[i], trace: true, n0: 4, minN: 4, maxN: 64,
			origin: []step{{name: "core.Win.Get", fn: func(int) {
				for _, t := range tg {
					w.Get(s.bulkDst[:sz], t, bulkOff)
				}
			}}, flush}}
	}

	// With two targets, the pair op again but one route at a time.
	if len(tg) > 1 {
		for i, k := range []kind{kPutFirst, kPutLast} {
			t := tg[i*(len(tg)-1)]
			s.defs[k] = kindDef{name: []string{"put_first", "put_last"}[i], trace: true, n0: 32, minN: 16, maxN: 4096, fast: true,
				origin: []step{{name: "core.Win.Put", fn: func(i int) {
					w.Put(s.word[:], t, spareOff+8*s.slotSeq[i])
				}}, flush}}
		}
	}
}

// wireCounters are the netrun counters that must stay zero on a healthy
// loopback; each rank process holds its own, so they are summed.
var wireCounters = []string{"net.retransmits", "net.resumes", "net.dedup_hits"}

// gatherTelemetry reads what the program's own telemetry recorded during
// the traced rounds. Collective: every rank calls it.
func (s *script) gatherTelemetry() {
	for _, name := range wireCounters {
		v := telemetry.NewCounter(name).Load()
		if !s.wl.inproc() {
			v = s.p.Allreduce8(spmd.OpSum, v)
		}
		s.layerCtr["netrun."+name[len("net."):]] = float64(v)
	}
	if !s.isOrigin() {
		return
	}
	snap := telemetry.Capture(s.rank)
	if h, ok := snap.Hists["net.rtt_ns"]; ok {
		s.layerCtr["netrun.rtt_ns_p50"] = float64(h.Quantile(0.5))
		s.layerCtr["netrun.rtt_ns_p99"] = float64(h.Quantile(0.99))
	}
	if h, ok := snap.Hists["net.fused_ops"]; ok {
		s.layerCtr["netrun.fused_ops_mean"] = float64(h.Sum) / float64(h.Count)
	}
	if h, ok := snap.Hists["net.window"]; ok {
		s.layerCtr["netrun.window_p50"] = float64(h.Quantile(0.5))
	}
}

// ctrSnap is what a block boundary reads from the always-on counters.
type ctrSnap struct {
	ep      simnet.Counters
	rings   uint64
	batches uint64
	recyc   uint64
	allocs  uint64
}

func (s *script) snapCounters(k kind, traced bool) ctrSnap {
	if !s.cfg.Trace {
		return ctrSnap{}
	}
	c := ctrSnap{ep: s.p.EP().Counters(), rings: s.doorRings.Load(),
		batches: s.netBatches.Load(), recyc: s.segRecycles()}
	if k == kFence && !traced {
		c.allocs = heapAllocs()
	}
	return c
}

func (s *script) segRecycles() uint64 {
	var n uint64
	for _, c := range s.segCtrs {
		n += c.Load()
	}
	return n
}

// diffCounters turns the block's counter deltas into per-op figures. Counts
// the program keeps unconditionally (Endpoint.Counters, the heap) are read
// in plain rounds; telemetry counters only move in traced rounds. The last
// block's figure stands: these are counts, not timings.
func (s *script) diffCounters(k kind, traced bool, n int, b ctrSnap) {
	if !s.cfg.Trace {
		return
	}
	a, per := s.snapCounters(k, traced), 1/float64(n)
	c := a.ep.Sub(b.ep)
	switch {
	case k == kPut && !traced:
		s.layerCtr["simnet.softsteps_per_put"] = float64(c.SoftSteps) * per
	case k == kFence && !traced:
		s.layerCtr["simnet.remote_ops_per_fence"] = float64(c.RemoteOps()) * per
		s.layerCtr["core.allocs_per_fence"] = float64(a.allocs-b.allocs) * per
	case k == kFence && traced:
		s.layerCtr["simnet.door_rings_per_fence"] = float64(a.rings-b.rings) * per
	case k == kNotify && traced:
		s.layerCtr["simnet.door_rings_per_notify"] = float64(a.rings-b.rings) * per
	case k == kRate && traced:
		s.layerCtr["netrun.frames_per_put"] = float64(a.batches-b.batches) * per
	case k == kWinAlloc && traced:
		s.layerCtr["segpool.recycles_per_window"] = float64(a.recyc-b.recyc) * per
	}
}

// transportProbes times simnet.Transport calls directly: a region lookup
// the transport has not resolved before (on the wire backends a query to
// the owner), the same lookup once cached, and a doorbell ring. Every rank
// registers the probe regions so their keys are symmetric.
func (s *script) transportProbes() {
	m := s.layerCtr
	const nCold = 16
	ep, tr := s.p.EP(), s.p.Fabric()
	regs := make([]*simnet.Region, nCold)
	for i := range regs {
		regs[i] = ep.Register(64)
	}
	s.p.Barrier()
	if s.isOrigin() {
		t := s.wl.targets[len(s.wl.targets)-1]
		var cold, warm, ring series
		for _, r := range regs {
			t0 := time.Now()
			tr.LookupRegion(simnet.Addr{Rank: t, Key: r.Key()})
			cold.add(float64(time.Since(t0)), 1)
		}
		a := simnet.Addr{Rank: t, Key: regs[0].Key()}
		for b := 0; b < 32; b++ {
			t0 := time.Now()
			for i := 0; i < group; i++ {
				tr.LookupRegion(a)
			}
			warm.add(float64(time.Since(t0))/group, group)
			t0 = time.Now()
			for i := 0; i < group; i++ {
				tr.RingDoorbell(t)
			}
			ring.add(float64(time.Since(t0))/group, group)
		}
		m["transport.lookup_cold_us"] = median(cold.all) / 1e3
		m["transport.lookup_warm_ns"] = median(warm.all)
		m["transport.door_ring_ns"] = median(ring.all)
	}
	s.p.Barrier()
	for _, r := range regs {
		ep.Unregister(r)
	}
}

// localProbes times the two pure data-structure layers, which need no world.
func localProbes(m map[string]float64) {
	const size = 256 << 10
	st := timing.NewStamps(size)
	var set, max series
	var sink timing.Time
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		st.SetRange(0, size, timing.Time(i+1))
		set.add(float64(time.Since(t0))/(size>>10), 1)
		t0 = time.Now()
		sink += st.MaxRange(0, size)
		max.add(float64(time.Since(t0))/(size>>10), 1)
	}
	_ = sink
	m["timing.setrange_ns_per_KiB"] = median(set.all)
	m["timing.maxrange_ns_per_KiB"] = median(max.all)

	var seg series
	for b := 0; b < 64; b++ {
		t0 := time.Now()
		for i := 0; i < 16; i++ {
			segpool.PutScrubbed(segpool.Get(64 << 10))
		}
		seg.add(float64(time.Since(t0))/16, 16)
	}
	m["segpool.get_put_ns"] = median(seg.all)
}

// timerNs is the cost of one time.Now/time.Since pair, the floor under
// every span.
func timerNs() float64 {
	var s series
	for b := 0; b < 64; b++ {
		t0 := time.Now()
		var d time.Duration
		for i := 0; i < group; i++ {
			d += time.Since(time.Now())
		}
		_ = d
		s.add(float64(time.Since(t0))/group, group)
	}
	return median(s.all)
}

// latencyKinds are the kinds whose metric is a per-op time in µs, with the
// end-to-end name each reports under.
var latencyKinds = []struct {
	k    kind
	name string
}{
	{kPut, "put_lat_us"}, {kGet, "get_lat_us"}, {kAmo, "amo_lat_us"}, {kNotify, "notify_rtt_us"},
	{kFence, "fence_us"}, {kLockAll, "lockall_us"}, {kColl, "coll_us"}, {kHalo, "halo_iter_us"},
}

// report fills out with the metrics this world measured: the end-to-end
// values of an untraced run, or the per-layer values of a traced one.
func (s *script) report(out *worldOut, allocsPerOp float64) {
	m := map[string]float64{}
	out.Metrics = m
	for k := range s.defs {
		out.Attempted += (s.ser[k].ops + s.serT[k].ops) * int64(s.defs[k].opsPer)
	}
	sizes := "block sizes (ops/group):"
	for k := range s.defs {
		if len(s.ser[k].blockMeds) > 0 {
			sizes += fmt.Sprintf(" %s=%d/%d", s.defs[k].name, s.n[k], s.grp[k])
		}
	}
	out.Notes = append(out.Notes, sizes, fmt.Sprintf("rounds: %d plain, %d traced", s.plainRounds, s.tracedRounds))
	if s.plainRounds < 100 && s.cfg.Seconds > 0 && !s.cfg.Quick {
		out.Notes = append(out.Notes, fmt.Sprintf("only %d plain blocks per kind; the estimator wants 100 (run longer)", s.plainRounds))
	}
	us := func(k kind) float64 { return s.ser[k].value() / 1e3 / float64(s.defs[k].opsPer) }
	bwBytes := float64(bulkSize * len(s.wl.targets))

	// The user-visible metrics of every kind that ran plain rounds. The
	// bounded ones read the quiet blocks, with the median over all blocks
	// beside them; the demoted ones are that median.
	for _, lk := range latencyKinds {
		switch ser := &s.ser[lk.k]; {
		case len(ser.blockMeds) == 0:
		case slices.Contains(gatedKinds, lk.k):
			m[lk.name], m[lk.name+"_median"] = ser.quiet()/1e3, ser.value()/1e3
		default:
			m[lk.name] = us(lk.k)
		}
	}
	if ser := &s.ser[kRate]; len(ser.blockMeds) > 0 {
		m["put_rate_kops"], m["put_rate_kops_median"] = 1e6/ser.quiet(), 1e6/ser.value()
	}
	if ser := &s.ser[kBw]; len(ser.blockMeds) > 0 {
		m["put_bw_MBps"], m["put_bw_MBps_median"] = bwBytes*1e3/ser.quiet(), bwBytes*1e3/ser.value()
	}
	m["allocs_per_op"] = allocsPerOp
	if !s.cfg.Trace {
		return
	}

	tr := s.tr
	if tr == nil {
		tr = newTracer() // a run too short for one traced round
	}
	for _, lk := range latencyKinds {
		v, pct := s.ser[lk.k].tail()
		m[lk.name+"_tail"] = v / 1e3 / float64(s.defs[lk.k].opsPer)
		m[lk.name+"_tail_pct"] = pct
	}
	for i := 0; i < numSweep; i++ {
		m["rma.put_us_"+sweepNames[i]] = us(kSweepPut + kind(i))
		m["rma.get_us_"+sweepNames[i]] = us(kSweepGet + kind(i))
	}
	for name, v := range s.layerCtr {
		m[name] = v
	}

	// The layer split of each op, from span medians of the traced rounds.
	// core's own share is the window-level call minus the same op issued
	// straight at the endpoint.
	putIssue, getIssue := tr.med("ep_put", "simnet.Endpoint.PutNBI"), tr.med("ep_get", "simnet.Endpoint.GetNBI")
	putWait, getWait := tr.med("ep_put", "simnet.Endpoint.Gsync"), tr.med("ep_get", "simnet.Endpoint.Gsync")
	fadd := tr.med("ep_amo", "simnet.Endpoint.FetchAdd")
	m["simnet.put_issue_ns"], m["simnet.get_issue_ns"], m["simnet.gsync_wait_ns"] = putIssue, getIssue, putWait
	m["core.put_self_ns"] = tr.med("put", "core.Win.Put") + tr.med("put", "core.Win.Flush") - putIssue - putWait
	m["core.get_self_ns"] = tr.med("get", "core.Win.Get") + tr.med("get", "core.Win.Flush") - getIssue - getWait
	m["core.amo_self_ns"] = tr.med("amo", "core.Win.FetchAndOp") - fadd
	if len(s.wl.targets) > 1 {
		m["hybridrun.shm_put_us"], m["hybridrun.wire_put_us"] = us(kPutFirst), us(kPutLast)
		m["hybridrun.both_over_wire"] = ratio(s.ser[kPut].value(), s.ser[kPutLast].value())
	}
	barrier := s.ser[kBarrier].value()
	m["spmd.barrier_us"], m["spmd.allreduce_us"] = barrier/1e3, s.ser[kAllreduce].value()/1e3
	m["core.win_allocate_us"] = s.ser[kWinAlloc].value() / 1e3
	m["core.fence_over_barrier"] = ratio(s.ser[kFence].value(), barrier)
	if plain := s.ser[kPut].value(); plain > 0 {
		m["telemetry.trace_overhead_pct"] = (s.serT[kPut].value()/plain - 1) * 100
	}
	m["trace.timer_ns"] = timerNs()
	m["apps.stencil.vtime_us_per_iter"] = median(s.haloVT.all)

	rows := func(op string, e2e float64, parts ...layerRow) {
		rest := e2e
		for _, r := range parts {
			r.Op = op
			out.Layers = append(out.Layers, r)
			rest -= r.Ns
		}
		out.Layers = append(out.Layers,
			layerRow{Op: op, Layer: "unattributed", Ns: rest},
			layerRow{Op: op, Layer: "end_to_end_untraced", Ns: e2e})
		m[op+".unattributed_ns"] = rest
	}
	rows("put", s.ser[kPut].value(),
		layerRow{Layer: "core", Ns: m["core.put_self_ns"]},
		layerRow{Layer: "simnet.issue", Ns: putIssue}, layerRow{Layer: "simnet.wait", Ns: putWait})
	rows("get", s.ser[kGet].value(),
		layerRow{Layer: "core", Ns: m["core.get_self_ns"]},
		layerRow{Layer: "simnet.issue", Ns: getIssue}, layerRow{Layer: "simnet.wait", Ns: getWait})
	rows("amo", s.ser[kAmo].value(),
		layerRow{Layer: "core", Ns: m["core.amo_self_ns"]}, layerRow{Layer: "simnet", Ns: fadd})
	rows("notify", s.ser[kNotify].value(),
		layerRow{Layer: "core.PutNotify", Ns: tr.med("notify", "core.Win.PutNotify")},
		layerRow{Layer: "core.WaitNotify", Ns: tr.med("notify", "core.Win.WaitNotify")})
	rows("fence", s.ser[kFence].value(),
		layerRow{Layer: "core", Ns: tr.med("fence", "core.Win.Fence") - barrier}, layerRow{Layer: "spmd.barrier", Ns: barrier})

	out.Spans, out.SpansDropped = tr.spans, tr.dropped
}
