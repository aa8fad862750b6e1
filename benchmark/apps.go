package main

import (
	"time"

	"fompi/internal/apps/hashtable"
	"fompi/internal/spmd"
	"fompi/internal/telemetry"
)

// htPaceNs is the hashtable world's pacing window in virtual ns, under
// which contended CAS chains make the pacing tracker do most of the host
// work.
const htPaceNs = 20000

// paceCounters are summed over the world's processes in a traced run.
var paceCounters = []string{"pace.parks", "pace.stalls", "pace.pokes"}

// runHashtable is the body of the hashtable world: every rank inserts
// wl.htInserts keys per repetition through hashtable.RunFoMPI, a fresh key
// set and a fresh window each repetition, until rank 0's deadline passes.
// One sample is the whole world's inserts over rank 0's host time for the
// repetition; the first repetition warms up and is dropped.
func runHashtable(p *spmd.Proc, wl *workload, cfg scriptCfg, out *worldOut) {
	prm := hashtable.Params{InsertsPerRank: wl.htInserts,
		TableSlots: 16 * wl.htInserts, OverflowCells: 4 * wl.htInserts}
	telemetry.SetEnabled(cfg.Trace)
	p.Barrier()
	if p.Rank() == 0 {
		out.ReadyUnixNano = time.Now().UnixNano()
	}
	var rate, vtime series
	var failed, inserts uint64
	var base [3]uint64
	for i, name := range paceCounters {
		base[i] = telemetry.NewCounter(name).Load()
	}
	// Every repetition registers a window, and the arena backends hold 1024
	// registrations per rank for the life of a world.
	const maxReps = 400
	minReps := 4
	if cfg.Quick {
		minReps = 2
	}
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for rep := 0; ; rep++ {
		prm.Seed = cfg.Seed*1000003 + int64(rep)*int64(p.Size()+1)
		p.Barrier()
		t0 := time.Now()
		res, vol := hashtable.RunFoMPI(p, prm)
		dt := time.Since(t0)

		// The table must hold exactly the keys inserted: count, sum and sum
		// of squares (mod 2^64) of what every rank's volume stores, against
		// the same over every rank's key sequence.
		var got, want [3]uint64
		for _, k := range hashtable.Collect(prm, vol) {
			got[0], got[1], got[2] = got[0]+1, got[1]+k, got[2]+k*k
		}
		for _, k := range hashtable.Keys(prm, p.Rank(), p.Size()) {
			want[0], want[1], want[2] = want[0]+1, want[1]+k, want[2]+k*k
		}
		bad := false
		for i := range got {
			bad = bad || p.Allreduce8(spmd.OpSum, got[i]) != p.Allreduce8(spmd.OpSum, want[i])
		}
		n := uint64(p.Size() * prm.InsertsPerRank)
		if bad {
			failed += n
		}
		if rep > 0 {
			inserts += n
			rate.add(float64(n)/dt.Seconds()/1e3, int(n))
			vtime.add(res.Elapsed.Micros()/float64(prm.InsertsPerRank), 1)
		}
		more := uint64(0)
		if p.Rank() == 0 && (rep < minReps || (time.Now().Before(deadline) && rep < maxReps)) {
			more = 1
		}
		if p.Bcast8(0, more) == 0 {
			break
		}
	}
	telemetry.SetEnabled(false)

	var pace [3]float64
	for i, name := range paceCounters {
		v := telemetry.NewCounter(name).Load() - base[i]
		if !wl.inproc() {
			v = p.Allreduce8(spmd.OpSum, v)
		}
		pace[i] = float64(v)
	}
	// A rank whose last act is a remote store (rank 0 handing rank 2 the
	// allreduce result) would exit with it still queued on the wire
	// backends; ending on a barrier makes every rank's last act a wait.
	p.Barrier()
	if p.Rank() != 0 {
		return
	}
	out.Attempted, out.Failed = int64(inserts), int64(failed)
	out.Metrics = map[string]float64{
		"insert_rate_kops": median(rate.all),
		// The counters also cover the warm-up repetition no rate sample does.
		"simnet.pace_parks_per_insert":       pace[0] / float64(inserts+uint64(p.Size()*wl.htInserts)),
		"simnet.pace_stalls":                 pace[1],
		"simnet.pace_pokes":                  pace[2],
		"apps.hashtable.vtime_us_per_insert": median(vtime.all),
	}
	if h, ok := telemetry.Capture(0).Hists["pace.park_ns"]; ok {
		out.Metrics["simnet.pace_park_ns_p50"] = float64(h.Quantile(0.5))
	}
}
