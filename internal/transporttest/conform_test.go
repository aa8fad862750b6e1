// Package transporttest is the Transport conformance suite: every backend
// must pass the same ordering, notification-delivery, atomicity, doorbell-
// wakeup, abort-propagation, and virtual-time-identity checks, so a new
// backend can be dropped in behind simnet.Transport and validated by
// running this package.
//
// Each test runs its body over every backend: the in-process fabric, the
// multi-process shared-memory world (internal/mprun), the inter-node TCP
// world in loopback mode (internal/netrun), and the hybrid shm+TCP world
// (internal/hybridrun, one emulated host per virtual node). The cross-process runs
// re-execute this test binary as the worker ranks (spmd.Config.MPRelaunch
// targets the one test by name), so the body literally runs in separate OS
// processes; a worker process skips straight to its own backend's run.
// Assertions panic, which aborts the world and fails the launcher-side test
// on any backend.
package transporttest

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"fompi/internal/core"
	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

// check panics with a formatted message; the suite's assertion primitive
// (bodies run in worker processes where *testing.T does not reach).
func check(cond bool, format string, args ...any) {
	if !cond {
		panic(fmt.Sprintf(format, args...))
	}
}

// backendsFlag scopes the suite to a subset of backend legs. CI uses it to
// give each backend-specific job its own leg instead of every job repeating
// the whole matrix; the verify job keeps the canonical all-backends run. Only
// the launcher reads it: a worker process is re-executed without the flag and
// only ever runs the leg of the world that launched it.
var backendsFlag = flag.String("tt.backends", "",
	"comma-separated conformance legs to run (in-process, multi-process, inter-node, hybrid); empty runs all four")

// legEnabled consults backendsFlag for one leg label.
func legEnabled(label string) bool {
	spec := strings.TrimSpace(*backendsFlag)
	if spec == "" {
		return true
	}
	for _, l := range strings.Split(spec, ",") {
		if strings.TrimSpace(l) == label {
			return true
		}
	}
	return false
}

// legLabel names each backend's leg, for failure messages and -tt.backends.
var legLabel = map[spmd.Backend]string{
	spmd.BackendInProc: "in-process",
	spmd.BackendMP:     "multi-process",
	spmd.BackendNet:    "inter-node",
	spmd.BackendHybrid: "hybrid",
}

// eachBackendLeg invokes leg once per backend this process should run: all
// four in the launcher (minus any -tt.backends scoping), only its own in a
// worker process — a worker's job is to be one rank of the world that
// re-executed it, never to launch the other backends' worlds. name must be
// the calling test's exact function name: the cross-process launchers
// re-execute the test binary with -test.run anchored to it, and the re-run
// must reach the same spmd.Run call for its backend (which is also why
// each conformance test contains exactly one run per cross-process
// backend). The cfg handed to leg is ready to run (backend and relaunch
// argv set). In the launcher every cross-process leg runs inside a
// launcherSnapshot: whatever its world did, this process is left as it was.
func eachBackendLeg(t *testing.T, name string, cfg spmd.Config, leg func(label string, cfg spmd.Config)) {
	t.Helper()
	mine := spmd.WorkerOf()
	for _, b := range append([]spmd.Backend{spmd.BackendInProc}, spmd.CrossBackends()...) {
		if (mine != "" && mine != b) || !legEnabled(legLabel[b]) {
			continue
		}
		c := cfg
		if c.Backend = b; b == spmd.BackendInProc {
			leg(legLabel[b], c)
			continue
		}
		if runtime.GOOS == "windows" {
			t.Skip("cross-process backends need mmap + unix sockets")
		}
		c.MPRelaunch = []string{os.Args[0], "-test.run=^" + name + "$"}
		left := launcherSnapshot()
		leg(legLabel[b], c)
		for _, l := range left(5 * time.Second) {
			t.Errorf("%s: the %s world left in its launcher %s", name, legLabel[b], l)
		}
	}
}

// runAll executes body over every backend (see eachBackendLeg), failing the
// test on the first backend whose world errors.
func runAll(t *testing.T, name string, cfg spmd.Config, body func(p *spmd.Proc)) {
	t.Helper()
	eachBackendLeg(t, name, cfg, func(label string, c spmd.Config) {
		if err := spmd.Run(c, body); err != nil {
			t.Fatalf("%s backend: %v", label, err)
		}
	})
}

// setupRegion registers a dedicated conformance region (the same size and
// program order on every rank, so its key is symmetric) and barriers so
// every rank's region is addressable.
func setupRegion(p *spmd.Proc, size int) (*simnet.Region, simnet.Key) {
	reg := p.EP().Register(size)
	k := reg.Key()
	lo := p.Allreduce8(spmd.OpMin, uint64(k))
	hi := p.Allreduce8(spmd.OpMax, uint64(k))
	check(lo == hi, "conformance region key not symmetric: %d..%d", lo, hi)
	p.Barrier()
	return reg, k
}

// TestConformanceOrdering checks put-then-flag ordering: once a poller has
// observed the flag and merged its stamp, the payload bytes are present and
// no payload word's stamp exceeds the poller's merged clock (data lands
// causally before the flag that announces it).
func TestConformanceOrdering(t *testing.T) {
	const rounds = 8
	cfg := spmd.Config{Ranks: 2, RanksPerNode: 1} // inter-node: the NIC path
	runAll(t, "TestConformanceOrdering", cfg, func(p *spmd.Proc) {
		const payloadOff, flagOff, payloadLen = 0, 1024, 996 // odd length: edge blocks
		reg, key := setupRegion(p, 2048)
		ep := p.EP()
		if p.Rank() == 0 {
			for r := 1; r <= rounds; r++ {
				buf := make([]byte, payloadLen)
				for i := range buf {
					buf[i] = byte(r + i)
				}
				// Two separately rung writes: the flag's ring may wake the
				// consumer before this rank issues anything else.
				ep.PutNBI(simnet.Addr{Rank: 1, Key: key, Off: payloadOff}, buf)
				ep.StoreW(simnet.Addr{Rank: 1, Key: key, Off: flagOff}, uint64(r))
				// Wait for the consumer's ack before reusing the payload area.
				ep.WaitLocal(func() bool { return reg.LocalWord(flagOff) >= uint64(r) })
			}
		} else {
			for r := 1; r <= rounds; r++ {
				ep.WaitLocal(func() bool { return reg.LocalWord(flagOff) >= uint64(r) })
				ep.MergeStamp(reg, flagOff, 8)
				for i := 0; i < payloadLen; i++ {
					check(reg.Bytes()[payloadOff+i] == byte(r+i),
						"round %d: payload byte %d corrupt", r, i)
				}
				check(reg.StampMax(payloadOff, payloadLen) <= ep.Now(),
					"round %d: payload stamped after the flag that announced it", r)
				ep.StoreW(simnet.Addr{Rank: 0, Key: key, Off: flagOff}, uint64(r))
			}
		}
		p.Barrier()
	})
}

// TestConformanceAtomics checks cross-rank atomicity: a fetch-add counter
// accumulates exactly, fetch-add tickets are unique, and a CAS spinlock
// provides mutual exclusion around a non-atomic read-modify-write.
func TestConformanceAtomics(t *testing.T) {
	const perRank = 200
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	runAll(t, "TestConformanceAtomics", cfg, func(p *spmd.Proc) {
		const ctrOff, lockOff, cellOff = 0, 8, 16
		reg, key := setupRegion(p, 64)
		ep := p.EP()
		ctr := simnet.Addr{Rank: 0, Key: key, Off: ctrOff}
		seen := map[uint64]bool{}
		for i := 0; i < perRank; i++ {
			old := ep.FetchAdd(ctr, 1)
			check(!seen[old], "fetch-add ticket %d seen twice by rank %d", old, p.Rank())
			seen[old] = true
		}
		lock := simnet.Addr{Rank: 0, Key: key, Off: lockOff}
		cell := simnet.Addr{Rank: 0, Key: key, Off: cellOff}
		for i := 0; i < 32; i++ {
			for ep.CompareSwap(lock, 0, uint64(p.Rank())+1) != 0 {
			}
			v := ep.LoadW(cell)
			ep.StoreW(cell, v+1)
			ep.Gsync()
			check(ep.FetchOp(lock, simnet.AmoReplace, 0) == uint64(p.Rank())+1, "lock stolen from rank %d", p.Rank())
		}
		p.Barrier()
		if p.Rank() == 0 {
			check(reg.LocalWord(ctrOff) == uint64(p.Size()*perRank),
				"fetch-add counter %d, want %d", reg.LocalWord(ctrOff), p.Size()*perRank)
			check(reg.LocalWord(cellOff) == uint64(p.Size()*32),
				"CAS-locked counter %d, want %d (mutual exclusion violated)",
				reg.LocalWord(cellOff), p.Size()*32)
		}
		p.Barrier()
	})
}

// faultOf runs fn and returns the message it panicked with, "" if it
// returned: a protection fault is a panic the issuing rank may survive.
func faultOf(fn func()) (msg string) {
	defer func() {
		if e := recover(); e != nil {
			msg = fmt.Sprint(e)
		}
	}()
	fn()
	return ""
}

// TestConformanceUnregisterWarm checks that Unregister is exact through a
// resident route: rank 0 drives a same-node and an off-node owner's region
// until its endpoint's route memo serves them, the owners unregister,
// recycle the segment and fill the recycled bytes, and after a barrier every
// one of rank 0's put, get and fetch-add faults as an access to an
// unregistered region and leaves those bytes alone.
func TestConformanceUnregisterWarm(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	runAll(t, "TestConformanceUnregisterWarm", cfg, func(p *spmd.Proc) {
		const size, fill = 256, 0x5A
		ep := p.EP()
		seg := ep.AllocSeg(size)
		reg := ep.RegisterBufStamps(seg.Buf, seg.St)
		key := reg.Key()
		check(p.Allreduce8(spmd.OpMin, uint64(key)) == p.Allreduce8(spmd.OpMax, uint64(key)),
			"conformance region key not symmetric")
		p.Barrier()

		word := make([]byte, 8)
		owners := []int{1, 3} // rank 0's node-mate (an arena peer on hybrid) and a rank off its node
		ops := func(a simnet.Addr) map[string]func() {
			return map[string]func(){
				"put":       func() { ep.Put(a, word) },
				"get":       func() { ep.Get(word, a) },
				"fetch-add": func() { ep.FetchAdd(a.Add(8), 1) },
			}
		}
		if p.Rank() == 0 {
			for _, o := range owners {
				for round := 0; round < 3; round++ {
					before := ep.Counters().RouteMisses
					for _, op := range ops(simnet.Addr{Rank: o, Key: key}) {
						op()
					}
					check(round == 0 || ep.Counters().RouteMisses == before,
						"round %d into rank %d missed the route memo", round, o)
				}
			}
		}
		p.Barrier()

		owner := p.Rank() == owners[0] || p.Rank() == owners[1]
		var recycled *simnet.Region
		if owner {
			ep.Unregister(reg)
			ep.RecycleSeg(seg)
			again := ep.AllocSeg(size)
			recycled = ep.RegisterBufStamps(again.Buf, again.St)
			for i := range recycled.Bytes() {
				recycled.Bytes()[i] = fill
			}
		}
		p.Barrier()

		if p.Rank() == 0 {
			for _, o := range owners {
				for name, op := range ops(simnet.Addr{Rank: o, Key: key}) {
					msg := faultOf(op)
					check(strings.Contains(msg, "access to unregistered region"),
						"%s through a warm route into rank %d's unregistered region: %q, want a fault", name, o, msg)
				}
			}
		}
		p.Barrier()

		if owner {
			for i, b := range recycled.Bytes() {
				check(b == fill, "rank %d: recycled byte %d overwritten through a retired registration", p.Rank(), i)
			}
			for i, b := range seg.Buf {
				check(b == 0 || b == fill, "rank %d: byte %d of the unregistered segment written after Unregister", p.Rank(), i)
			}
		}
		p.Barrier()
	})
}

// TestConformanceNotify checks notified-access delivery: the notification
// word arrives intact, after its data, and with a stamp no earlier than the
// data's (the data-before-notification contract rings are built on).
func TestConformanceNotify(t *testing.T) {
	const rounds = 6
	cfg := spmd.Config{Ranks: 2, RanksPerNode: 2} // intra-node fast path
	runAll(t, "TestConformanceNotify", cfg, func(p *spmd.Proc) {
		ringBytes := simnet.NotifyRingBytes(8)
		reg, key := setupRegion(p, 512+ringBytes)
		ep := p.EP()
		ring := simnet.BindNotifyRing(reg, 512, 8)
		p.Barrier()
		if p.Rank() == 0 {
			for r := 1; r <= rounds; r++ {
				buf := []byte(fmt.Sprintf("payload %02d", r))
				ep.PutNotify(simnet.Addr{Rank: 1, Key: key, Off: 0}, buf,
					simnet.Addr{Rank: 1, Key: key, Off: 512}, uint64(r))
				ep.Gsync()
				w := ring.Pop(ep) // credit back from the consumer
				check(w == uint64(r)+100, "credit %d, want %d", w, r+100)
			}
		} else {
			for r := 1; r <= rounds; r++ {
				w, stamp, okPop := popBlocking(ep, ring)
				check(okPop && w == uint64(r), "notification %d, want %d", w, r)
				want := fmt.Sprintf("payload %02d", r)
				check(string(reg.Bytes()[:len(want)]) == want, "round %d: data missing at notify time", r)
				check(stamp >= reg.StampMax(0, len(want)),
					"round %d: notification stamped before its data", r)
				ep.AdvanceTo(stamp)
				ep.Notify(simnet.Addr{Rank: 0, Key: key, Off: 512}, uint64(r)+100)
			}
		}
		p.Barrier()
	})
}

// TestConformanceNotifyOutOfOrder consumes two notifications in the reverse
// of their arrival order through core's matching list. Rank 1 runs a
// virtual millisecond ahead, then sends A; once A sits in rank 0's ring —
// arrived, its stamp not merged — rank 0 has rank 2 send B and waits on B,
// which parks A, then on A. B's stamp stays short of A's issue, so only the
// parked entry's own stamp, merged as it is matched, takes rank 0's clock
// past A's data; after it nothing is left pending.
func TestConformanceNotifyOutOfOrder(t *testing.T) {
	const tagA, tagB, tagGo = 1, 2, 3
	const lead = 1_000_000 // virtual ns rank 1 runs ahead before it sends A
	cfg := spmd.Config{Ranks: 3, RanksPerNode: 2}
	runAll(t, "TestConformanceNotifyOutOfOrder", cfg, func(p *spmd.Proc) {
		w, _ := core.Allocate(p, 64, core.Config{})
		ep := p.EP()
		w.LockAll()
		p.Barrier() // every lock-all atomic at rank 0 before A books its port
		var issued, before, after timing.Time
		pending := -1
		switch p.Rank() {
		case 0:
			for w.PendingNotify() == 0 {
				runtime.Gosched()
			}
			w.Notify(2, tagGo)
			w.WaitNotify(tagB)
			check(w.PendingNotify() == 1, "after WaitNotify(B) %d notifications pending, want A's alone", w.PendingNotify())
			before = ep.Now()
			w.WaitNotify(tagA)
			after, pending = ep.Now(), w.PendingNotify()
		case 1:
			ep.Compute(lead)
			issued = ep.Now()
			w.PutNotify(make([]byte, 64), 0, 0, tagA)
			w.Flush(0)
		case 2:
			w.WaitNotify(tagGo)
			w.Notify(0, tagB)
		}
		w.UnlockAll()
		issued = timing.Time(p.Allreduce8(spmd.OpMax, uint64(issued)))
		if p.Rank() == 0 {
			check(before < issued, "the clock reached %d ns, A's issue at %d ns, before WaitNotify(A): B's stamp already covers A, so nothing is tested", before, issued)
			check(after > issued, "WaitNotify(A) left the clock at %d ns, short of A's data, issued at %d ns: the parked notification's stamp was not merged", after, issued)
			check(pending == 0, "%d notifications pending after both were consumed", pending)
		}
		w.Free()
	})
}

// popBlocking waits for one notification and returns it with its stamp.
func popBlocking(ep *simnet.Endpoint, ring *simnet.NotifyRing) (uint64, timing.Time, bool) {
	var w uint64
	var st timing.Time
	var ok bool
	ep.WaitLocal(func() bool {
		w, st, ok = ring.TryPopStamped(ep)
		return ok
	})
	return w, st, ok
}

// TestConformanceDoorbell checks that a parked waiter is woken by a remote
// write — no lost wakeups, no reliance on the waiter polling fast — by
// making the writer sleep in real time while the waiter is parked.
func TestConformanceDoorbell(t *testing.T) {
	cfg := spmd.Config{Ranks: 2, RanksPerNode: 1}
	runAll(t, "TestConformanceDoorbell", cfg, func(p *spmd.Proc) {
		reg, key := setupRegion(p, 64)
		ep := p.EP()
		if p.Rank() == 0 {
			time.Sleep(250 * time.Millisecond) // let the waiter park for real
			ep.StoreW(simnet.Addr{Rank: 1, Key: key, Off: 0}, 42)
			ep.PollRemoteWord(simnet.Addr{Rank: 1, Key: key, Off: 8},
				func(v uint64) bool { return v == 43 })
		} else {
			t0 := time.Now()
			ep.WaitLocal(func() bool { return reg.LocalWord(0) == 42 })
			check(time.Since(t0) < 30*time.Second, "doorbell wait hung")
			reg.LocalWordStore(8, 43, ep.Now())
			p.EP().Transport().RingDoorbell(p.Rank()) // announce the local store
		}
		p.Barrier()
	})
}

// TestConformanceFusedFrame is the wire gate: a burst of 64 PutNB to one
// off-host rank plus the Gsync that completes it costs the net and hybrid
// backends exactly one opBatch frame — the burst fuses whole, far below the
// window's byte cap — with nothing retransmitted, resumed or replayed from the
// owner's reply cache. A blocking put big enough to flush the frame builder
// on its own is one frame too: the doorbell ring rides the put's frame, and
// no bare ring frame follows it. The shared-memory backends send no frame at
// all.
func TestConformanceFusedFrame(t *testing.T) {
	const burst = 64
	const bulk = 256 << 10 // netrun's batchBuildMax: the put's entry flushes the builder
	cfg := spmd.Config{Ranks: 2, RanksPerNode: 1}
	defer telemetry.SetEnabled(telemetry.On())
	telemetry.SetEnabled(true) // workers re-execute the test: every rank's process counts
	runAll(t, "TestConformanceFusedFrame", cfg, func(p *spmd.Proc) {
		_, key := setupRegion(p, bulk)
		ep := p.EP()
		before := telemetry.Capture(0).Counters
		if p.Rank() == 0 {
			var word [8]byte
			ep.Put(simnet.Addr{Rank: 1, Key: key}, word[:]) // resolve the route outside the frame count
			frames, want := paceCounter("net.batches"), uint64(0)
			for i := 0; i < burst; i++ {
				ep.PutNB(simnet.Addr{Rank: 1, Key: key, Off: i * 8}, word[:])
			}
			ep.Gsync()
			frames = paceCounter("net.batches") - frames
			if label := legLabel[spmd.WorkerOf()]; label == "inter-node" || label == "hybrid" {
				want = 1 // rank 1 is off host on both wire-carrying backends
			}
			check(frames == want, "%d PutNB + Gsync cost %d wire frames, want %d", burst, frames, want)

			queued := func() uint64 { return telemetry.Capture(0).Hists["net.window"].Count } // one per frame
			frames = queued()
			ep.Put(simnet.Addr{Rank: 1, Key: key}, make([]byte, bulk))
			frames = queued() - frames
			check(frames == want, "a blocking %d-byte put cost %d wire frames, want %d", bulk, frames, want)
		}
		p.Barrier() // the owner's counters have seen the burst too
		after := telemetry.Capture(0).Counters
		telemetry.SetEnabled(false) // past the last read: no STATS line at world exit
		for _, c := range []string{"net.retransmits", "net.resumes", "net.dedup_hits"} {
			check(after[c] == before[c], "rank %d: %s moved by %d on a fault-free wire", p.Rank(), c, after[c]-before[c])
		}
	})
}

// TestConformanceSharedFrame: a read shares the writes' frame. Eight PutNBI
// then a Get to one off-host rank cost the net and hybrid backends one frame
// written and one reply read — the get is the last entry of the list the puts
// opened, behind them in the owner's order, so it returns the bytes the eighth
// put wrote — and the shared-memory backends none; a fetching atomic, whose
// doorbell ring rides its own frame, costs one more; every rank's virtual time
// equals the in-process run's.
func TestConformanceSharedFrame(t *testing.T) {
	const puts = 8
	cfg := spmd.Config{Ranks: 2, RanksPerNode: 1}
	// net.window takes one sample per frame queued.
	framesQueued := func() uint64 { return telemetry.Capture(0).Hists["net.window"].Count }
	body := func(p *spmd.Proc) (frames uint64, now timing.Time) {
		_, key := setupRegion(p, puts*8)
		if ep := p.EP(); p.Rank() == 0 {
			var word, got [8]byte
			ep.Put(simnet.Addr{Rank: 1, Key: key}, word[:]) // resolve the route outside the frame count
			frames = framesQueued()
			for i := 0; i < puts; i++ {
				word[0] = byte(i + 1)
				ep.PutNBI(simnet.Addr{Rank: 1, Key: key, Off: i * 8}, word[:])
			}
			ep.Get(got[:], simnet.Addr{Rank: 1, Key: key, Off: (puts - 1) * 8})
			frames = framesQueued() - frames
			check(got[0] == puts, "the get behind %d puts read %d, want the last put's %d", puts, got[0], puts)
			amo := framesQueued()
			ep.FetchAdd(simnet.Addr{Rank: 1, Key: key}, 1)
			check(framesQueued()-amo == frames, "a fetch-add and its ring queued %d wire frames, the burst before it %d", framesQueued()-amo, frames)
			ep.Gsync()
		}
		p.Barrier()
		return frames, p.Now()
	}
	want := make([]timing.Time, cfg.Ranks)
	if err := spmd.Run(cfg, func(p *spmd.Proc) { _, want[p.Rank()] = body(p) }); err != nil {
		t.Fatalf("in-process reference run: %v", err)
	}
	defer telemetry.SetEnabled(telemetry.On())
	telemetry.SetEnabled(true) // workers re-execute the test: every rank's process counts
	eachBackendLeg(t, "TestConformanceSharedFrame", cfg, func(label string, c spmd.Config) {
		wantFrames := uint64(0)
		if label == "inter-node" || label == "hybrid" {
			wantFrames = 1 // rank 1 is off host on both wire-carrying backends
		}
		if err := spmd.Run(c, func(p *spmd.Proc) {
			frames, now := body(p)
			telemetry.SetEnabled(false) // past the last read: no STATS line at world exit
			check(p.Rank() != 0 || frames == wantFrames,
				"%d PutNBI + Get queued %d wire frames on the %s backend, want %d", puts, frames, label, wantFrames)
			check(now == want[p.Rank()], "rank %d virtual time %d on the %s backend, %d in process",
				p.Rank(), now, label, want[p.Rank()])
		}); err != nil {
			t.Fatalf("%s backend: %v", label, err)
		}
	})
}

// TestConformanceSharedWindow checks the shared-memory window contract on
// every backend: with all ranks on one (virtual) node, AllocateShared
// succeeds everywhere, and SharedSlice either maps the peer's segment for
// direct load/store access (in-process, multi-process, hybrid — any backend
// whose processes share the owner's memory) or fails with the typed
// simnet.ErrNotMapped (the pure inter-node transport — the panic this
// suite's backends used to die with). Where the mapping exists, a raw
// write-through store must be visible both to the owner's direct mapping
// and to the fabric's own Get of the same bytes.
func TestConformanceSharedWindow(t *testing.T) {
	cfg := spmd.Config{Ranks: 2, RanksPerNode: 2} // one (virtual) node
	runAll(t, "TestConformanceSharedWindow", cfg, func(p *spmd.Proc) {
		w, mem := core.AllocateShared(p, 64, core.Config{})
		defer w.Free()
		mem[0] = byte(0x40 + p.Rank()) // tag the own segment by direct store
		w.Fence()
		peer := 1 - p.Rank()
		s, err := w.SharedSliceErr(peer)
		if err != nil {
			check(errors.Is(err, simnet.ErrNotMapped),
				"SharedSlice(%d) failed with %v, want simnet.ErrNotMapped", peer, err)
			own, oerr := w.SharedSliceErr(p.Rank())
			check(oerr == nil, "own-segment SharedSlice must keep working: %v", oerr)
			check(own[0] == byte(0x40+p.Rank()), "own-segment mapping corrupt")
		} else {
			check(s[0] == byte(0x40+peer),
				"peer segment tag %#x, want %#x", s[0], 0x40+peer)
			s[8] = 0x7e // write-through into the peer process's memory
		}
		w.Fence() // order the raw stores before the owner-side reads
		if err == nil {
			check(mem[8] == 0x7e, "peer's write-through store not visible in the owner's mapping")
			got := make([]byte, 1)
			w.Get(got, p.Rank(), 8)
			check(got[0] == 0x7e, "peer's write-through store invisible to the owner's Get")
		}
		p.Barrier()
	})
}

// TestConformanceSharedCrossNode checks that a genuinely cross-node shared
// mapping is refused with the typed simnet.ErrNotSameNode on every backend —
// from SharedErr directly and from core.AllocateShared's argument check
// (delivered by panic, recoverable and errors.Is-testable).
func TestConformanceSharedCrossNode(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	runAll(t, "TestConformanceSharedCrossNode", cfg, func(p *spmd.Proc) {
		_, key := setupRegion(p, 64)
		cross := (p.Rank() + 2) % 4 // the other virtual node, on every backend
		_, err := p.EP().SharedErr(simnet.Addr{Rank: cross, Key: key}, 64)
		check(err != nil && errors.Is(err, simnet.ErrNotSameNode),
			"SharedErr(cross-node rank %d) = %v, want simnet.ErrNotSameNode", cross, err)
		func() {
			defer func() {
				rec := recover()
				err, ok := rec.(error)
				check(ok && errors.Is(err, simnet.ErrNotSameNode),
					"AllocateShared across nodes: recovered %v, want a panic wrapping simnet.ErrNotSameNode", rec)
			}()
			core.AllocateShared(p, 64, core.Config{})
		}()
		p.Barrier()
	})
}

// TestConformancePlacement pins what each backend name places where, from the
// two things a program can observe: whether a same-virtual-node peer's memory
// maps (SharedErr), and whether a put to a peer costs a wire frame
// (net.batches). multi-process: every peer maps and nothing ever crosses a
// wire. inter-node: no peer maps — loopback ranks all share a hostname, and
// grouping them by it is exactly what this fails on — and every put is a
// frame. hybrid: the node-mate maps and costs nothing, the cross-node peer
// costs a frame. The two world shapes are subtests because a worker
// re-executes the test up to the one Run of its backend.
func TestConformancePlacement(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.On())
	for _, shape := range []struct {
		name string
		cfg  spmd.Config
	}{
		{"pair", spmd.Config{Ranks: 2, RanksPerNode: 2}},
		{"quad", spmd.Config{Ranks: 4, RanksPerNode: 2}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			telemetry.SetEnabled(true) // workers re-execute the test: every rank's process counts
			runAll(t, "TestConformancePlacement/"+shape.name, shape.cfg, func(p *spmd.Proc) {
				_, key := setupRegion(p, 64)
				ep := p.EP()
				label := legLabel[spmd.WorkerOf()] // "" in process
				frames := func(peer int) uint64 {
					before := paceCounter("net.batches")
					var word [8]byte
					ep.PutNB(simnet.Addr{Rank: peer, Key: key, Off: 8 * p.Rank()}, word[:])
					ep.Gsync()
					return paceCounter("net.batches") - before
				}
				mate := p.Rank() ^ 1 // the other rank of this virtual node
				_, err := ep.SharedErr(simnet.Addr{Rank: mate, Key: key}, 64)
				if label == "inter-node" {
					check(errors.Is(err, simnet.ErrNotMapped), "SharedErr(node-mate %d) = %v on ranks that share no host key, want simnet.ErrNotMapped", mate, err)
					check(frames(mate) > 0, "a put to rank %d crossed no wire", mate)
				} else {
					check(err == nil, "SharedErr(node-mate %d): %v", mate, err)
					check(frames(mate) == 0, "a put to the mapped node-mate %d cost a wire frame", mate)
				}
				if far := (p.Rank() + 2) % p.Size(); far != p.Rank() {
					wired := label == "inter-node" || label == "hybrid"
					check(frames(far) > 0 == wired, "a put to cross-node rank %d: wire frame %v, want %v", far, !wired, wired)
				}
				p.Barrier()
				telemetry.SetEnabled(false) // past the last read: no STATS line at world exit
			})
		})
	}
}

// tokenRing is a token-serialized tour of every endpoint operation: the
// token hand-off imposes a total order on all remote operations, so clocks
// and stamps are fully protocol-ordered and the per-rank virtual times it
// leaves are deterministic — across runs and across backends.
func tokenRing(p *spmd.Proc, key simnet.Key, reg *simnet.Region) {
	ep := p.EP()
	n := p.Size()
	const tokOff, dataOff = 0, 64
	payload := make([]byte, 700) // crosses stamp-block edges
	for lap := 0; lap < 3; lap++ {
		turn := uint64(lap*n) + 1
		if p.Rank() == 0 && lap == 0 {
			// Kick off the ring.
			ep.StoreW(simnet.Addr{Rank: 0, Key: key, Off: tokOff}, turn)
		}
		myTurn := turn + uint64(p.Rank())
		ep.WaitLocal(func() bool { return reg.LocalWord(tokOff) >= myTurn })
		ep.MergeStamp(reg, tokOff, 8)
		next := (p.Rank() + 1) % n
		for i := range payload {
			payload[i] = byte(lap + i + p.Rank())
		}
		ep.Put(simnet.Addr{Rank: next, Key: key, Off: dataOff}, payload)
		got := make([]byte, 256)
		ep.Get(got, simnet.Addr{Rank: next, Key: key, Off: dataOff})
		ep.FetchAdd(simnet.Addr{Rank: next, Key: key, Off: 32}, 7)
		ep.CompareSwap(simnet.Addr{Rank: next, Key: key, Off: 40}, 0, uint64(lap))
		ep.AddNBI(simnet.Addr{Rank: next, Key: key, Off: 48}, 1)
		ep.GetNBI(got, simnet.Addr{Rank: next, Key: key, Off: dataOff})
		ep.Gsync()
		ep.Compute(500)
		// Pass the token.
		ep.StoreW(simnet.Addr{Rank: next, Key: key, Off: tokOff}, myTurn+1)
	}
	if p.Rank() == 0 {
		// The ring closes at rank 0: absorb the final hand-off before the
		// barrier so every hand-off stamp is merged somewhere.
		ep.WaitLocal(func() bool { return reg.LocalWord(tokOff) >= uint64(3*n)+1 })
		ep.MergeStamp(reg, tokOff, 8)
	}
}

// vtimeWorkload is the token ring followed by a concurrent-AMO phase whose
// contribution to the returned per-rank virtual times is order-independent.
func vtimeWorkload(p *spmd.Proc, key simnet.Key, reg *simnet.Region) timing.Time {
	ep := p.EP()
	tokenRing(p, key, reg)
	// Concurrent-AMO phase: the node-0 ranks race unordered non-fetching
	// adds at one word of rank 0's region with nothing serializing them.
	// The word's final stamp is order-independent (t+I+nL however the host
	// scheduler interleaves the racing AMOs) exactly because every AMO
	// holds the stamp chain lock across its read-apply-stamp sequence; a
	// lost lock — the stamp-merge race verify.sh once papered over with a
	// retry — lets an earlier landing overwrite a later one, and the stamp
	// flaps with the schedule. Each rank's own completion legitimately
	// depends on its chain position, so the clocks are re-anchored on a
	// fixed ceiling afterwards: the chain-end stamp, folded into rank 0's
	// anchor and spread by the final barrier, is the phase's only
	// contribution to the returned times.
	const amoOff, amoPerRank = 56, 8
	p.Barrier()
	t0 := p.Now()
	if p.Node() == 0 {
		for i := 0; i < amoPerRank; i++ {
			ep.AddNBI(simnet.Addr{Rank: 0, Key: key, Off: amoOff}, 1)
		}
		ep.Gsync()
	}
	p.Barrier()                  // every racing AMO is chained before the stamp is read
	anchor := t0 + 1_000_000_000 // dominates every phase-local completion
	if p.Rank() == 0 {
		anchor += reg.StampMax(amoOff, 8) - t0
	}
	ep.AdvanceTo(anchor)
	p.Barrier()
	return p.Now()
}

// TestConformanceVirtualTime pins the tentpole claim: a protocol-ordered
// workload yields bit-identical per-rank virtual times on every backend.
// The expected clocks are computed by two in-process runs (which also guards
// run-to-run determinism); the multi-process run then re-derives them inside
// each worker process and compares its own rank's clock exactly.
func TestConformanceVirtualTime(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2} // both intra- and inter-node hops
	clocksOnce := func() []timing.Time {
		clocks := make([]timing.Time, cfg.Ranks)
		if err := spmd.Run(cfg, func(p *spmd.Proc) {
			reg, key := setupRegion(p, 1024)
			clocks[p.Rank()] = vtimeWorkload(p, key, reg)
		}); err != nil {
			t.Fatalf("in-process reference run: %v", err)
		}
		return clocks
	}
	want := clocksOnce()
	for r := range want {
		if want[r] == 0 {
			t.Fatalf("rank %d clock stayed 0; workload did not run", r)
		}
	}
	// Ten repeat runs pin the stamp-merge race the workload's concurrent-AMO
	// phase provokes: one bad interleaving with a lost chain lock shifts a
	// stamp, and with it a rank's final clock. (This determinism loop is what
	// replaced the retry hack scripts/verify.sh used to carry.)
	for run := 1; run < 10; run++ {
		again := clocksOnce()
		for r := range want {
			if want[r] != again[r] {
				t.Fatalf("in-process workload is not run-deterministic at rank %d (repeat %d): %d vs %d — the cross-backend comparison below would be meaningless", r, run, want[r], again[r])
			}
		}
	}
	// Worker processes re-execute this test: they recompute `want` with
	// their own in-process runs above, then reach their backend's Run below
	// as workers and assert their rank's clock matches it bit for bit. The
	// in-process leg re-asserts the reference against a third run for free.
	eachBackendLeg(t, "TestConformanceVirtualTime", cfg, func(label string, c spmd.Config) {
		if err := spmd.Run(c, func(p *spmd.Proc) {
			reg, key := setupRegion(p, 1024)
			got := vtimeWorkload(p, key, reg)
			check(got == want[p.Rank()],
				"rank %d virtual time %d on the %s backend, %d in process",
				p.Rank(), got, label, want[p.Rank()])
		}); err != nil {
			t.Fatalf("%s backend: %v", label, err)
		}
	})
}

// TestConformanceAbortPropagation checks that one rank's failure tears down
// the whole world on every backend: blocked peers unwind instead of hanging,
// the launcher-side Run reports the originating failure, and (on the
// cross-process backends) the worker processes exit. The non-failing ranks
// park in a doorbell wait that nothing will ever satisfy — only abort
// propagation can release them.
func TestConformanceAbortPropagation(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	const failMsg = "deliberate conformance failure"
	body := func(p *spmd.Proc) {
		reg, _ := setupRegion(p, 64)
		if p.Rank() == 1 {
			p.Compute(100) // let the others park first in real time, sometimes
			panic(failMsg)
		}
		p.EP().WaitLocal(func() bool { return reg.LocalWord(0) == 0xdead })
		panic("unreachable: the wait above can only end by abort")
	}
	eachBackendLeg(t, "TestConformanceAbortPropagation", cfg, func(label string, c spmd.Config) {
		expectAbort(t, label, failMsg, func() error { return spmd.Run(c, body) })
	})
}

// expectAbort runs a world one of whose ranks fails with failMsg and checks
// that the launcher-side error carries that originating failure and that the
// world ended by its ranks unwinding, not by the launcher's kill.
func expectAbort(t *testing.T, backend, failMsg string, run func() error) {
	t.Helper()
	errc := make(chan error, 1)
	t0 := time.Now()
	go func() { errc <- run() }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatalf("%s backend: world with a failing rank reported success", backend)
		}
		if !strings.Contains(err.Error(), failMsg) {
			t.Fatalf("%s backend: abort error %q does not carry the originating failure %q",
				backend, err, failMsg)
		}
		// A parked rank that does not unwind is reaped by the launcher
		// 8 s after the abort (abortGrace); every rank must go on its own.
		if d := time.Since(t0); d > 6*time.Second {
			t.Fatalf("%s backend: the world took %v to end: a parked rank waited for the launcher's kill instead of unwinding", backend, d)
		}
	case <-time.After(90 * time.Second):
		t.Fatalf("%s backend: abort did not propagate (launcher still waiting)", backend)
	}
}

// TestConformanceBlame pins the one blame rule: a rank that fails blames
// itself before anything else hears of it, so wherever its peers are parked —
// at the arena door beside it, at their own door behind a wire, on the
// in-process fabric — they unwind with a *simnet.ErrPeerFailed naming it, and
// the launcher reports the rank's own panic, not a peer's abort symptom. Rank
// 1 fails while its node-mate rank 0, which shares its arena on every
// placement that maps one, sits in WaitLocal; only the mate's verdict is
// pinned, because a rank of another host group hears the culprit's name from
// the coordinator, and only when the culprit's FAIL reaches it before a woken
// mate's abort symptom does.
func TestConformanceBlame(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	const culprit, mate, failMsg = 1, 0, "deliberate failure beside a parked host-mate"
	if spmd.WorkerOf() == "" {
		t.Setenv("TMPDIR", t.TempDir()) // workers inherit it: where the witnesses go
	}
	// A survivor records what its wait unwound with, under its world's name.
	witness := func(world spmd.Backend, rank int) string {
		return filepath.Join(os.TempDir(), fmt.Sprintf("blame-%s-survivor-%d", world, rank))
	}
	body := func(world spmd.Backend) func(p *spmd.Proc) {
		return func(p *spmd.Proc) {
			reg, _ := setupRegion(p, 64)
			if p.Rank() == culprit {
				time.Sleep(200 * time.Millisecond) // let the others park for real
				panic(failMsg)
			}
			defer func() {
				e := recover()
				verdict := fmt.Sprintf("unwound with %v", e)
				var pf *simnet.ErrPeerFailed
				if err, ok := e.(error); ok && errors.As(err, &pf) {
					verdict = fmt.Sprintf("peer %d failed", pf.Rank)
				} else if ok && errors.Is(err, simnet.ErrAborted) {
					verdict = "aborted"
				}
				os.WriteFile(witness(world, p.Rank()), []byte(verdict), 0o600)
				panic(e)
			}()
			p.EP().WaitLocal(func() bool { return reg.LocalWord(0) == 0xdead })
			panic("unreachable: the wait above can only end by abort")
		}
	}
	eachBackendLeg(t, "TestConformanceBlame", cfg, func(label string, c spmd.Config) {
		expectAbort(t, label, fmt.Sprintf("rank %d panicked: %s", culprit, failMsg), func() error { return spmd.Run(c, body(c.Backend)) })
		want := fmt.Sprintf("peer %d failed", culprit)
		if got, _ := os.ReadFile(witness(c.Backend, mate)); string(got) != want {
			t.Errorf("%s backend: rank %d %q, want %q", label, mate, got, want)
		}
	})
}

// TestConformanceWindowChurn checks that a world outlives its windows: 2 000
// Allocate/Free cycles run on every backend, and the window freed in cycle 0,
// whose keys' slots the churn has reused ever since, is a stale handle. A put
// through it to rank 0 — from rank 0 itself, its node-mate and two off-node
// ranks, each with a route to it warmed in cycle 0 — faults as an access to
// an unregistered region and leaves the window that now holds those slots as
// its owner wrote it.
func TestConformanceWindowChurn(t *testing.T) {
	const cycles, size, fill = 2000, 64, 0x5A
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	runAll(t, "TestConformanceWindowChurn", cfg, func(p *spmd.Proc) {
		word := make([]byte, 8)
		first, _ := core.Allocate(p, size, core.Config{})
		first.Fence()
		first.Put(word, 0, 0)
		first.Fence()
		first.Free()
		for c := 1; c < cycles; c++ {
			w, _ := core.Allocate(p, size, core.Config{})
			w.Free()
		}
		cur, mem := core.Allocate(p, size, core.Config{})
		for i := range mem {
			mem[i] = fill
		}
		p.Barrier()
		msg := faultOf(func() {
			first.Put(word, 0, 0) // its fence epoch never closed
			p.EP().Gsync()        // a wire put faults at its drain
		})
		check(strings.Contains(msg, "access to unregistered region"),
			"rank %d: put through the window freed %d cycles ago: %q, want a fault", p.Rank(), cycles, msg)
		p.Barrier()
		for i, b := range mem {
			check(b == fill, "rank %d: byte %d of the current window overwritten through a freed one", p.Rank(), i)
		}
		cur.Free()
	})
}

// TestConformanceFlushLocal pins MPI_Win_flush_local and flush_local_all on
// every backend: each costs the flush's instructions (stepsFlush, which the
// four flush variants share: 78, §2.3) and one bulk-completion call
// (GsyncNs), and nothing more — unlike Flush, neither merges an outstanding
// remote completion into the clock. A 64 KiB put to the other node is
// outstanding, its completion far past the call's cost, when each is
// called; the Flush after it merges it.
func TestConformanceFlushLocal(t *testing.T) {
	const stepsFlush = 78
	cfg := spmd.Config{Ranks: 2, RanksPerNode: 1}
	runAll(t, "TestConformanceFlushLocal", cfg, func(p *spmd.Proc) {
		w, _ := core.Allocate(p, 64<<10, core.Config{})
		ep := p.EP()
		gsync := timing.Time(ep.Model().Inter.GsyncNs)
		w.LockAll()
		if p.Rank() == 0 {
			buf := make([]byte, 64<<10)
			for _, c := range []struct {
				name  string
				flush func()
			}{
				{"FlushLocal", func() { w.FlushLocal(1) }},
				{"FlushLocalAll", w.FlushLocalAll},
			} {
				w.Put(buf, 1, 0)
				t0, base := ep.Now(), ep.Counters()
				c.flush()
				d := ep.Counters().Sub(base)
				check(ep.Now() == t0+gsync && d.SoftSteps == stepsFlush && d.Gsyncs == 1,
					"%s: clock +%d ns, %d steps, %d gsyncs; want +%d ns (GsyncNs), %d steps, 1 gsync",
					c.name, ep.Now()-t0, d.SoftSteps, d.Gsyncs, gsync, stepsFlush)
				t1 := ep.Now()
				w.Flush(1)
				check(ep.Now() > t1+gsync, "%s: the Flush after it advanced the clock by %d ns, GsyncNs alone: the put's completion was merged already",
					c.name, ep.Now()-t1)
			}
		}
		w.UnlockAll()
		w.Free()
	})
}

// TestConformanceAsymmetricAllocate checks window creation's failure mode
// across process boundaries: rank 1 registers one region more than its peers
// before the collective core.Allocate, so the one creation allreduce finds the
// keys asymmetric. Every rank whose keys are not the maximum faults by name;
// rank 1 leaves the constructor and dies of the abort in the barrier after it.
// The launcher must report a faulting rank's own message — a FAIL displaces
// the peers' abort symptoms — and every worker must exit on its own.
func TestConformanceAsymmetricAllocate(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	body := func(p *spmd.Proc) {
		if p.Rank() == 1 {
			p.EP().Register(64)
		}
		core.Allocate(p, 64, core.Config{})
		p.Barrier()
		panic("unreachable: no rank may leave an asymmetric creation with a usable window")
	}
	eachBackendLeg(t, "TestConformanceAsymmetricAllocate", cfg, func(label string, c spmd.Config) {
		expectAbort(t, label, "allocated window keys not symmetric across ranks", func() error { return spmd.Run(c, body) })
	})
}

// TestConformanceDoorbellChurn checks doorbell delivery under concurrent
// waiter churn: several ranks repeatedly register and deregister as waiters
// on one rank's doorbell (every PollRemoteWord iteration is one
// register/wait/deregister cycle) while the owner posts a fast sequence of
// updates. Any lost wakeup deadlocks the test; the per-rank final values
// prove every waiter observed the full sequence.
func TestConformanceDoorbellChurn(t *testing.T) {
	const steps = 200
	cfg := spmd.Config{Ranks: 5, RanksPerNode: 2}
	runAll(t, "TestConformanceDoorbellChurn", cfg, func(p *spmd.Proc) {
		reg, key := setupRegion(p, 128)
		ep := p.EP()
		n := p.Size()
		if p.Rank() == 0 {
			// ackOff(r) is rank r's private ack word in rank 0's region.
			for s := 1; s <= steps; s++ {
				reg.LocalWordStore(0, uint64(s), ep.Now())
				ep.Transport().RingDoorbell(0)
				if s%16 == 0 {
					// Let waiters genuinely park between bursts.
					time.Sleep(time.Millisecond)
				}
			}
			for r := 1; r < n; r++ {
				ep.PollRemoteWord(simnet.Addr{Rank: 0, Key: key, Off: 8 * r},
					func(v uint64) bool { return v == steps })
			}
		} else {
			// Chase the counter one step at a time: maximal churn on rank
			// 0's waiter set, never skipping a wakeup window.
			next := uint64(1)
			for next <= steps {
				got := ep.PollRemoteWord(simnet.Addr{Rank: 0, Key: key, Off: 0},
					func(v uint64) bool { return v >= next })
				next = got + 1
			}
			ep.StoreW(simnet.Addr{Rank: 0, Key: key, Off: 8 * p.Rank()}, steps)
		}
		p.Barrier()
	})
}

// TestConformanceManyRanks is the >64-rank regression test for the doorbell:
// a 96-rank neighbor ring where every rank's flag write must wake a parked
// waiter whose rank index lies beyond the first 64 (the multi-process
// backend's waiter set was once one 64-bit mask word, capping the world at
// 64 ranks; a waiter now sleeps under the watched rank's own slot).
func TestConformanceManyRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("96 worker processes per backend is not -short material")
	}
	const p96 = 96
	cfg := spmd.Config{
		Ranks: p96, RanksPerNode: 8,
		// Keep 96 concurrent processes lean: the ring needs only flags.
		ScratchBytes: 8 << 10, MPArenaBytes: 1 << 20,
	}
	runAll(t, "TestConformanceManyRanks", cfg, func(p *spmd.Proc) {
		reg, key := setupRegion(p, 64)
		ep := p.EP()
		n := p.Size()
		right := (p.Rank() + 1) % n
		// Two laps so every rank both rings a sleeping waiter and is rung.
		for lap := uint64(1); lap <= 2; lap++ {
			ep.StoreW(simnet.Addr{Rank: right, Key: key, Off: 0}, lap)
			ep.WaitLocal(func() bool { return reg.LocalWord(0) >= lap })
			ep.MergeStamp(reg, 0, 8)
		}
		p.Barrier()
	})
}

// TestConformanceExitOnCollective ends every rank's body on an Allreduce8
// with no barrier behind it. A three-rank allreduce's last act on some rank
// is a remote store another rank is still waiting for, so a backend whose
// exit path announces completion with that store still queued strands the
// waiter: the world must finish, and with the right sum, on every backend.
func TestConformanceExitOnCollective(t *testing.T) {
	cfg := spmd.Config{Ranks: 3, RanksPerNode: 1}
	runAll(t, "TestConformanceExitOnCollective", cfg, func(p *spmd.Proc) {
		got := p.Allreduce8(spmd.OpSum, uint64(p.Rank()+1))
		check(got == 6, "rank %d: allreduce sum %d, want 6", p.Rank(), got)
	})
}

// TestConformanceStatsAggregate is the cross-backend half of netrun's
// TestStatsAggregationBeforeTeardown: on every cross-process backend — the
// shared-memory one included — each rank ships its STATS line under the same
// lock as, and before, its DONE, so once the launcher returns (teardown
// complete) the published aggregate holds exactly one snapshot per rank, in
// the FOMPI_STATS_OUT file. A missing rank would mean a snapshot raced
// teardown.
func TestConformanceStatsAggregate(t *testing.T) {
	cfg := spmd.Config{Ranks: 3, RanksPerNode: 2}
	out := ""
	if spmd.WorkerOf() == "" {
		out = filepath.Join(t.TempDir(), "agg.json")
		t.Setenv(telemetry.EnvOut, out)
		t.Setenv(telemetry.EnvVar, "1") // the ranks' processes measure; the launcher only merges
	}
	eachBackendLeg(t, "TestConformanceStatsAggregate", cfg, func(label string, c spmd.Config) {
		if label == "in-process" {
			return // no per-rank frames: one registry, one capture (spmd.runInProc)
		}
		if err := spmd.Run(c, func(p *spmd.Proc) {
			_, key := setupRegion(p, 64)
			p.EP().StoreW(simnet.Addr{Rank: (p.Rank() + 1) % p.Size(), Key: key}, 1)
			p.Barrier()
		}); err != nil {
			t.Fatalf("%s backend: %v", label, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("%s backend: published stats file: %v", label, err)
		}
		agg, err := telemetry.ParseSnapshot(b)
		if err != nil || agg.Ranks != cfg.Ranks || agg.Rank != -1 {
			t.Fatalf("%s backend: published aggregate has rank %d, ranks %d (%v), want %d merged rank snapshots:\n%s", label, agg.Rank, agg.Ranks, err, cfg.Ranks, b)
		}
		if agg.Counters["door.rings"] == 0 {
			t.Fatalf("%s backend: aggregate carries no doorbell rings after a real exchange: %v", label, agg.Counters)
		}
		os.Remove(out)
	})
}
