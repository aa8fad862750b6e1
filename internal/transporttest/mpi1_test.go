package transporttest

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"fompi/internal/apps/dsde"
	"fompi/internal/apps/fft"
	"fompi/internal/apps/hashtable"
	"fompi/internal/apps/milc"
	"fompi/internal/core"
	"fompi/internal/mpi1"
	"fompi/internal/simnet"
	"fompi/internal/spmd"
	"fompi/internal/timing"
)

// mpi1Payload is message i's deterministic n-byte payload.
func mpi1Payload(n, i int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(j*7 + i*13 + 1)
	}
	return b
}

// mpi1Expect checks a received message against mpi1Payload(n, i).
func mpi1Expect(got []byte, n, i int, what string) {
	check(len(got) == n && bytes.Equal(got, mpi1Payload(n, i)),
		"%s: received %d bytes that are not message %d's %d", what, len(got), i, n)
}

// mpi1Program is the two-rank messaging program of the MPI-1 conformance
// tests: eager and rendezvous messages on both sides of simnet.EagerMax
// (3·EagerMax crosses the staging bound several times over), synchronous
// sends against a late receiver, out-of-order matching, Probe and TryRecv,
// and every collective of internal/mpi1. It returns the rank's MPI-1 clock at
// each checkpoint.
//
// Every receive names its sender, and a rank has one peer, so the unexpected
// queue holds the peer's messages in send order and a match's position in it
// — what scanNs prices — follows from program order alone. A program with a
// second sender into one queue would read host arrival order there.
func mpi1Program(c *mpi1.Comm) []timing.Time {
	me, peer := c.Rank(), 1-c.Rank()
	var marks []timing.Time
	mark := func() { marks = append(marks, c.Now()) }
	recv := func(tag, n int, what string) {
		buf := make([]byte, n+8)
		from, got, k := c.Recv(peer, tag, buf)
		check(from == peer && got == tag, "%s: matched (%d, %d), want (%d, %d)", what, from, got, peer, tag)
		mpi1Expect(buf[:k], n, tag, what)
	}

	// Ping-pong across the eager/rendezvous switch.
	for i, n := range []int{8, 1000, simnet.EagerMax, simnet.EagerMax + 1, 3 * simnet.EagerMax} {
		if me == 0 {
			c.Send(peer, i, mpi1Payload(n, i))
			recv(i, n, "ping-pong reply")
		} else {
			recv(i, n, "ping-pong")
			c.Send(peer, i, mpi1Payload(n, i))
		}
		mark()
	}

	// Synchronous sends against a late receiver.
	if me == 0 {
		c.Ssend(peer, 20, mpi1Payload(16, 20))
		r := c.Issend(peer, 21, mpi1Payload(16, 21))
		for !c.Test(r) {
		}
		c.Wait(r)
	} else {
		c.Compute(30_000)
		recv(20, 16, "Ssend")
		c.Compute(10_000)
		recv(21, 16, "Issend")
	}
	mark()

	// Out-of-order matching: each receive scans past the messages sent
	// before it.
	sizes := map[int]int{30: 8, 31: 100, 32: simnet.EagerMax, 33: 2*simnet.EagerMax + 5}
	if me == 1 {
		var reqs []*mpi1.Request
		for tag := 30; tag <= 33; tag++ {
			reqs = append(reqs, c.Isend(peer, tag, mpi1Payload(sizes[tag], tag)))
		}
		c.WaitAll(reqs)
	} else {
		for tag := 33; tag >= 30; tag-- {
			recv(tag, sizes[tag], "out-of-order receive")
		}
	}
	mark()

	// Probe and TryRecv.
	if me == 0 {
		c.Send(peer, 40, mpi1Payload(8, 40))
		c.Send(peer, 41, mpi1Payload(simnet.EagerMax+100, 41))
	} else {
		for {
			if from, ok := c.Probe(peer, 41); ok {
				check(from == peer, "Probe: matched rank %d", from)
				break
			}
		}
		big := make([]byte, simnet.EagerMax+100)
		for {
			if _, _, n, ok := c.TryRecv(peer, 41, big); ok {
				mpi1Expect(big[:n], len(big), 41, "TryRecv")
				break
			}
		}
		small := make([]byte, 8)
		from, tag, n, ok := c.TryRecv(mpi1.AnySource, mpi1.AnyTag, small)
		check(ok && from == peer && tag == 40, "TryRecv(AnySource, AnyTag): ok=%v from %d tag %d", ok, from, tag)
		mpi1Expect(small[:n], 8, 40, "TryRecv(AnySource, AnyTag)")
	}
	mark()

	// The collectives.
	c.Barrier()
	mark()
	ib := c.IbarrierBegin()
	for !c.TestIB(ib) {
	}
	c.WaitIB(ib)
	mark()
	sum := c.Allreduce8(spmd.OpSum, uint64(me+5))
	mx := c.Allreduce8(spmd.OpMax, uint64(me*3))
	check(sum == 11 && mx == 3, "Allreduce8: sum %d max %d", sum, mx)
	mark()
	for root, n := range []int{32, 2 * simnet.EagerMax} {
		buf := make([]byte, n)
		if me == root {
			copy(buf, mpi1Payload(n, 50+root))
		}
		c.Bcast(root, buf)
		mpi1Expect(buf, n, 50+root, "Bcast")
	}
	mark()
	all := c.Allgather([]byte{byte(me + 1), 9, 9, 9, 9, 9, 9, byte(me + 7)})
	check(all[0] == 1 && all[7] == 7 && all[8] == 2 && all[15] == 8, "Allgather: %v", all)
	mark()
	for _, each := range []int{16, simnet.EagerMax + 8} {
		send := make([]byte, 2*each)
		for j := range send {
			send[j] = byte(me*100 + j/each)
		}
		got := c.Alltoall(send, each)
		for j := range got {
			check(got[j] == byte((j/each)*100+me), "Alltoall(%d): byte %d is %d", each, j, got[j])
		}
	}
	mark()
	rs := c.ReduceScatterSum([]uint64{uint64(me + 1), uint64(me + 10)})
	check(rs == []uint64{3, 21}[me], "ReduceScatterSum: %d", rs)
	mark()
	return marks
}

// mpi1Want holds each rank's checkpoint clocks of mpi1Program, by ranks per
// node (1: the pair is inter-node, 2: intra-node), as the in-process backend
// computed them before the messaging layer moved onto registered memory.
var mpi1Want = map[int][2][]timing.Time{
	1: {
		{3302, 7402, 17254, 26574, 41138, 82040, 94652, 100278, 102386, 103794, 107096, 114728, 116379, 122695, 124346},
		{2601, 6422, 14261, 26574, 41138, 82040, 91857, 100736, 102136, 104036, 107338, 114728, 116379, 122695, 124346},
	},
	2: {
		{840, 2020, 5642, 7980, 11956, 52456, 56589, 57883, 58561, 58939, 59779, 61781, 62201, 63791, 64211},
		{540, 1610, 4442, 7980, 11956, 52456, 54892, 58141, 58511, 58981, 59821, 61781, 62201, 63791, 64211},
	},
}

// runMPI1Conformance runs mpi1Program on a two-rank world with rpn ranks per
// node and checks every rank's clocks against mpi1Want.
func runMPI1Conformance(t *testing.T, name string, rpn int) {
	want := mpi1Want[rpn]
	runAll(t, name, spmd.Config{Ranks: 2, RanksPerNode: rpn}, func(p *spmd.Proc) {
		got := mpi1Program(mpi1.Dial(p))
		w := want[p.Rank()]
		check(fmt.Sprint(got) == fmt.Sprint(w),
			"rank %d (%d ranks a node): MPI-1 clocks %v, want %v", p.Rank(), rpn, got, w)
	})
}

// TestConformanceMPI1Inter pins MPI-1's virtual time between two nodes.
func TestConformanceMPI1Inter(t *testing.T) {
	runMPI1Conformance(t, "TestConformanceMPI1Inter", 1)
}

// TestConformanceMPI1Intra pins MPI-1's virtual time within one node.
func TestConformanceMPI1Intra(t *testing.T) {
	runMPI1Conformance(t, "TestConformanceMPI1Intra", 2)
}

// rmaSequence runs a fixed passive-target put/get/AMO sequence from rank 0
// into rank 1, from a clock of 40 µs, and returns rank 0's clock after each
// operation, and rank 1's after the window is freed.
func rmaSequence(p *spmd.Proc) []timing.Time {
	w, _ := core.Allocate(p, 8192, core.Config{})
	var marks []timing.Time
	if p.Rank() == 0 {
		p.EP().AdvanceTo(40_000)
		w.Lock(core.LockExclusive, 1)
		w.Put(mpi1Payload(4096, 1), 1, 0)
		w.Flush(1)
		marks = append(marks, p.Now())
		got := make([]byte, 4096)
		w.Get(got, 1, 0)
		w.Flush(1)
		mpi1Expect(got, 4096, 1, "RMA get")
		marks = append(marks, p.Now())
		w.FetchAndOp(core.AccSum, 5, 1, 4096)
		marks = append(marks, p.Now())
		old := w.CompareAndSwap(5, 9, 1, 4096)
		check(old == 5, "CompareAndSwap read %d, want 5", old)
		marks = append(marks, p.Now())
		w.Unlock(1)
		marks = append(marks, p.Now())
	}
	w.Free()
	return append(marks, p.Now())
}

// mpi1Traffic exchanges eager and then rendezvous messages both ways between
// the two ranks. The last rendezvous payload crosses at MPI-1 clocks of
// about 42–53 µs, where the RMA sequence runs: had its moves booked the NICs
// it crosses, the sequence's transfers would queue behind it.
func mpi1Traffic(c *mpi1.Comm) {
	peer := 1 - c.Rank()
	small := make([]byte, 64)
	for i := 0; i < 8; i++ {
		c.SendRecv(peer, 10+i, mpi1Payload(64, i), peer, 10+i, small)
	}
	big := make([]byte, 64<<10)
	for i := 0; i < 3; i++ {
		r := c.Isend(peer, i, mpi1Payload(len(big), i))
		c.Recv(peer, i, big)
		c.Wait(r)
	}
}

// TestConformanceMPI1LeavesRMATime checks that two-sided traffic moves no
// one-sided virtual time: a fixed RMA sequence between two inter-node ranks
// reads the same clocks whether or not MPI-1 messages crossed between the
// same ranks before it, on every backend (the quiet run is in process, and a
// worker process recomputes it). MPI-1 prices its messages by formula, so its data
// movement books no NIC and stamps no window word.
func TestConformanceMPI1LeavesRMATime(t *testing.T) {
	cfg := spmd.Config{Ranks: 2, RanksPerNode: 1}
	quiet := make([][]timing.Time, 2)
	if err := spmd.Run(cfg, func(p *spmd.Proc) {
		mpi1.Dial(p)
		quiet[p.Rank()] = rmaSequence(p)
	}); err != nil {
		t.Fatal(err)
	}
	runAll(t, "TestConformanceMPI1LeavesRMATime", cfg, func(p *spmd.Proc) {
		mpi1Traffic(mpi1.Dial(p))
		got := rmaSequence(p)
		check(fmt.Sprint(got) == fmt.Sprint(quiet[p.Rank()]),
			"rank %d: RMA clocks %v after MPI-1 traffic, %v without", p.Rank(), got, quiet[p.Rank()])
	})
}

// TestConformanceMPI1Burst sends a many-to-one burst far past every staging
// bound: three senders, an intra-node one and two inter-node ones, each
// start 160 sends to rank 0 — four times the inbox's slots and ten times
// the messages a rank may stage, with eager, synchronous and rendezvous
// messages mixed — before rank 0 receives anything. Every Isend and Issend
// returns while rank 0 waits in a barrier of another layer, so none parks;
// no inbox overflows; and rank 0 then receives every message once, in each
// sender's order, with its payload intact.
func TestConformanceMPI1Burst(t *testing.T) {
	const perSender = 160
	size := func(i int) int {
		if i%8 == 7 {
			return 2*simnet.EagerMax + i // rendezvous, more than one fragment
		}
		return (i*997)%simnet.EagerMax + 1
	}
	runAll(t, "TestConformanceMPI1Burst", spmd.Config{Ranks: 4, RanksPerNode: 2}, func(p *spmd.Proc) {
		c := mpi1.Dial(p)
		if p.Rank() != 0 {
			var reqs []*mpi1.Request
			for i := 0; i < perSender; i++ {
				msg := mpi1Payload(size(i), i+p.Rank())
				if i%5 == 0 {
					reqs = append(reqs, c.Issend(0, i, msg))
				} else {
					reqs = append(reqs, c.Isend(0, i, msg))
				}
			}
			p.Barrier() // rank 0 has received nothing yet
			c.WaitAll(reqs)
			return
		}
		p.Barrier()
		next := make([]int, p.Size())
		buf := make([]byte, 3*simnet.EagerMax)
		for k := 0; k < perSender*(p.Size()-1); k++ {
			from, tag, n := c.Recv(mpi1.AnySource, mpi1.AnyTag, buf)
			check(tag == next[from], "rank %d's message %d arrived where %d was due", from, tag, next[from])
			next[from]++
			mpi1Expect(buf[:n], size(tag), tag+from, "burst")
		}
	})
}

// TestConformanceMPI1UnmatchedHoldNoStaging: messages a receiver has not
// matched hold none of their sender's staging, on every backend. Rank 1
// starts 140 synchronous sends to rank 0, eager and rendezvous alternately —
// more than four times the requests a rank may have in flight — and rank 0
// matches them last first; then rank 1 starts 16 rendezvous sends, as many
// announcements as a rank may have in flight, and both ranks enter a barrier
// before rank 0 receives them.
func TestConformanceMPI1UnmatchedHoldNoStaging(t *testing.T) {
	const reverse, beforeBarrier = 140, 16
	size := func(i int) int {
		if i%2 == 0 {
			return simnet.EagerMax + 1 + i*100
		}
		return 100 + i
	}
	runAll(t, "TestConformanceMPI1UnmatchedHoldNoStaging", spmd.Config{Ranks: 2, RanksPerNode: 1}, func(p *spmd.Proc) {
		c := mpi1.Dial(p)
		if p.Rank() == 1 {
			var reqs []*mpi1.Request
			for i := 0; i < reverse; i++ {
				reqs = append(reqs, c.Issend(0, i, mpi1Payload(size(i), i)))
			}
			c.WaitAll(reqs)
			reqs = reqs[:0]
			for i := 0; i < beforeBarrier; i++ {
				reqs = append(reqs, c.Isend(0, i, mpi1Payload(simnet.EagerMax+1, i)))
			}
			c.Barrier()
			c.WaitAll(reqs)
			return
		}
		buf := make([]byte, simnet.EagerMax+1+reverse*100)
		for i := reverse - 1; i >= 0; i-- {
			_, _, n := c.Recv(1, i, buf)
			mpi1Expect(buf[:n], size(i), i, "reverse")
		}
		c.Barrier()
		for i := 0; i < beforeBarrier; i++ {
			_, _, n := c.Recv(1, i, buf)
			mpi1Expect(buf[:n], simnet.EagerMax+1, i, "after the barrier")
		}
	})
}

// TestConformanceMPI1PullPastHeldStaging: a rendezvous pull completes while
// the rest of its sender's staging is held by announcements that are acked
// only after the pull returns, on every backend. Rank 0 starts a rendezvous
// send to rank 3, then an EagerMax message to rank 1 and one to rank 2 that
// fills its 16 KiB arena to the last byte beside the first and the
// rendezvous header; ranks 1 and 2 wait in a barrier of another layer, so
// neither drains until ranks 0 and 3 have finished the rendezvous.
func TestConformanceMPI1PullPastHeldStaging(t *testing.T) {
	const hdr, arena = 24, 16 << 10 // a staged header; the sender's staging arena
	big, fill := 5*simnet.EagerMax+3, arena-3*hdr-simnet.EagerMax
	runAll(t, "TestConformanceMPI1PullPastHeldStaging", spmd.Config{Ranks: 4, RanksPerNode: 2}, func(p *spmd.Proc) {
		c := mpi1.Dial(p)
		switch p.Rank() {
		case 0:
			rdv := c.Isend(3, 0, mpi1Payload(big, 0))
			held := []*mpi1.Request{c.Isend(1, 1, mpi1Payload(simnet.EagerMax, 1)), c.Isend(2, 2, mpi1Payload(fill, 2))}
			c.Wait(rdv)
			p.Barrier()
			c.WaitAll(held)
		case 3:
			buf := make([]byte, big)
			_, _, n := c.Recv(0, 0, buf)
			mpi1Expect(buf[:n], big, 0, "the pull")
			p.Barrier()
		default:
			p.Barrier() // the pull has returned: only now is rank 0's staging drained
			buf := make([]byte, simnet.EagerMax)
			_, _, n := c.Recv(0, p.Rank(), buf)
			mpi1Expect(buf[:n], []int{1: simnet.EagerMax, 2: fill}[p.Rank()], p.Rank(), "held")
		}
	})
}

// TestConformanceMPI1BlockedRankUnwinds: a rank blocked in Recv, in a
// rendezvous send's Wait or in Ssend waits at its door, so a peer's panic
// reaches it as the world's abort on every backend: each unwinds with an
// abort value, and the world ends without the launcher's kill.
func TestConformanceMPI1BlockedRankUnwinds(t *testing.T) {
	const failMsg = "deliberate failure under blocked MPI-1 calls"
	if spmd.WorkerOf() == "" {
		t.Setenv("TMPDIR", t.TempDir()) // workers inherit it: where the witnesses go
	}
	witness := func(world spmd.Backend, rank int) string {
		return filepath.Join(os.TempDir(), fmt.Sprintf("mpi1-unwind-%s-%d", world, rank))
	}
	block := []func(c *mpi1.Comm){
		1: func(c *mpi1.Comm) { c.Recv(0, 1, make([]byte, 8)) },
		2: func(c *mpi1.Comm) { c.Send(0, 1, make([]byte, simnet.EagerMax+1)) },
		3: func(c *mpi1.Comm) { c.Ssend(0, 1, make([]byte, 8)) },
	}
	body := func(world spmd.Backend) func(p *spmd.Proc) {
		return func(p *spmd.Proc) {
			c := mpi1.Dial(p)
			if p.Rank() == 0 {
				time.Sleep(200 * time.Millisecond) // the others park for real
				panic(failMsg)
			}
			defer func() {
				e := recover()
				verdict := fmt.Sprintf("unwound with %v", e)
				if simnet.IsAbortPanic(e) {
					verdict = "aborted"
				}
				os.WriteFile(witness(world, p.Rank()), []byte(verdict), 0o600)
				panic(e)
			}()
			block[p.Rank()](c)
			panic("unreachable: the call above can only end by abort")
		}
	}
	eachBackendLeg(t, "TestConformanceMPI1BlockedRankUnwinds", spmd.Config{Ranks: 4, RanksPerNode: 2}, func(label string, c spmd.Config) {
		expectAbort(t, label, "rank 0 panicked: "+failMsg, func() error { return spmd.Run(c, body(c.Backend)) })
		for r := 1; r < 4; r++ {
			if got, _ := os.ReadFile(witness(c.Backend, r)); string(got) != "aborted" {
				t.Errorf("%s backend: rank %d %q, want it aborted", label, r, got)
			}
		}
	})
}

// mpi1Apps runs the two-sided variant of every application and returns the
// rank's results as text: the words DSDE's Alltoall, ReduceScatter and NBX
// protocols deliver (sorted: arrival order is the host's), MILC's residual,
// the keys the rank's slice of the hashtable stores (sorted) and the FFT's
// checksum.
func mpi1Apps(p *spmd.Proc) string {
	var b strings.Builder
	c := mpi1.Dial(p)
	dprm := dsde.Params{K: 2, Seed: 5}
	for _, run := range []func(*mpi1.Comm, dsde.Params) dsde.Result{dsde.RunAlltoall, dsde.RunReduceScatter, dsde.RunNBX} {
		got := run(c, dprm).Received
		slices.Sort(got)
		fmt.Fprintf(&b, "dsde %v\n", got)
	}
	mres := milc.RunMPI1(p, milc.Params{Local: [4]int{4, 4, 4, 4}, Grid: [4]int{1, 1, 2, 2}, Iters: 5, Seed: 3})
	fmt.Fprintf(&b, "milc residual %x\n", math.Float64bits(mres.Residual))
	hprm := hashtable.Params{InsertsPerRank: 64, TableSlots: 1024, OverflowCells: 64 * p.Size(), Seed: 9}
	_, vol := hashtable.RunMPI1(p, hprm)
	keys := hashtable.Collect(hprm, vol)
	slices.Sort(keys)
	fmt.Fprintf(&b, "hashtable %v\n", keys)
	fres := fft.RunMPI1(c, fft.Params{NX: 8, NY: 8, NZ: 8, Iters: 1})
	fmt.Fprintf(&b, "fft checksum %x %x\n", math.Float64bits(real(fres.Checksum)), math.Float64bits(imag(fres.Checksum)))
	return b.String()
}

// TestConformanceMPI1Apps runs the applications' two-sided variants on every
// backend: each rank's results equal the in-process run's.
func TestConformanceMPI1Apps(t *testing.T) {
	cfg := spmd.Config{Ranks: 4, RanksPerNode: 2}
	want := make([]string, cfg.Ranks)
	if err := spmd.Run(cfg, func(p *spmd.Proc) { want[p.Rank()] = mpi1Apps(p) }); err != nil {
		t.Fatal(err)
	}
	runAll(t, "TestConformanceMPI1Apps", cfg, func(p *spmd.Proc) {
		got := mpi1Apps(p)
		check(got == want[p.Rank()], "rank %d's two-sided applications computed\n%s\nin process\n%s", p.Rank(), got, want[p.Rank()])
	})
}
