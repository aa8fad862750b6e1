package mpi1

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"fompi/internal/simnet"
	"fompi/internal/spmd"
)

// run launches an n-rank world with the MPI-1 layer dialed on every rank.
func run(t *testing.T, n, rpn int, body func(c *Comm)) {
	t.Helper()
	if err := spmd.Run(spmd.Config{Ranks: n, RanksPerNode: rpn}, func(p *spmd.Proc) { body(Dial(p)) }); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvSmall(t *testing.T) {
	run(t, 2, 1, func(c *Comm) {
		msg := []byte("eager path payload")
		if c.Rank() == 0 {
			c.Send(1, 7, msg)
		} else {
			buf := make([]byte, 64)
			from, tag, n := c.Recv(0, 7, buf)
			if from != 0 || tag != 7 || !bytes.Equal(buf[:n], msg) {
				t.Errorf("got from=%d tag=%d %q", from, tag, buf[:n])
			}
		}
	})
}

func TestSendRecvRendezvous(t *testing.T) {
	big := make([]byte, simnet.EagerMax*3)
	for i := range big {
		big[i] = byte(i * 31)
	}
	run(t, 2, 1, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, big)
		} else {
			buf := make([]byte, len(big))
			_, _, n := c.Recv(0, 1, buf)
			if n != len(big) || !bytes.Equal(buf, big) {
				t.Errorf("rendezvous corrupted payload (n=%d)", n)
			}
		}
	})
}

func TestRendezvousSynchronizesSender(t *testing.T) {
	// The sender of a large message must not complete before the receiver
	// matched it — the structural cost the paper attributes to rendezvous.
	run(t, 2, 1, func(c *Comm) {
		big := make([]byte, simnet.EagerMax+1)
		if c.Rank() == 0 {
			c.Send(1, 1, big)
			if c.Now().Micros() < 400 {
				t.Errorf("sender completed at %.1fµs, before the delayed receiver", c.Now().Micros())
			}
		} else {
			c.Compute(500_000) // receiver arrives 500 µs late
			c.Recv(0, 1, big)
		}
	})
}

func TestEagerDoesNotSynchronize(t *testing.T) {
	run(t, 2, 1, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 64))
			if c.Now().Micros() > 100 {
				t.Errorf("eager sender blocked: %.1fµs", c.Now().Micros())
			}
		} else {
			c.Compute(500_000)
			c.Recv(0, 1, make([]byte, 64))
		}
	})
}

func TestSsendSynchronizes(t *testing.T) {
	run(t, 2, 1, func(c *Comm) {
		if c.Rank() == 0 {
			c.Ssend(1, 1, make([]byte, 8))
			if c.Now().Micros() < 400 {
				t.Errorf("ssend returned at %.1fµs before match", c.Now().Micros())
			}
		} else {
			c.Compute(500_000)
			c.Recv(0, 1, make([]byte, 8))
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	run(t, 3, 1, func(c *Comm) {
		if c.Rank() != 0 {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], uint64(c.Rank()))
			c.Send(0, c.Rank()*10, w[:])
			return
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			var w [8]byte
			from, tag, _ := c.Recv(AnySource, AnyTag, w[:])
			if tag != from*10 || binary.LittleEndian.Uint64(w[:]) != uint64(from) {
				t.Errorf("mismatched message from %d tag %d", from, tag)
			}
			seen[from] = true
		}
		if !seen[1] || !seen[2] {
			t.Errorf("missing senders: %v", seen)
		}
	})
}

func TestProbeAndTryRecv(t *testing.T) {
	run(t, 2, 1, func(c *Comm) {
		if c.Rank() == 0 {
			if _, ok := c.Probe(1, 5); ok {
				t.Error("probe matched nonexistent message")
			}
			c.Send(1, 5, []byte{42})
			return
		}
		var b [1]byte
		for {
			if _, ok := c.Probe(0, 5); ok {
				break
			}
		}
		if _, _, _, ok := c.TryRecv(0, 5, b[:]); !ok || b[0] != 42 {
			t.Errorf("TryRecv after probe failed (ok=%v v=%d)", ok, b[0])
		}
		if _, _, _, ok := c.TryRecv(0, 5, b[:]); ok {
			t.Error("message delivered twice")
		}
	})
}

func TestIsendTestCompletion(t *testing.T) {
	run(t, 2, 1, func(c *Comm) {
		if c.Rank() == 0 {
			req := c.Issend(1, 3, []byte{1})
			if c.Test(req) {
				t.Error("issend complete before receiver matched")
			}
			for !c.Test(req) {
			}
		} else {
			c.Recv(0, 3, make([]byte, 1))
		}
	})
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{2, 3, 8, 13} {
		var phase int64
		run(t, n, 4, func(c *Comm) {
			atomic.AddInt64(&phase, 1)
			c.Barrier()
			if got := atomic.LoadInt64(&phase); got != int64(n) {
				t.Errorf("n=%d: phase %d after barrier", n, got)
			}
		})
		phase = 0
	}
}

func TestIbarrierCompletesOnlyAfterAll(t *testing.T) {
	run(t, 4, 2, func(c *Comm) {
		ib := c.IbarrierBegin()
		if c.Rank() == 0 {
			// Rank 0 polls; it cannot complete until everyone began.
			for i := 0; i < 3 && c.TestIB(ib); i++ {
			}
		}
		c.WaitIB(ib)
	})
}

func TestAllreduce8(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		run(t, n, 4, func(c *Comm) {
			if got, want := c.Allreduce8(spmd.OpSum, uint64(c.Rank()+1)), uint64(n*(n+1)/2); got != want {
				t.Errorf("n=%d sum=%d want %d", n, got, want)
			}
			if got := c.Allreduce8(spmd.OpMax, uint64(c.Rank())); got != uint64(n-1) {
				t.Errorf("n=%d max=%d", n, got)
			}
			want := 0.0
			for r := 0; r < n; r++ {
				want += float64(r) * 1.5
			}
			got := math.Float64frombits(c.Allreduce8(spmd.OpFSum, math.Float64bits(float64(c.Rank())*1.5)))
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("n=%d fsum=%g want %g", n, got, want)
			}
		})
	}
}

func TestBcast(t *testing.T) {
	run(t, 9, 4, func(c *Comm) {
		buf := make([]byte, 32)
		if c.Rank() == 4 {
			for i := range buf {
				buf[i] = byte(i + 1)
			}
		}
		c.Bcast(4, buf)
		for i := range buf {
			if buf[i] != byte(i+1) {
				t.Errorf("rank %d byte %d = %d", c.Rank(), i, buf[i])
				break
			}
		}
	})
}

func TestAllgatherAlltoall(t *testing.T) {
	run(t, 6, 2, func(c *Comm) {
		all := c.Allgather([]byte{byte(c.Rank() + 1)})
		for r := 0; r < 6; r++ {
			if all[r] != byte(r+1) {
				t.Errorf("allgather[%d] = %d", r, all[r])
			}
		}
		send := make([]byte, 6*8)
		for j := 0; j < 6; j++ {
			binary.LittleEndian.PutUint64(send[j*8:], uint64(c.Rank()*100+j))
		}
		got := c.Alltoall(send, 8)
		for i := 0; i < 6; i++ {
			if v := binary.LittleEndian.Uint64(got[i*8:]); v != uint64(i*100+c.Rank()) {
				t.Errorf("alltoall from %d = %d", i, v)
			}
		}
	})
}

func TestReduceScatterSum(t *testing.T) {
	for _, n := range []int{2, 4, 8, 6} {
		run(t, n, 2, func(c *Comm) {
			vec := make([]uint64, n)
			for i := range vec {
				vec[i] = uint64(c.Rank() + i)
			}
			got := c.ReduceScatterSum(vec)
			var want uint64
			for r := 0; r < n; r++ {
				want += uint64(r + c.Rank())
			}
			if got != want {
				t.Errorf("n=%d rank %d: %d != %d", n, c.Rank(), got, want)
			}
		})
	}
}

func TestPropertyMessagesDeliverExactly(t *testing.T) {
	// Any multiset of tagged messages sent 1->0 arrives exactly once, FIFO
	// per tag.
	err := quick.Check(func(payloads [][]byte) bool {
		if len(payloads) == 0 || len(payloads) > 20 {
			return true
		}
		ok := true
		spmd.MustRun(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
			c := Dial(p)
			if p.Rank() == 1 {
				for i, pl := range payloads {
					c.Send(0, i, pl)
				}
				return
			}
			for i, pl := range payloads {
				buf := make([]byte, len(pl)+8)
				_, _, n := c.Recv(1, i, buf)
				if n != len(pl) || !bytes.Equal(buf[:n], pl) {
					ok = false
				}
			}
		})
		return ok
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyToOneStress(t *testing.T) {
	const n, msgs = 8, 200
	run(t, n, 4, func(c *Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		if c.Rank() != 0 {
			for i := 0; i < msgs; i++ {
				var w [8]byte
				binary.LittleEndian.PutUint64(w[:], uint64(c.Rank())<<32|uint64(i))
				c.Send(0, rng.Intn(4), w[:])
			}
			return
		}
		next := make([]uint64, n)
		for i := 0; i < (n-1)*msgs; i++ {
			var w [8]byte
			from, _, _ := c.Recv(AnySource, AnyTag, w[:])
			v := binary.LittleEndian.Uint64(w[:])
			if int(v>>32) != from {
				t.Errorf("message %x claims wrong sender %d", v, from)
			}
			_ = next
		}
	})
}

// TestAnyTagSkipsCollectiveMessages: a wildcard receive takes user messages
// only; a collective's travel in a context of their own. Rank 0 starts a
// nonblocking barrier, whose first message reaches rank 1 before the user
// message does, and rank 1's Recv(AnySource, AnyTag) must pass over it — the
// hashtable's wildcard receive once ate a barrier message and the barrier
// waited forever.
func TestAnyTagSkipsCollectiveMessages(t *testing.T) {
	run(t, 2, 1, func(c *Comm) {
		if c.Rank() == 0 {
			ib := c.IbarrierBegin()
			c.Send(1, 5, []byte{5})
			c.WaitIB(ib)
			return
		}
		if _, tag, _ := c.Recv(AnySource, AnyTag, make([]byte, 1)); tag != 5 {
			panic(fmt.Sprintf("AnyTag matched tag %#x, a collective's message", tag))
		}
		c.WaitIB(c.IbarrierBegin())
	})
}

// TestBlockedRankUnwindsOnPeerFailure: a rank blocked in Recv, in a
// rendezvous send's Wait or in Ssend waits at its door, so a peer's panic
// reaches it as the world's abort: it unwinds within a second, with the typed
// value naming the culprit.
func TestBlockedRankUnwindsOnPeerFailure(t *testing.T) {
	for name, block := range map[string]func(c *Comm){
		"Recv":           func(c *Comm) { c.Recv(0, 1, make([]byte, 8)) },
		"RendezvousWait": func(c *Comm) { c.Send(0, 1, make([]byte, simnet.EagerMax+1)) },
		"Ssend":          func(c *Comm) { c.Ssend(0, 1, make([]byte, 8)) },
	} {
		t.Run(name, func(t *testing.T) {
			var died, unwound time.Time
			var value any
			err := spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
				c := Dial(p)
				if p.Rank() == 0 {
					time.Sleep(50 * time.Millisecond) // rank 1 parks for real
					died = time.Now()
					panic("deliberate failure")
				}
				defer func() {
					value, unwound = recover(), time.Now()
					panic(value)
				}()
				block(c)
			})
			if err == nil || !strings.Contains(err.Error(), "rank 0 panicked: deliberate failure") {
				t.Fatalf("world error %v, want rank 0's panic", err)
			}
			var pf *simnet.ErrPeerFailed
			if e, ok := value.(error); !ok || !errors.As(e, &pf) || pf.Rank != 0 {
				t.Fatalf("blocked rank unwound with %v, want *simnet.ErrPeerFailed naming rank 0", value)
			}
			if d := unwound.Sub(died); d > time.Second {
				t.Fatalf("blocked rank unwound %v after its peer died", d)
			}
		})
	}
}

// TestRendezvousIntoShortBuffer: a receive buffer shorter than a rendezvous
// message takes the message's first bytes — none, part of one fragment, or
// more than one fragment's — and the sender's synchronous send still completes.
func TestRendezvousIntoShortBuffer(t *testing.T) {
	big := make([]byte, simnet.EagerMax*3)
	for i := range big {
		big[i] = byte(i * 7)
	}
	for _, short := range []int{0, 100, simnet.EagerMax + 10} {
		run(t, 2, 1, func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 1, big)
				c.Send(1, 2, big)
				return
			}
			buf := make([]byte, short)
			if _, _, n := c.Recv(0, 1, buf); n != short || !bytes.Equal(buf, big[:short]) {
				t.Errorf("short=%d: received %d bytes, corrupted or not the message's first", short, n)
			}
			full := make([]byte, len(big))
			if _, _, n := c.Recv(0, 2, full); n != len(big) || !bytes.Equal(full, big) {
				t.Errorf("short=%d: the next message arrived corrupted (n=%d)", short, n)
			}
		})
	}
}

// TestRendezvousMatchedInReverse: a sender may have any number of
// synchronous and rendezvous messages outstanding to one receiver, and the
// receiver may match them in any order — here last first, four times as
// many as a rank may have requests in flight. A message holds its sender's
// staging only until the receiver drains its announcement; its payload is
// staged in fragments once the receiver matches it, so no earlier message
// stands in the way.
func TestRendezvousMatchedInReverse(t *testing.T) {
	const msgs = 4 * maxOut
	payload := func(i int) []byte {
		b := make([]byte, 100+i)
		if i%2 == 0 {
			b = make([]byte, simnet.EagerMax+1+i*100)
		}
		for j := range b {
			b[j] = byte(i + j)
		}
		return b
	}
	run(t, 2, 1, func(c *Comm) {
		if c.Rank() == 0 {
			var reqs []*Request
			for i := 0; i < msgs; i++ {
				reqs = append(reqs, c.Issend(1, i, payload(i)))
			}
			c.WaitAll(reqs)
			return
		}
		for i := msgs - 1; i >= 0; i-- {
			buf := make([]byte, len(payload(i)))
			if _, _, n := c.Recv(0, i, buf); n != len(buf) || !bytes.Equal(buf, payload(i)) {
				t.Errorf("message %d arrived corrupted (n=%d)", i, n)
			}
		}
	})
}

// TestRendezvousThenBarrier: unmatched rendezvous messages hold no staging
// the barrier's messages need. Rank 0 starts as many rendezvous sends as it
// may stage announcements, and both ranks enter a barrier before rank 1
// receives any of them.
func TestRendezvousThenBarrier(t *testing.T) {
	big := make([]byte, simnet.EagerMax+1)
	run(t, 2, 1, func(c *Comm) {
		var reqs []*Request
		if c.Rank() == 0 {
			for i := 0; i < maxStaged; i++ {
				reqs = append(reqs, c.Isend(1, i, big))
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			c.WaitAll(reqs)
			return
		}
		for i := 0; i < maxStaged; i++ {
			c.Recv(0, i, make([]byte, len(big)))
		}
	})
}

// TestCollectiveAllocs pins what one Barrier, one Allreduce8 and one
// nonblocking barrier (IbarrierBegin + WaitIB) of a 2-rank in-process world
// allocate, both ranks counted: the sends and the matching engine's records,
// and no buffer of the collective's own, which the Comm holds (the IBarrier
// holds its own two tokens). With the buffers on the collectives' stacks the
// first two read 13 and 15; with a fresh send token per round, the
// nonblocking barrier read 15.
func TestCollectiveAllocs(t *testing.T) {
	const runs = 200
	for _, tc := range []struct {
		name string
		op   func(*Comm)
		max  float64
	}{
		{"Barrier", func(c *Comm) { c.Barrier() }, 11},
		{"Allreduce8", func(c *Comm) { c.Allreduce8(spmd.OpSum, 1) }, 11},
		{"Ibarrier", func(c *Comm) { c.WaitIB(c.IbarrierBegin()) }, 13},
	} {
		var got float64
		err := spmd.Run(spmd.Config{Ranks: 2}, func(p *spmd.Proc) {
			c := Dial(p)
			for range 10 { // queues and maps grown to their working size
				tc.op(c)
			}
			if p.Rank() == 0 {
				got = testing.AllocsPerRun(runs, func() { tc.op(c) })
				return
			}
			for range runs + 1 { // AllocsPerRun's warm-up call, then its runs
				tc.op(c)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %.2f allocations per call", tc.name, got)
		if got > tc.max {
			t.Errorf("%s allocates %.2f times per call, want at most %.0f", tc.name, got, tc.max)
		}
	}
}
