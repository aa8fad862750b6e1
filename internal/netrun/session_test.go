package netrun

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"fompi/internal/faultnet"
	"fompi/internal/rankio"
	"fompi/internal/simnet"
	"fompi/internal/sock"
	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

// liveWord returns a liveness word for a handle these tests build without an
// endpoint; the directory it is added to sets it.
func liveWord() *uint32 { return new(uint32) }

// sessionWorld builds the minimal owner-side World the session layer needs:
// a rank alone in its host group, one registered word behind the rank's
// port, and an empty session table (unpaced: no clock table).
func sessionWorld() *World {
	w := &World{
		rank:     1,
		lidx:     []int{-1, 0},
		sessions: make(map[uint64]*ownerSession),
	}
	reg := simnet.MakeRegion(1, 0, make([]byte, 8), timing.NewStamps(8), &w.ownPort, liveWord())
	w.mine.Add(&reg)
	return w
}

// pipeClient is a control-plane client joined over a pipe nobody answers:
// enough for the paths that record or read the abort verdict.
func pipeClient(t testing.TB) *rankio.Client {
	near, far := net.Pipe()
	go io.Copy(io.Discard, far)
	t.Cleanup(func() { near.Close(); far.Close() })
	cl, err := rankio.Join(near, rankio.Options{Backend: BackendNet, Ranks: 2, RanksPerNode: 1}, 1, "pipe")
	if err != nil {
		t.Fatalf("join over a pipe: %v", err)
	}
	return cl
}

// applied reads the probe word of a sessionWorld: the number of fetchAddFields
// requests that executed.
func applied(w *World) uint64 { return w.mine.Get(0).LocalWord(0) }

// applyOne delivers the frame (sid, seq, ack) whose list is the one entry
// (op, fields) to w's session layer, as a connection that said HELLO as src.
func applyOne(w *World, src int, sid, seq, ack uint64, op uint8, fields []byte) (reply []byte, cached bool) {
	d := dec{b: buildBatch(append([]byte{op}, fields...))}
	return w.sessionApply(src, sid, seq, ack, &d, nil)
}

// firstSub returns the first sub-reply (status byte onward) of a reply frame
// that answers a list, failing the test on a frame-level fault.
func firstSub(t *testing.T, reply []byte) []byte {
	t.Helper()
	d := dec{b: reply, pos: 4}
	if st := d.u8(); st != stOK {
		t.Fatalf("frame refused whole: %q", reply)
	}
	if n := d.u32(); n == 0 {
		t.Fatalf("reply answers no entry: %x", reply)
	}
	sub := d.n(int(d.u32()))
	if d.bad || len(sub) == 0 {
		t.Fatalf("malformed reply list: %x", reply)
	}
	return sub
}

// fetchAddFields encodes an opAmo entry's fields: an inter-node fetching add
// of one on the probe word (key 0, off 0), so every execution advances the
// word by exactly one — a counter that detects double application.
func fetchAddFields() []byte {
	b := binary.LittleEndian.AppendUint32(nil, 0) // key
	b = binary.LittleEndian.AppendUint64(b, 0)    // off
	b = append(b, byte(simnet.AmoSum), 1)         // op, fetch
	for i := 0; i < 4; i++ {
		b = binary.LittleEndian.AppendUint64(b, 0) // swap, clockIn, srcFree, lat
	}
	b = binary.LittleEndian.AppendUint64(b, 1)    // xfer
	b = append(b, 1)                              // reserve
	return binary.LittleEndian.AppendUint64(b, 1) // the operand: delta
}

func TestSessionDuplicateSeqReplaysCachedReply(t *testing.T) {
	w := sessionWorld()
	sid := sidFor(0, 4242)

	r1, cached := applyOne(w, 0, sid, 1, 0, opAmo, fetchAddFields())
	if cached || firstSub(t, r1)[0] != stOK {
		t.Fatalf("first application of seq 1: cached=%v reply %x, want a fresh OK", cached, r1)
	}
	first := append([]byte(nil), r1...)

	r2, cached := applyOne(w, 0, sid, 1, 0, opAmo, fetchAddFields())
	if !cached {
		t.Fatalf("duplicate seq 1 was not served from cache")
	}
	if !bytes.Equal(first, r2) {
		t.Fatalf("replayed reply differs from the original:\n  first  %x\n  replay %x", first, r2)
	}
	if got := applied(w); got != 1 {
		t.Fatalf("probe word = %d after a duplicated seq, want 1 (applied exactly once)", got)
	}
}

func TestSessionReplaysFaultReplyByteIdentically(t *testing.T) {
	w := sessionWorld()
	sid := sidFor(0, 7)

	// opPut against an unregistered region faults in handle; the fault reply
	// must be cached and replayed like any other, so a retransmitted bad op
	// re-delivers the same fault instead of re-executing.
	putFields := binary.LittleEndian.AppendUint32(nil, 9) // unknown key
	r1, cached := applyOne(w, 0, sid, 1, 0, opPut, putFields)
	if cached || firstSub(t, r1)[0] != stFault {
		t.Fatalf("expected a fresh fault sub-reply, got cached=%v reply %x", cached, r1)
	}
	first := append([]byte(nil), r1...)
	r2, cached := applyOne(w, 0, sid, 1, 0, opPut, putFields)
	if !cached || !bytes.Equal(first, r2) {
		t.Fatalf("fault reply not replayed byte-identically (cached=%v)", cached)
	}
}

func TestSessionEvictionHonorsAck(t *testing.T) {
	w := sessionWorld()
	sid := sidFor(0, 9)

	apply := func(seq, ack uint64) {
		t.Helper()
		if _, cached := applyOne(w, 0, sid, seq, ack, opAmo, fetchAddFields()); cached {
			t.Fatalf("seq %d unexpectedly served from cache", seq)
		}
	}
	cachedSeqs := func() []uint64 {
		s := w.sessions[sid]
		s.mu.Lock()
		defer s.mu.Unlock()
		var got []uint64
		for k := range s.replies {
			got = append(got, k)
		}
		return got
	}

	apply(1, 0)
	apply(2, 0) // ack stuck at 0: nothing may be evicted
	if got := cachedSeqs(); len(got) != 2 {
		t.Fatalf("window holds %v, want both unacked replies {1, 2}", got)
	}
	apply(3, 1) // acks seq 1 only: 2 must survive
	s := w.sessions[sid]
	s.mu.Lock()
	_, have1 := s.replies[1]
	_, have2 := s.replies[2]
	_, have3 := s.replies[3]
	s.mu.Unlock()
	if have1 || !have2 || !have3 {
		t.Fatalf("after ack=1 window holds {1:%v 2:%v 3:%v}, want only 2 and 3", have1, have2, have3)
	}
	apply(4, 3) // cumulative ack clears everything below
	if got := cachedSeqs(); len(got) != 1 {
		t.Fatalf("after ack=3 window holds %v, want only {4}", got)
	}

	// A retransmitted frame whose seq is still in the window is answered from
	// it; one whose seq was acked and evicted cannot be, and must not execute
	// again either.
	replay := func(seq uint64) (reply []byte, cached bool) {
		return applyOne(w, 0, sid, seq, 3, opAmo, fetchAddFields())
	}
	if rr, cached := replay(4); !cached || rr[4] != stOK {
		t.Fatalf("replay of cached seq 4: cached=%v status %d, want the cached reply", cached, rr[4])
	}
	if rr, cached := replay(2); cached || rr[4] != stFault || !bytes.Contains(rr, []byte("past its own ack")) {
		t.Fatalf("replay of evicted seq 2 answered %q (cached=%v), want a past-its-ack fault", rr, cached)
	}
	if got := applied(w); got != 4 {
		t.Fatalf("probe word = %d after two replays of four applied seqs, want 4", got)
	}
}

func TestSessionRejectsRankMismatch(t *testing.T) {
	w := sessionWorld()
	sid := sidFor(0, 11) // minted for rank 0

	reply, cached := applyOne(w, 2, sid, 1, 0, opAmo, fetchAddFields()) // conn said HELLO as rank 2
	if cached || reply[4] != stFault {
		t.Fatalf("rank-mismatched session was not rejected (cached=%v status=%d)", cached, reply[4])
	}
	if got := applied(w); got != 0 {
		t.Fatalf("rank-mismatched request executed anyway (probe word = %d)", got)
	}
	v := w.remoteFault(1, reply[4:])
	rf, ok := v.(*RemoteFault)
	if !ok {
		t.Fatalf("mismatch fault decoded as %T (%v), want *RemoteFault", v, v)
	}
	if rf.Rank != 1 {
		t.Fatalf("RemoteFault blames rank %d, want the owner rank 1", rf.Rank)
	}

	// The rejected frame left nothing to replay from: its retransmission is
	// rejected afresh, not answered from a cache.
	if rr, cached := applyOne(w, 2, sid, 1, 0, opAmo, fetchAddFields()); cached || rr[4] != stFault || len(w.sessions) != 0 {
		t.Fatalf("replayed rank-mismatched frame: cached=%v status %d, %d sessions, want a fresh fault and no session state", cached, rr[4], len(w.sessions))
	}
}

func TestRemoteFaultKinds(t *testing.T) {
	w := sessionWorld()
	w.Client = pipeClient(t)

	generic := faultReply(nil, faultGeneric, 1, "simnet: access to unregistered region")
	if v, ok := w.remoteFault(1, generic[4:]).(*RemoteFault); !ok || v.Rank != 1 {
		t.Fatalf("generic fault decoded as %#v, want *RemoteFault{Rank: 1}", v)
	}

	aborted := faultReply(nil, faultAborted, 1, "aborted")
	if v := w.remoteFault(1, aborted[4:]); v != simnet.ErrAborted {
		t.Fatalf("aborted fault decoded as %#v, want simnet.ErrAborted", v)
	}

	pf := faultReply(nil, faultPeerFailed, 3, "no heartbeat")
	v, ok := w.remoteFault(1, pf[4:]).(*simnet.ErrPeerFailed)
	if !ok || v.Rank != 3 {
		t.Fatalf("peer-failed fault decoded as %#v, want *ErrPeerFailed{Rank: 3}", v)
	}
	if w.FailedRank() != 3 {
		t.Fatalf("peer-failed fault did not record the blamed rank (got %d)", w.FailedRank())
	}
	if !simnet.IsAbortPanic(v) {
		t.Fatalf("*ErrPeerFailed must compose with the abort classification")
	}
}

// mkNotifyBatch builds a frame's list of ring deposits (word values), each
// entry carrying (key 0, off 0, word, arrival 0, xfer 1, reserve).
func mkNotifyBatch(words ...uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(words)))
	for _, v := range words {
		sub := []byte{opNotify}
		sub = binary.LittleEndian.AppendUint32(sub, 0) // key
		sub = binary.LittleEndian.AppendUint64(sub, 0) // off
		sub = binary.LittleEndian.AppendUint64(sub, v) // word
		sub = binary.LittleEndian.AppendUint64(sub, 0) // arrival
		sub = binary.LittleEndian.AppendUint64(sub, 1) // xfer
		sub = append(sub, 1)                           // reserve
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sub)))
		b = append(b, sub...)
	}
	return b
}

// TestSessionBatchSuffixReplay is the owner half of a reset mid-window: a
// requester with three frames in flight loses its connection after
// processing only the first reply, and retransmits the unacked suffix
// {seq 2, seq 3} verbatim — acks frozen at build time. The owner must
// replay both from cache byte-identically and apply nothing twice: the
// notify ring's producer ticket is a perfect double-apply counter (every
// execution fetch-adds it).
func TestSessionBatchSuffixReplay(t *testing.T) {
	w := sessionWorld()
	buf := make([]byte, simnet.NotifyRingBytes(8))
	reg := simnet.MakeRegion(1, 0, buf, timing.NewStamps(len(buf)), &w.ownPort, liveWord())
	reg.LocalWordStore(16, 8, 0) // bind the ring: capacity word
	w.mine = simnet.Directory{}  // the ring, not the probe word, is key 0
	w.mine.Add(&reg)
	sid := sidFor(0, 77)

	apply := func(seq, ack uint64, payload []byte) ([]byte, bool) {
		d := dec{b: payload}
		return w.sessionApply(0, sid, seq, ack, &d, nil)
	}
	// The in-flight window: seq 1 (two deposits), seq 2 (one), seq 3 (two).
	// Each frame's ack is the cumulative ack at build time: 0, 0, then 1
	// (seq 1's reply was processed before seq 3 was built).
	r1, _ := apply(1, 0, mkNotifyBatch(10, 11))
	if r1[4] != stOK {
		t.Fatalf("batch seq 1 faulted: %x", r1)
	}
	r2, _ := apply(2, 0, mkNotifyBatch(12))
	r3, _ := apply(3, 1, mkNotifyBatch(13, 14))
	first2 := append([]byte(nil), r2...)
	first3 := append([]byte(nil), r3...)
	if got := reg.LocalWord(0); got != 5 {
		t.Fatalf("producer ticket = %d after 5 deposits, want 5", got)
	}

	// Reset: the requester saw only seq 1's reply, so it retransmits the
	// suffix {2, 3} byte-identically on a fresh connection.
	rr2, c2 := apply(2, 0, mkNotifyBatch(12))
	rr3, c3 := apply(3, 1, mkNotifyBatch(13, 14))
	if !c2 || !c3 {
		t.Fatalf("suffix replay not served from cache (seq2=%v seq3=%v)", c2, c3)
	}
	if !bytes.Equal(first2, rr2) || !bytes.Equal(first3, rr3) {
		t.Fatalf("replayed suffix replies differ from the originals")
	}
	if got := reg.LocalWord(0); got != 5 {
		t.Fatalf("producer ticket = %d after suffix replay, want still 5 (no re-execution)", got)
	}

	// Recovery done: a fresh frame executes once and its ack evicts the
	// replayed window.
	r4, c4 := apply(4, 3, mkNotifyBatch(15))
	if c4 || r4[4] != stOK {
		t.Fatalf("post-recovery batch: cached=%v status=%d, want a fresh OK", c4, r4[4])
	}
	if got := reg.LocalWord(0); got != 6 {
		t.Fatalf("producer ticket = %d, want 6", got)
	}
	s := w.sessions[sid]
	s.mu.Lock()
	_, have2 := s.replies[2]
	_, have3 := s.replies[3]
	s.mu.Unlock()
	if have2 || have3 {
		t.Fatalf("ack=3 did not evict the replayed window (2:%v 3:%v)", have2, have3)
	}
}

// TestResumeExactlyOnceUnderRecurringResets runs a real two-rank loopback
// world under recurring data-plane connection resets and proves the session
// layer's exactly-once contract end to end: each rank fetch-adds one word of
// the peer's `rounds` times, so the i-th must return exactly i-1. A lost
// request that was silently re-executed would skip a value; a reply replayed
// from the wrong seq would repeat one. The faultnet spec
// scopes resets to the data plane, so the coordinator's failure detector
// keeps running — exactly the regime the resume protocol is for.
func TestResumeExactlyOnceUnderRecurringResets(t *testing.T) {
	t.Setenv(faultnet.EnvVar, "seed=3,reseteveryn=25,plane=data")
	t.Setenv(rankio.EnvTimeouts, "heartbeat=500ms,stale=5s")
	base := enableTelemetry(t)

	const rounds = 300
	err := hostListWorld(t, rankio.Options{Backend: BackendNet, Ranks: 2, RanksPerNode: 1}, func(w *World) error {
		reg := simnet.MakeRegion(w.Rank(), 0, make([]byte, 8), timing.NewStamps(8), w.Port(w.Rank()), liveWord())
		w.RegisterRegion(w.Rank(), &reg)
		w.Ready()
		m := &remoteMem{w: w, rank: 1 - w.Rank(), key: 0, size: 8}
		var one, fetched [8]byte
		binary.LittleEndian.PutUint64(one[:], 1)
		var mismatch error
		for i := uint64(0); i < rounds; i++ {
			if m.Amo(simnet.AmoSum, 0, one[:], 0, fetched[:], 0, 0, true, 0, 1); binary.LittleEndian.Uint64(fetched[:]) != i {
				mismatch = fmt.Errorf("rank %d fetch-add %d returned %d: an op was lost or applied twice", w.Rank(), i, binary.LittleEndian.Uint64(fetched[:]))
				break
			}
		}
		w.Finish()
		return mismatch
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	// The run proved the values arrived exactly once; the counters must now
	// tell the same story in telemetry terms. Every injected reset forces
	// at least one mid-window recovery somewhere, every recovery retransmits
	// at least the head of its window, and a dedup hit can only come from a
	// retransmitted frame the owner had already executed.
	resets := counterDelta(base, "fault.reset")
	resumes := counterDelta(base, "net.resumes")
	retrans := counterDelta(base, "net.retransmits")
	dedup := counterDelta(base, "net.dedup_hits")
	if resets == 0 {
		t.Fatalf("fault.reset = 0: the chaos spec injected nothing")
	}
	if resumes == 0 {
		t.Fatalf("net.resumes = 0 with %d injected resets: recoveries went uncounted", resets)
	}
	if retrans < resumes {
		t.Fatalf("net.retransmits (%d) < net.resumes (%d): each recovery must retransmit at least its head frame", retrans, resumes)
	}
	if dedup > retrans {
		t.Fatalf("net.dedup_hits (%d) > net.retransmits (%d): a cached reply replayed without a re-sent frame", dedup, retrans)
	}
}

// TestWindowReplayUnderRecurringResets is the wire-level half of the
// mid-window replay proof: each rank streams fused put windows at its
// peer — ten one-word Puts per DrainWire, thirty windows — while faultnet
// resets the data plane every 25 frames, so resets land with batches
// genuinely in flight and the engine must retransmit unacked suffixes
// across fresh connections. Every put rings the owner's port in its
// release, so the port's generation counts executions: exactly
// `windows*perWindow` plus the closing flag at the end means every put
// applied exactly once despite the replays.
func TestWindowReplayUnderRecurringResets(t *testing.T) {
	t.Setenv(faultnet.EnvVar, "seed=5,reseteveryn=25,plane=data")
	t.Setenv(rankio.EnvTimeouts, "heartbeat=500ms,stale=5s")
	base := enableTelemetry(t)

	const (
		windows   = 30
		perWindow = 10
		flagOff   = perWindow * 8 // first word past the put targets
	)
	err := hostListWorld(t, rankio.Options{Backend: BackendNet, Ranks: 2, RanksPerNode: 1}, func(w *World) error {
		buf := make([]byte, flagOff+8)
		reg := simnet.MakeRegion(w.Rank(), 0, buf, timing.NewStamps(len(buf)), w.Port(w.Rank()), liveWord())
		w.RegisterRegion(w.Rank(), &reg)
		w.Ready()
		peer := 1 - w.Rank()
		m := &remoteMem{w: w, rank: peer, key: 0, size: len(buf)}
		var sink timing.Time
		for b := 0; b < windows; b++ {
			for i := 0; i < perWindow; i++ {
				m.Put(8*i, binary.LittleEndian.AppendUint64(nil, uint64(b*perWindow+i)), true, 0, 1, &sink, true)
			}
			w.DrainWire()
		}
		// Announce completion with a store (ordered behind the drained
		// windows), then wait for the peer's announcement. The generation is
		// read after Finish: the peer drained its flag put — the owner's
		// release, ring and all — before it reported done.
		m.Put(flagOff, binary.LittleEndian.AppendUint64(nil, 1), true, 0, 1, &sink, true)
		w.DrainWire()
		for reg.LocalWord(flagOff) == 0 {
			time.Sleep(time.Millisecond)
		}
		w.Finish()
		var mismatch error
		if got := w.Port(w.Rank()).Gen(); got != windows*perWindow+1 {
			mismatch = fmt.Errorf("rank %d port generation = %d, want %d: a put was lost or applied twice",
				w.Rank(), got, windows*perWindow+1)
		}
		return mismatch
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	// Counter invariants for the batched regime: the fused windows must show
	// up as flushed batches, and the reset/recovery relations from the
	// single-op test hold unchanged for window suffix replay.
	if batches := counterDelta(base, "net.batches"); batches == 0 {
		t.Fatalf("net.batches = 0 after %d fused windows per rank", windows)
	}
	resets := counterDelta(base, "fault.reset")
	retrans := counterDelta(base, "net.retransmits")
	dedup := counterDelta(base, "net.dedup_hits")
	if resets == 0 {
		t.Fatalf("fault.reset = 0: the chaos spec injected nothing")
	}
	if resumes := counterDelta(base, "net.resumes"); resumes == 0 || retrans < resumes {
		t.Fatalf("net.resumes = %d, net.retransmits = %d: every mid-window recovery must count and retransmit at least its head", resumes, retrans)
	}
	if dedup > retrans {
		t.Fatalf("net.dedup_hits (%d) > net.retransmits (%d): a cached reply replayed without a re-sent frame", dedup, retrans)
	}
	// The byte cap is the window's only cap, and it bounds the depth too
	// (see winBytesCap): no queue-time occupancy beyond the implied bound.
	window := telemetry.Capture(-1).Hists["net.window"]
	top := 0
	for i, n := range window.Buckets {
		if n != 0 {
			top = i
		}
	}
	if lo := telemetry.BucketMax(top-1) + 1; window.Count == 0 || lo > winBytesCap/batchBuildMax+1 {
		t.Fatalf("net.window saw an occupancy of at least %d over %d queued frames, want at most winBytesCap/batchBuildMax+1 = %d",
			lo, window.Count, winBytesCap/batchBuildMax+1)
	}
}

// TestUnassignedOpcodeRejected pins what an opcode outside the table meets:
// no place in a list, and an unknown-opcode fault from the owner, which books
// nothing — zero, the first number past the table, and the number the retired
// re-attach handshake (RESUME) held alike.
func TestUnassignedOpcodeRejected(t *testing.T) {
	w := sessionWorld()
	// 4, 5 and 7 are the retired word store, word load and chained AMO.
	for _, op := range []uint8{0, 4, 5, 7, opClock + 1, opBatch + 1} {
		if listed(op) {
			t.Fatalf("unassigned opcode %d has a place in a list", op)
		}
		if _, err := parseBatch(buildBatch([]byte{op})); !errors.Is(err, ErrBatchOpCode) {
			t.Fatalf("a list carrying unassigned opcode %d parsed with %v, want ErrBatchOpCode", op, err)
		}
		e := newEnc(nil)
		if w.handle(op, &dec{}, &e); e.b[8] != stFault || !bytes.Contains(e.b, []byte("unknown opcode")) {
			t.Fatalf("unassigned opcode %d answered %q, want an unknown-opcode fault", op, e.b)
		}
		if applied(w) != 0 || w.ownPort.Gen() != 0 {
			t.Fatalf("unassigned opcode %d touched owner state (word %d, door gen %d)", op, applied(w), w.ownPort.Gen())
		}
	}
}

// TestWrappedOffsetFaults: a put or an atomic whose offset is so large that
// offset+length wraps round int faults by name at the owner, before the
// owner takes its port: the port is left exactly as it was.
func TestWrappedOffsetFaults(t *testing.T) {
	const off = math.MaxInt64 - 7
	put := binary.LittleEndian.AppendUint32(nil, 0)  // key
	put = binary.LittleEndian.AppendUint64(put, off) // off
	put = binary.LittleEndian.AppendUint64(put, 5)   // arrival
	put = binary.LittleEndian.AppendUint64(put, 1)   // xfer
	put = append(append(put, 1), "8 bytes!"...)      // reserve, the word
	amo := fetchAddFields()
	binary.LittleEndian.PutUint64(amo[4:], off)
	w := sessionWorld()
	// The port's 32 bytes (its two words and the NIC interval), as raw words:
	// a Port has lock methods, so a copy of the struct would trip vet.
	port := (*[4]uint64)(unsafe.Pointer(&w.ownPort))
	if unsafe.Sizeof(w.ownPort) != unsafe.Sizeof(*port) {
		t.Fatalf("simnet.Port is %d bytes, not %d", unsafe.Sizeof(w.ownPort), unsafe.Sizeof(*port))
	}
	for _, c := range []struct {
		name   string
		op     uint8
		fields []byte
	}{{"opPut", opPut, put}, {"opAmo", opAmo, amo}} {
		before := *port
		e := newEnc(nil)
		w.handle(c.op, &dec{b: c.fields}, &e)
		if e.b[8] != stFault || !bytes.Contains(e.b, []byte("outside region of 8 bytes")) {
			t.Errorf("%s at offset %d answered %q, want the bounds fault", c.name, uint64(off), e.b)
		}
		if *port != before {
			t.Fatalf("%s at offset %d left the port %#x, want %#x", c.name, uint64(off), *port, before)
		}
	}
	if applied(w) != 0 {
		t.Fatalf("the probe word reads %d after the faults, want it untouched", applied(w))
	}
}

// TestTruncatedControlRequestFaults: a control entry cut short faults before
// the owner acts on it, like every data op — it must not query key 0 or park
// on generation 0 in the missing bytes' stead.
func TestTruncatedControlRequestFaults(t *testing.T) {
	for _, c := range []struct {
		name   string
		op     uint8
		fields []byte
	}{
		{"opRegQuery", opRegQuery, []byte{0, 0}},    // 2 of the key's 4 bytes
		{"opDoorWait", opDoorWait, []byte{0, 0, 0}}, // 3 of the generation's 8
	} {
		w := sessionWorld()
		reply, _ := applyOne(w, 0, sidFor(0, 5), 1, 0, c.op, c.fields)
		if sub := firstSub(t, reply); sub[0] != stFault || !bytes.Contains(sub, []byte("truncated request frame")) {
			t.Errorf("%s cut short answered %q, want a truncated-request fault", c.name, sub)
		}
	}
}

// shortOwner stands in for rank 1's service loop behind a pipe: it answers
// every frame with a well-formed reply list whose sub-replies are all n zero
// bytes behind an OK status, whatever the entries asked for. It reuses its
// buffers, so a warm exchange allocates nothing on its side.
func shortOwner(t *testing.T, n int) *World {
	near, far := net.Pipe()
	t.Cleanup(func() { near.Close(); far.Close() })
	go func() {
		rd := bufio.NewReader(far)
		var in, out []byte
		for {
			frame, err := readFrame(rd, in)
			if err != nil {
				return
			}
			in = frame
			if frame[0] != opBatch {
				continue
			}
			e := newEnc(out)
			e.u8(stOK)
			entries := binary.LittleEndian.Uint32(frame[33:])
			e.u32(entries)
			for i := uint32(0); i < entries; i++ {
				e.u32(uint32(1 + n))
				e.u8(stOK)
				for range n {
					e.u8(0)
				}
			}
			out = e.finish()
			if _, err := far.Write(out); err != nil {
				return
			}
		}
	}()
	return &World{
		Client: pipeClient(t),
		rsess:  make([]reqSession, 2),
		peers:  []*peerConn{nil, {c: near, rd: bufio.NewReader(near)}},
		budget: 5 * time.Second,
	}
}

// TestTruncatedReplyFaults: one short sub-reply per opcode — a byte less than
// the op's reply holds — re-panics on the requester as a typed truncation
// fault naming the owner. Decoded as zeros it would have been a zero
// completion time, a zero fetched value, a half-filled get buffer.
func TestTruncatedReplyFaults(t *testing.T) {
	var sink timing.Time
	var buf, old [8]byte
	for _, c := range []struct {
		name  string
		whole int // bytes the op's sub-reply holds past its status
		issue func(w *World, m *remoteMem)
	}{
		{"opPut", 8, func(w *World, m *remoteMem) { m.Put(0, buf[:], true, 0, 1, &sink, true); w.DrainWire() }},
		{"opGet", 16, func(w *World, m *remoteMem) { m.Get(buf[:], 0, 0, true, 0, 1) }},
		{"opAmo fetching", 32, func(w *World, m *remoteMem) { m.Amo(simnet.AmoSum, 0, buf[:], 0, old[:], 0, 0, true, 0, 1) }},
		{"opAmo", 24, func(w *World, m *remoteMem) { m.Amo(simnet.AmoSum, 0, buf[:], 0, nil, 0, 0, true, 0, 1) }},
		{"opNotify", 8, func(w *World, m *remoteMem) { m.Notify(0, 1, true, 0, 1) }},
		{"opRegQuery", 9, func(w *World, m *remoteMem) { w.queryRegion(1, 0) }},
		{"opDoorGen", 8, func(w *World, m *remoteMem) { w.ctlWord(1, opDoorGen) }},
		{"opDoorWait", 8, func(w *World, m *remoteMem) { w.ctlWord(1, opDoorWait, 0) }},
		{"opDoorRing", 8, func(w *World, m *remoteMem) { w.ctlWord(1, opDoorRing) }},
		{"opClock", 8, func(w *World, m *remoteMem) { w.ctlWord(1, opClock) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := shortOwner(t, c.whole-1)
			defer func() {
				rf, ok := recover().(*RemoteFault)
				if !ok || rf.Rank != 1 || !strings.Contains(rf.Msg, "truncated") {
					t.Fatalf("a %d-byte reply to %s (it holds %d) surfaced as %#v, want a truncation *RemoteFault from rank 1", c.whole-1, c.name, c.whole, rf)
				}
			}()
			c.issue(w, &remoteMem{w: w, rank: 1, size: 64})
			t.Fatalf("a %d-byte reply to %s (it holds %d) decoded without a fault", c.whole-1, c.name, c.whole)
		})
	}
}

// deadlineFree is a connection whose deadlines are no-ops: net.Pipe arms a
// timer for every deadline set, an allocation a TCP connection's deadline
// does not make.
type deadlineFree struct{ sock.Conn }

func (deadlineFree) SetReadDeadline(time.Time) error  { return nil }
func (deadlineFree) SetWriteDeadline(time.Time) error { return nil }

// TestProxyNotifyAllocFree: a notification to a proxy is one value-class
// entry through the session's recycled builder, window slot and reply
// buffer, its completion read off the reply: once warm it allocates nothing
// on the requester — no completion slot on the heap.
func TestProxyNotifyAllocFree(t *testing.T) {
	w := shortOwner(t, 8)
	w.peers[1].c = deadlineFree{w.peers[1].c}
	m := &remoteMem{w: w, rank: 1, size: 64}
	notify := func() {
		if comp := m.Notify(0, 1, true, 0, 1); comp != 0 {
			t.Fatalf("notify completed at %d, want the owner's 0", comp)
		}
	}
	notify() // warm the builder, the window entry and the reply buffer
	if avg := testing.AllocsPerRun(100, notify); avg != 0 {
		t.Fatalf("a notify to a proxy allocates %.2f objects, want 0", avg)
	}
}

// TestOwnerWriteRings: a write the wire owner applies rings the rank's
// doorbell in its own port release, as an inline write does. One opPut (inter-
// and intra-node), opAmo and opNotify frame each advances the port's
// generation by one and pokes the door of a waiter counted on the port,
// which returns with the new generation.
func TestOwnerWriteRings(t *testing.T) {
	w := sessionWorld()
	buf := make([]byte, simnet.NotifyRingBytes(4))
	ring := simnet.MakeRegion(1, 0, buf, timing.NewStamps(len(buf)), &w.ownPort, liveWord())
	ring.LocalWordStore(16, 4, 0) // bind a ring of 4 slots
	ringKey := w.mine.Add(&ring)
	// The door: a waiter sleeps until its slot is poked or its slice ends.
	var pokes atomic.Int32
	wake := make(chan struct{}, 1)
	parked := make(chan struct{}, 1)
	w.door = simnet.ParkHook{
		Seq: func(int) uint64 { return 0 },
		Park: func(_ int, _ uint64, d time.Duration) bool {
			parked <- struct{}{}
			select {
			case <-wake:
				return true
			case <-time.After(d):
				return false
			}
		},
		Poke:    func(int) bool { pokes.Add(1); wake <- struct{}{}; return true },
		Aborted: func() error { return nil },
	}
	put := func(reserve byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, 0) // key
		b = binary.LittleEndian.AppendUint64(b, 0)    // off
		b = binary.LittleEndian.AppendUint64(b, 5)    // arrival
		b = binary.LittleEndian.AppendUint64(b, 1)    // xfer
		return append(append(b, reserve), "8 bytes!"...)
	}
	notify := binary.LittleEndian.AppendUint32(nil, uint32(ringKey))
	notify = binary.LittleEndian.AppendUint64(notify, 0) // off
	notify = binary.LittleEndian.AppendUint64(notify, 9) // word
	notify = binary.LittleEndian.AppendUint64(notify, 5) // arrival
	notify = binary.LittleEndian.AppendUint64(notify, 1) // xfer
	notify = append(notify, 1)                           // reserve
	sid := sidFor(0, 9)
	for i, c := range []struct {
		name   string
		op     uint8
		fields []byte
	}{
		{"opPut", opPut, put(1)},
		{"intra-node opPut", opPut, put(0)},
		{"opAmo", opAmo, fetchAddFields()},
		{"opNotify", opNotify, notify},
	} {
		gen := w.ownPort.Gen()
		out := make(chan uint64, 1)
		go func() { out <- w.door.DoorWait(&w.ownPort, w.self, gen) }()
		<-parked // counted in on the port and asleep
		reply, _ := applyOne(w, 0, sid, uint64(i+1), uint64(i), c.op, c.fields)
		if sub := firstSub(t, reply); sub[0] != stOK {
			t.Fatalf("%s faulted: %q", c.name, sub)
		}
		if g := <-out; g != gen+1 || w.ownPort.Gen() != gen+1 {
			t.Fatalf("%s: the waiter returned generation %d and the port reads %d, want both %d", c.name, g, w.ownPort.Gen(), gen+1)
		}
		if got := pokes.Load(); got != int32(i+1) {
			t.Fatalf("%s: %d pokes after %d writes, want one a write", c.name, got, i+1)
		}
	}
}

// fuzzOwner is rank 1 of a two-rank world serving one 64-byte region (key 0)
// that sits between guard bytes in slab.
func fuzzOwner(cl *rankio.Client) (w *World, slab []byte) {
	w = &World{
		Client:   cl,
		rank:     1,
		lidx:     []int{-1, 0},
		sessions: make(map[uint64]*ownerSession),
		park:     simnet.NewParker(2),
		budget:   5 * time.Second,
	}
	w.door = w.park.Hook(w.AbortErr)
	slab = bytes.Repeat([]byte{0xa5}, 3*64)
	buf := slab[64:128:128]
	clear(buf)
	reg := simnet.MakeRegion(1, 0, buf, timing.NewStamps(len(buf)), &w.ownPort, liveWord())
	w.mine.Add(&reg)
	return w, slab
}

// frameOf assembles a session frame's payload around a list.
func frameOf(sid, seq, ack uint64, list []byte) []byte {
	e := enc{}
	e.u8(opBatch)
	e.i64(0)
	e.u64(sid)
	e.u64(seq)
	e.u64(ack)
	e.bytes(list)
	return e.b
}

// entryOf assembles one list entry.
func entryOf(op uint8, fill func(e *enc)) []byte {
	e := enc{[]byte{op}}
	if fill != nil {
		fill(&e)
	}
	return e.b
}

// checkFault fails unless b (status byte onward) is a well-formed fault.
func checkFault(t *testing.T, what string, b []byte) {
	t.Helper()
	if len(b) < 7 || b[0] != stFault || b[1] > faultPeerFailed {
		t.Fatalf("%s is not a typed fault: %q", what, b)
	}
}

// checkReplyList fails unless reply (status byte onward) answers a frame
// carrying list the way the protocol says: a typed fault for a list that does
// not parse, otherwise one sub-reply per entry up to and including the first
// that faults, each OK or a typed fault, and not a byte more.
func checkReplyList(t *testing.T, list, reply []byte) {
	t.Helper()
	subs, err := parseBatch(list)
	if err != nil || len(reply) == 0 || reply[0] != stOK {
		if err == nil {
			t.Fatalf("a list of %d entries was refused whole: %q", len(subs), reply)
		}
		checkFault(t, "the reply to a malformed list", reply)
		return
	}
	d := dec{b: reply, pos: 1}
	m := int(d.u32())
	if d.bad || m > len(subs) {
		t.Fatalf("reply answers %d of %d entries: %x", m, len(subs), reply)
	}
	faulted := false
	for i := 0; i < m; i++ {
		sub := d.n(int(d.u32()))
		if d.bad || len(sub) == 0 || faulted {
			t.Fatalf("sub-reply %d of %d is cut short, empty, or follows a fault: %x", i, m, reply)
		}
		if faulted = sub[0] != stOK; faulted {
			checkFault(t, fmt.Sprintf("sub-reply %d", i), sub)
		}
	}
	if d.pos != len(reply) || (m < len(subs) && !faulted) {
		t.Fatalf("reply answers %d of %d entries without a fault, or trails bytes: %x", m, len(subs), reply)
	}
}

// FuzzFrame holds the owner's frame path total over arbitrary bytes behind a
// valid HELLO: the service goroutine never panics, nothing outside the one
// region is written, a frame with a session header is answered with a
// well-formed reply list or a typed fault (anything else only costs the
// connection), and a second delivery of the same (sid, seq) returns the first
// reply byte for byte.
func FuzzFrame(f *testing.F) {
	sid := sidFor(0, 1)
	u64s := func(vs ...uint64) func(e *enc) {
		return func(e *enc) {
			for _, v := range vs {
				e.u64(v)
			}
		}
	}
	addr := func(off uint64, rest func(e *enc)) func(e *enc) {
		return func(e *enc) {
			e.u32(0)
			e.u64(off)
			if rest != nil {
				rest(e)
			}
		}
	}
	tail := func(vs ...uint64) func(e *enc) { // trailing words, then reserve
		return func(e *enc) { u64s(vs...)(e); e.u8(1) }
	}
	amo := func(op simnet.AmoOp, fetch bool, swap uint64, operand []byte) []byte {
		return entryOf(opAmo, addr(24, func(e *enc) {
			e.u8(uint8(op))
			e.boolByte(fetch)
			tail(swap, 0, 0, 0, 1)(e)
			e.bytes(operand)
		}))
	}
	word := func(vs ...uint64) (b []byte) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	perOp := [][]byte{
		entryOf(opPut, addr(8, func(e *enc) { tail(5, 1)(e); e.bytes([]byte("8 bytes!")) })),
		entryOf(opGet, addr(0, tail(16, 0, 0, 1))),
		entryOf(opPut, addr(16, func(e *enc) { tail(5, 1)(e); e.u64(4) })), // binds a ring of 4 at offset 0
		entryOf(opGet, addr(16, tail(8, 0, 0, 1))),
		append([]byte{opAmo}, fetchAddFields()...),
		amo(simnet.AmoBand, true, 0, word(0xf0f0)),
		amo(simnet.AmoBor, false, 0, word(0x0f0f)),
		amo(simnet.AmoBxor, true, 0, word(0xffff, 0xff)),
		amo(simnet.AmoCas, true, 7, word(0)),
		amo(simnet.AmoNoOp, true, 0, word(0)),
		amo(simnet.AmoSum, false, 0, word(3, 4, 5)),
		amo(simnet.AmoSum, true, 0, []byte("12 bytes!!!!")), // not whole words: a typed fault
		amo(simnet.AmoNoOp+1, true, 0, word(1)),             // no such operator: a typed fault
		entryOf(opNotify, addr(0, tail(9, 5, 1))),
		// An offset whose sum with the length wraps round int: a bounds fault.
		entryOf(opPut, addr(math.MaxInt64-7, func(e *enc) { tail(5, 1)(e); e.bytes([]byte("8 bytes!")) })),
		entryOf(opRegQuery, func(e *enc) { e.u32(0) }),
		entryOf(opDoorGen, nil),
		entryOf(opDoorWait, u64s(7)), // not the current generation: answers at once
		entryOf(opDoorRing, nil),
		entryOf(opClock, nil),
	}
	for _, ent := range perOp {
		f.Add(frameOf(sid, 1, 0, buildBatch(ent)))
	}
	f.Add(frameOf(sid, 1, 0, buildBatch(perOp...)))
	// The retired word store, word load and chained AMO: the list is refused
	// whole, before the put ahead of them runs.
	for _, retired := range []byte{4, 5, 7} {
		f.Add(frameOf(sid, 1, 0, buildBatch(perOp[0], append([]byte{retired}, fetchAddFields()...))))
	}
	// FuzzParseBatch's corpus, behind a session header.
	f.Add(frameOf(sid, 1, 0, nil))
	f.Add(frameOf(sid, 1, 0, buildBatch()))
	f.Add(frameOf(sid, 1, 0, buildBatch(append([]byte{opPut}, bytes.Repeat([]byte{3}, 29)...))))
	f.Add(frameOf(sid, 2, 1, buildBatch([]byte{opNotify, 1}, []byte{opAmo, 2, 3})))
	f.Add(frameOf(sid, 1, 0, []byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3}))
	f.Add(frameOf(sidFor(1, 1), 1, 0, buildBatch())) // a session minted for another rank
	f.Add([]byte{opHello, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0})

	cl := pipeClient(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		w, slab := fuzzOwner(cl)
		near, far := net.Pipe()
		served := make(chan struct{})
		go func() { w.serveConn(far); close(served) }()
		defer func() { near.Close(); <-served }()
		rd := bufio.NewReader(near)
		// exchange writes one frame and, if reply is set, reads one back; ok
		// is false once the owner has dropped the connection.
		exchange := func(payload []byte, reply bool) ([]byte, bool) {
			near.SetDeadline(time.Now().Add(10 * time.Second))
			e := newEnc(nil)
			e.bytes(payload)
			if _, err := near.Write(e.finish()); err != nil || !reply {
				return nil, err == nil
			}
			got, err := readFrame(rd, nil)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("no reply to %x within 10 s: the service goroutine is stuck", payload)
			}
			return got, err == nil
		}
		exchange([]byte{opHello, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, false)

		framed := len(in) >= 33 && in[0] == opBatch
		first, ok := exchange(in, framed)
		if framed {
			if !ok {
				t.Fatalf("a frame with a whole session header cost the connection: %x", in)
			}
			hdr := dec{b: in, pos: 9}
			sid, seq, ack := hdr.u64(), hdr.u64(), hdr.u64()
			mine := sidRank(sid) == 0 && seq > 0 // this connection's session, a sequence number it can hold
			if mine {
				checkReplyList(t, in[33:], first[:len(first):len(first)])
			} else {
				checkFault(t, "the reply to a frame outside the connection's session", first)
			}
			first = append([]byte(nil), first...)
			again, ok := exchange(in, true)
			switch {
			case !ok:
				t.Fatalf("the second delivery of %x cost the connection", in)
			case mine && ack >= seq:
				// The frame acknowledged itself: its reply was evicted as the
				// replay arrived, which the owner must refuse, not re-execute.
				checkFault(t, "the replay of a self-acknowledged frame", again)
			case !bytes.Equal(first, again):
				t.Fatalf("second delivery of (sid %#x, seq %d) answered\n  %x\nafter\n  %x", sid, seq, again, first)
			}
		}
		for i, b := range slab {
			if (i < 64 || i >= 128) && b != 0xa5 {
				t.Fatalf("byte %d outside the region was written (%#x) by %x", i-64, b, in)
			}
		}
	})
}
