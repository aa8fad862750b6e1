package netrun

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"fompi/internal/faultnet"
	"fompi/internal/rankio"
	"fompi/internal/simnet"
	"fompi/internal/telemetry"
	"fompi/internal/timing"
)

// liveWord returns a liveness word for a handle these tests build without an
// endpoint; nothing ever unregisters it.
func liveWord() *uint32 { v := simnet.RegionLive; return &v }

// sessionWorld builds the minimal owner-side World the session layer needs:
// a rank, one registered word behind the rank's port, and an empty session
// table (unpaced: no clock table).
func sessionWorld() *World {
	w := &World{
		rank:     1,
		sessions: make(map[uint64]*ownerSession),
	}
	reg := simnet.MakeRegion(1, 0, make([]byte, 8), timing.NewStamps(8), &w.ownPort, liveWord())
	w.mine = []*simnet.Region{&reg}
	return w
}

// pipeClient is a control-plane client joined over a pipe nobody answers:
// enough for the paths that record or read the abort verdict.
func pipeClient(t *testing.T) *rankio.Client {
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
func applied(w *World) uint64 { return w.mine[0].LocalWord(0) }

// fetchAddFields encodes an opWordAmo payload past the session header: an
// inter-node fetch-add of one on the probe word (key 0, off 0), so every
// execution advances the word by exactly one — a counter that detects double
// application.
func fetchAddFields() []byte {
	b := binary.LittleEndian.AppendUint32(nil, 0) // key
	b = binary.LittleEndian.AppendUint64(b, 0)    // off
	b = append(b, byte(simnet.WordAdd))
	b = binary.LittleEndian.AppendUint64(b, 1) // o1: delta
	for i := 0; i < 4; i++ {
		b = binary.LittleEndian.AppendUint64(b, 0) // o2, clockIn, srcFree, lat
	}
	b = binary.LittleEndian.AppendUint64(b, 1) // xfer
	return append(b, 1)                        // reserve
}

func TestSessionDuplicateSeqReplaysCachedReply(t *testing.T) {
	w := sessionWorld()
	sid := sidFor(0, 4242)

	d1 := dec{b: fetchAddFields()}
	r1, cached := w.sessionApply(0, sid, 1, 0, opWordAmo, &d1, nil)
	if cached {
		t.Fatalf("first application of seq 1 claimed to come from cache")
	}
	first := append([]byte(nil), r1...)

	d2 := dec{b: fetchAddFields()}
	r2, cached := w.sessionApply(0, sid, 1, 0, opWordAmo, &d2, nil)
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
	d1 := dec{b: putFields}
	r1, cached := w.sessionApply(0, sid, 1, 0, opPut, &d1, nil)
	if cached || r1[4] != stFault {
		t.Fatalf("expected a fresh fault reply, got cached=%v status=%d", cached, r1[4])
	}
	first := append([]byte(nil), r1...)
	d2 := dec{b: putFields}
	r2, cached := w.sessionApply(0, sid, 1, 0, opPut, &d2, nil)
	if !cached || !bytes.Equal(first, r2) {
		t.Fatalf("fault reply not replayed byte-identically (cached=%v)", cached)
	}
}

func TestSessionEvictionHonorsAck(t *testing.T) {
	w := sessionWorld()
	sid := sidFor(0, 9)

	apply := func(seq, ack uint64) {
		t.Helper()
		d := dec{b: fetchAddFields()}
		if _, cached := w.sessionApply(0, sid, seq, ack, opWordAmo, &d, nil); cached {
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
		d := dec{b: fetchAddFields()}
		return w.sessionApply(0, sid, seq, 3, opWordAmo, &d, nil)
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

	d := dec{b: fetchAddFields()}
	reply, cached := w.sessionApply(2, sid, 1, 0, opWordAmo, &d, nil) // conn said HELLO as rank 2
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
	d = dec{b: fetchAddFields()}
	if rr, cached := w.sessionApply(2, sid, 1, 0, opWordAmo, &d, nil); cached || rr[4] != stFault || len(w.sessions) != 0 {
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

// mkNotifyBatch builds an opBatch payload of ring deposits (word values) the
// way flushFused + NotifyAsync would: no piggybacked doorbell, each sub-op
// carrying (key 0, off 0, word, arrival 0, xfer 1, reserve).
func mkNotifyBatch(words ...uint64) []byte {
	b := []byte{0}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(words)))
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
// requester with three batch frames in flight loses its connection after
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
	w.mine = []*simnet.Region{&reg}
	sid := sidFor(0, 77)

	apply := func(seq, ack uint64, payload []byte) ([]byte, bool) {
		d := dec{b: payload}
		return w.sessionApply(0, sid, seq, ack, opBatch, &d, nil)
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
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("probe listen: %v", err)
	}
	addr := probe.Addr().String()
	probe.Close()

	t.Setenv(faultnet.EnvVar, "seed=3,reseteveryn=25,plane=data")
	t.Setenv(rankio.EnvTimeouts, "heartbeat=500ms,stale=5s,optimeout=5s,ctlidle=10s")
	t.Setenv(rankio.EnvCoord, BackendNet+":tcp:"+addr)
	t.Setenv(rankio.EnvRank, "")
	base := enableTelemetry(t)

	o := rankio.Options{Backend: BackendNet, Ranks: 2, RanksPerNode: 1, Hosts: []string{"localhost"}, Listen: addr}
	launchErr := make(chan error, 1)
	go func() { launchErr <- Launch(o) }()
	for i := 0; ; i++ {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			break
		}
		if i > 100 {
			t.Fatalf("coordinator never started listening: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	const rounds = 300
	workerErr := make(chan error, 2)
	worker := func() {
		defer func() {
			if r := recover(); r != nil {
				workerErr <- errFromPanic(r)
			}
		}()
		w, err := Join(rankio.Options{Backend: BackendNet, Ranks: 2, RanksPerNode: 1})
		if err != nil {
			workerErr <- err
			return
		}
		reg := simnet.MakeRegion(w.Rank(), 0, make([]byte, 8), timing.NewStamps(8), w.Port(w.Rank()), liveWord())
		w.RegisterRegion(w.Rank(), &reg)
		w.Ready()
		m := &remoteMem{w: w, rank: 1 - w.Rank(), key: 0, size: 8}
		var mismatch error
		for i := uint64(0); i < rounds; i++ {
			if got, _, _, _ := m.WordAmo(simnet.WordAdd, 0, 1, 0, 0, 0, true, 0, 1); got != i {
				mismatch = fmt.Errorf("rank %d fetch-add %d returned %d: an op was lost or applied twice", w.Rank(), i, got)
				break
			}
		}
		w.Finish()
		workerErr <- mismatch
	}
	go worker()
	go worker()

	for i := 0; i < 2; i++ {
		select {
		case err := <-workerErr:
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("workers did not finish under recurring resets")
		}
	}
	select {
	case err := <-launchErr:
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator did not return")
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
// mid-window replay proof: each rank streams fused notify windows at its
// peer — ten NotifyAsync deposits per DrainWire, thirty windows — while
// faultnet resets the data plane every 25 frames, so resets land with
// batches genuinely in flight and the engine must retransmit unacked
// suffixes across fresh connections. The notify ring's producer ticket
// counts executions: exactly `windows*perWindow` at the end means every
// deposit applied exactly once despite the replays.
func TestWindowReplayUnderRecurringResets(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("probe listen: %v", err)
	}
	addr := probe.Addr().String()
	probe.Close()

	t.Setenv(faultnet.EnvVar, "seed=5,reseteveryn=25,plane=data")
	t.Setenv(rankio.EnvTimeouts, "heartbeat=500ms,stale=5s,optimeout=5s,ctlidle=10s")
	t.Setenv(rankio.EnvCoord, BackendNet+":tcp:"+addr)
	t.Setenv(rankio.EnvRank, "")
	base := enableTelemetry(t)

	o := rankio.Options{Backend: BackendNet, Ranks: 2, RanksPerNode: 1, Hosts: []string{"localhost"}, Listen: addr}
	launchErr := make(chan error, 1)
	go func() { launchErr <- Launch(o) }()
	for i := 0; ; i++ {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			break
		}
		if i > 100 {
			t.Fatalf("coordinator never started listening: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	const (
		ringCap   = 512
		windows   = 30
		perWindow = 10
		flagOff   = 24 + ringCap*8 // first word past the ring
	)
	workerErr := make(chan error, 2)
	worker := func() {
		defer func() {
			if r := recover(); r != nil {
				workerErr <- errFromPanic(r)
			}
		}()
		w, err := Join(rankio.Options{Backend: BackendNet, Ranks: 2, RanksPerNode: 1})
		if err != nil {
			workerErr <- err
			return
		}
		buf := make([]byte, flagOff+8)
		reg := simnet.MakeRegion(w.Rank(), 0, buf, timing.NewStamps(len(buf)), w.Port(w.Rank()), liveWord())
		reg.LocalWordStore(16, ringCap, 0) // bind the ring before peers deposit
		w.RegisterRegion(w.Rank(), &reg)
		w.Ready()
		peer := 1 - w.Rank()
		m := &remoteMem{w: w, rank: peer, key: 0, size: len(buf)}
		var sink timing.Time
		for b := 0; b < windows; b++ {
			for i := 0; i < perWindow; i++ {
				m.NotifyAsync(0, uint64(b*perWindow+i), true, 0, 1, &sink, true)
			}
			w.DrainWire()
		}
		// Announce completion with a sessioned store (ordered behind the
		// drained windows), then wait for the peer's announcement before
		// reading the local ticket.
		m.StoreWord(flagOff, 1, true, 0, 1)
		for reg.LocalWord(flagOff) == 0 {
			time.Sleep(time.Millisecond)
		}
		var mismatch error
		if got := reg.LocalWord(0); got != windows*perWindow {
			mismatch = fmt.Errorf("rank %d ring ticket = %d, want %d: a deposit was lost or applied twice",
				w.Rank(), got, windows*perWindow)
		}
		w.Finish()
		workerErr <- mismatch
	}
	go worker()
	go worker()

	for i := 0; i < 2; i++ {
		select {
		case err := <-workerErr:
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("workers did not finish under recurring resets")
		}
	}
	select {
	case err := <-launchErr:
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator did not return")
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
// no session header, and an unknown-opcode fault from the owner, which books
// nothing — zero, the first number past the table and the number the retired
// re-attach handshake (RESUME) held alike.
func TestUnassignedOpcodeRejected(t *testing.T) {
	w := sessionWorld()
	for _, op := range []uint8{0, opClock + 1, opBatch + 1} {
		if sessioned(op) || batchable(op) {
			t.Fatalf("unassigned opcode %d claims a session header or a batch slot", op)
		}
		reply := w.handle(op, &dec{}, nil)
		if reply[4] != stFault || !bytes.Contains(reply, []byte("unknown opcode")) {
			t.Fatalf("unassigned opcode %d answered %q, want an unknown-opcode fault", op, reply)
		}
		if applied(w) != 0 || w.ownPort.Gen() != 0 {
			t.Fatalf("unassigned opcode %d touched owner state (word %d, door gen %d)", op, applied(w), w.ownPort.Gen())
		}
	}
}
