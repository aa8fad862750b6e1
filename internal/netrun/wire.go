package netrun

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire protocol of the process transport's TCP plane (DESIGN.md §9). Every
// message is a length-prefixed little-endian frame on a TCP stream:
//
//	u32 length   of the payload that follows
//	payload      request or reply, below
//
// Each rank pair uses one stream per direction: rank A's requests to rank B
// travel on the connection A dialed to B's data listener, and the replies
// return on it. A connection opens with one opHello naming the dialing rank
// (no reply); after it a requester sends exactly one kind of request, the
// session frame, a list of operations:
//
//	u8  opBatch
//	i64 clock    the sender's published virtual clock (pacing piggyback)
//	u64 sid      session identity, encoding the requester's rank
//	u64 seq      per-owner sequence number of this frame, from 1
//	u64 ack      highest seq whose reply the requester has processed
//	u32 n        entries that follow
//	n × (u32 len, u8 opcode, fields)    the opcode table below
//
// and the owner answers each frame, in order, with one reply:
//
//	u8  stOK, u32 m, m × (u32 len, u8 status, fields)
//	u8  stFault, kind u8, rank u32, message     the frame itself was refused
//
// The owner applies a frame's entries in list order and stops at the first
// that faults, whose fault is then the last sub-reply (m ≤ n). Each write
// entry rings the owner's doorbell in its own port release, as an inline
// write does. Replies match frames by order — the stream needs no tags — and
// TCP's in-order delivery makes the owner apply A's operations in A's issue
// order, the property the put-then-flag ordering contract rides on. The
// requester keeps a bounded window of frames in flight; frames are retained
// until acked and replayed byte-identically on a fresh connection after a
// reset, and the owner's reply cache answers the ones it had applied, so
// every entry executes exactly once (session.go).
//
// The frame layout is versioned with the control lines: rankio.ProtoVersion
// gates the JOIN handshake, and any frame change bumps it.

// maxFrame bounds a frame against stream corruption: the largest legitimate
// payload is a bulk put of a whole region, and regions are arena-scale (MBs),
// not GBs.
const maxFrame = 1 << 28

// Opcodes: opHello and opBatch lead a payload, the rest are list entries. A
// fire-class entry's sub-reply is its completion time alone, which the
// requester lands in a sink when the reply drains; a value-class entry's
// carries data its issuer is blocked on, so the requester makes it the last
// entry of its frame and drains up to it; the control ops are value-class
// entries that touch no region.
const (
	opHello    uint8 = iota + 1 // rank u32 (once per connection; no reply)
	opPut                       // fire: key u32, off u64, arrival i64, xfer i64, reserve u8, bytes -> comp i64
	opGet                       // value: key u32, off u64, n u64, clockIn i64, tail i64, xfer i64, reserve u8 -> comp i64, n bytes
	_                           // 4 was the word store (now a one-word opPut): unassigned
	_                           // 5 was the word load (now a one-word opGet): unassigned
	opAmo                       // value: key u32, off u64, aop u8, fetch u8, swap u64, clockIn i64, srcFree i64, lat i64, xfer i64, reserve u8, words -> land i64, base i64, free i64, the prior words if fetch
	_                           // 7 was the chained AMO (now a non-fetching opAmo): unassigned
	opNotify                    // value: key u32, off u64, word u64, arrival i64, xfer i64, reserve u8 -> comp i64
	opRegQuery                  // control: key u32 -> state u8, size u64
	opDoorGen                   // control: - -> gen u64
	opDoorWait                  // control: gen u64 (the owner's door sets the slice) -> gen u64
	opDoorRing                  // control: - -> gen u64, after a ring from outside any write
	opClock                     // control: - -> the owner's published clock i64
	_                           // 14 was the pre-window re-attach handshake: unassigned, refused like any unknown opcode
	opBatch                     // the session frame (layout above)
)

// listed reports whether op may be an entry of a frame's list: every
// operation, and nothing else — not opHello, not opBatch (frames do not
// nest), not an unassigned number.
func listed(op uint8) bool {
	switch op {
	case opPut, opGet, opAmo, opNotify, opRegQuery, opDoorGen, opDoorWait, opDoorRing, opClock:
		return true
	}
	return false
}

// Typed frame parse errors. parseBatch must reject malformed frames with
// one of these (wrapped with position detail) and never panic or silently
// truncate: frames cross a process trust boundary, and the owner turns the
// error into a structured fault reply for the requester.
var (
	ErrBatchHeader   = errors.New("netrun: batch frame truncated before its op count")
	ErrBatchCount    = errors.New("netrun: batch op count exceeds its frame")
	ErrBatchOpLen    = errors.New("netrun: batch sub-op length overruns its frame")
	ErrBatchOpEmpty  = errors.New("netrun: batch sub-op has no opcode")
	ErrBatchOpCode   = errors.New("netrun: batch sub-op opcode is not an operation")
	ErrBatchTrailing = errors.New("netrun: trailing bytes after the last batch sub-op")
)

// parseBatch splits a frame's list — everything after the session header —
// into its per-entry sub-frames (each op byte + op fields). Pure and total:
// any malformed input yields a typed error, never a panic.
func parseBatch(p []byte) (subs [][]byte, err error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w (%d bytes)", ErrBatchHeader, len(p))
	}
	n := int(binary.LittleEndian.Uint32(p[:4]))
	p = p[4:]
	// Each sub-op needs at least its length prefix and opcode, which bounds
	// a sane count by the bytes actually present.
	if n < 0 || n > len(p)/5 {
		return nil, fmt.Errorf("%w (%d ops in %d bytes)", ErrBatchCount, n, len(p))
	}
	subs = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		k := int(binary.LittleEndian.Uint32(p[:4]))
		if k < 0 || k > len(p)-4 {
			return nil, fmt.Errorf("%w (op %d claims %d of %d bytes)", ErrBatchOpLen, i, k, len(p)-4)
		}
		sub := p[4 : 4+k]
		if len(sub) == 0 {
			return nil, fmt.Errorf("%w (op %d)", ErrBatchOpEmpty, i)
		}
		if !listed(sub[0]) {
			return nil, fmt.Errorf("%w (op %d has opcode %d)", ErrBatchOpCode, i, sub[0])
		}
		subs = append(subs, sub)
		p = p[4+k:]
		if i < n-1 && len(p) < 4 {
			return nil, fmt.Errorf("%w (op %d)", ErrBatchOpLen, i+1)
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w (%d bytes)", ErrBatchTrailing, len(p))
	}
	return subs, nil
}

// Reply status bytes.
const (
	stOK    uint8 = 0
	stFault uint8 = 1 // payload: kind u8, rank u32, message bytes (see faultKind)
)

// Fault kinds: the typed classification of an owner-reported fault, so the
// requester re-panics a value that composes with the abort machinery instead
// of a bare string.
const (
	faultGeneric    uint8 = 0 // program fault at the owner: *RemoteFault
	faultAborted    uint8 = 1 // owner was unwinding a world abort: ErrAborted
	faultPeerFailed uint8 = 2 // owner blamed a dead rank: *simnet.ErrPeerFailed
)

// Region-query states (opRegQuery replies).
const (
	regLive uint8 = 1
	regDead uint8 = 2
)

// enc is an append-style frame builder. The first 4 bytes are reserved for
// the length prefix, patched by finish.
type enc struct{ b []byte }

func newEnc(scratch []byte) enc { return enc{append(scratch[:0], 0, 0, 0, 0)} }
func (e *enc) u8(v uint8)       { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)     { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)     { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)      { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }
func (e *enc) bytes(p []byte)   { e.b = append(e.b, p...) }
func (e *enc) boolByte(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) finish() []byte {
	binary.LittleEndian.PutUint32(e.b[:4], uint32(len(e.b)-4))
	return e.b
}

// dec is a cursor over a received frame payload; out-of-bounds reads mark
// the decoder bad instead of panicking mid-handler.
type dec struct {
	b   []byte
	pos int
	bad bool
}

func (d *dec) n(k int) []byte {
	if d.pos+k > len(d.b) {
		d.bad = true
		// Zeros for the fixed-width readers to index; a longer run (a
		// length field gone wrong) gets nothing, not an allocation its size.
		return make([]byte, min(k, 8))
	}
	p := d.b[d.pos : d.pos+k]
	d.pos += k
	return p
}

// must panics if any read overran the frame. Handlers call it after
// decoding every field and before executing: a truncated request must fault
// before any owner state mutates (zero-filled fields would otherwise write
// real bytes and stamps).
func (d *dec) must() {
	if d.bad {
		panic("netrun: truncated request frame")
	}
}

func (d *dec) u8() uint8     { return d.n(1)[0] }
func (d *dec) u32() uint32   { return binary.LittleEndian.Uint32(d.n(4)) }
func (d *dec) u64() uint64   { return binary.LittleEndian.Uint64(d.n(8)) }
func (d *dec) i64() int64    { return int64(d.u64()) }
func (d *dec) boolVal() bool { return d.u8() != 0 }
func (d *dec) rest() []byte  { p := d.b[d.pos:]; d.pos = len(d.b); return p }

// readFrame reads one length-prefixed frame into buf (grown as needed) and
// returns the payload slice. The length is peeked in the reader's own
// buffer: a header array would escape through io.ReadFull, one allocation a
// frame.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	r.Discard(4)
	if n > maxFrame {
		return nil, fmt.Errorf("netrun: frame of %d bytes exceeds limit (corrupt stream?)", n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
