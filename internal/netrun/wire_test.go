package netrun

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	e := newEnc(nil)
	e.u8(opPut)
	e.i64(-42)
	e.u32(7)
	e.u64(1 << 40)
	e.boolByte(true)
	e.bytes([]byte("payload"))
	frame := e.finish()

	rd := bufio.NewReader(bytes.NewReader(frame))
	payload, err := readFrame(rd, nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	d := dec{b: payload}
	if op := d.u8(); op != opPut {
		t.Errorf("op = %d, want %d", op, opPut)
	}
	if v := d.i64(); v != -42 {
		t.Errorf("i64 = %d, want -42", v)
	}
	if v := d.u32(); v != 7 {
		t.Errorf("u32 = %d, want 7", v)
	}
	if v := d.u64(); v != 1<<40 {
		t.Errorf("u64 = %d, want %d", v, uint64(1)<<40)
	}
	if !d.boolVal() {
		t.Errorf("bool = false, want true")
	}
	if got := string(d.rest()); got != "payload" {
		t.Errorf("rest = %q, want %q", got, "payload")
	}
	if d.bad {
		t.Errorf("decoder marked bad on a well-formed frame")
	}
}

func TestDecTruncation(t *testing.T) {
	d := dec{b: []byte{1, 2}}
	_ = d.u64()
	if !d.bad {
		t.Errorf("reading 8 bytes from a 2-byte frame did not mark the decoder bad")
	}
}

func TestReadFrameLimit(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
	rd := bufio.NewReader(bytes.NewReader(hdr[:]))
	if _, err := readFrame(rd, nil); err == nil {
		t.Fatalf("oversized frame length accepted")
	}
}

// buildBatch assembles a frame's list the way flush does: the entry count,
// and each entry length-prefixed.
func buildBatch(subs ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(subs)))
	for _, s := range subs {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return b
}

func TestParseBatchRoundTrip(t *testing.T) {
	sub1 := append([]byte{opPut}, bytes.Repeat([]byte{7}, 29)...)
	sub2 := append([]byte{opAmo}, bytes.Repeat([]byte{9}, 37)...)
	sub3 := []byte{opGet}
	in := buildBatch(sub1, sub2, sub3)
	subs, err := parseBatch(in)
	if err != nil {
		t.Fatalf("parseBatch: %v", err)
	}
	if len(subs) != 3 ||
		!bytes.Equal(subs[0], sub1) || !bytes.Equal(subs[1], sub2) || !bytes.Equal(subs[2], sub3) {
		t.Fatalf("parsed %d subs, want the three sub-ops back verbatim", len(subs))
	}
	if subs, err := parseBatch(buildBatch()); err != nil || len(subs) != 0 {
		t.Fatalf("empty batch: subs=%d err=%v, want a valid zero-op frame", len(subs), err)
	}
}

// TestParseBatchErrors pins the typed-error contract: every malformed shape
// yields its sentinel (wrapped with position detail), never a panic and
// never a silently truncated parse.
func TestParseBatchErrors(t *testing.T) {
	sub := append([]byte{opPut}, 1, 2, 3)
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrBatchHeader},
		{"short header", []byte{1, 0, 0}, ErrBatchHeader},
		{"count exceeds frame", []byte{1, 0, 0, 0}, ErrBatchCount}, // one op, no payload bytes behind it
		{"huge count", []byte{0xff, 0xff, 0xff, 0xff}, ErrBatchCount},
		{"sub-op length overrun", func() []byte {
			b := buildBatch(sub)
			binary.LittleEndian.PutUint32(b[4:], 1000)
			return b
		}(), ErrBatchOpLen},
		{"empty sub-op", buildBatch(sub, []byte{}), ErrBatchOpEmpty},
		{"hello in a list", buildBatch([]byte{opHello, 1, 2}), ErrBatchOpCode},
		{"nested batch", buildBatch([]byte{opBatch, 0}), ErrBatchOpCode},
		{"trailing bytes", append(buildBatch(sub), 0xaa), ErrBatchTrailing},
	}
	for _, c := range cases {
		_, err := parseBatch(c.in)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: parseBatch(%x) = %v, want %v", c.name, c.in, err, c.want)
		}
	}
}

// FuzzParseBatch holds parseBatch total over arbitrary frames: no panic, no
// silent truncation (a successful parse must re-encode to the exact input),
// and every rejection is one of the typed sentinels.
func FuzzParseBatch(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(buildBatch())
	f.Add(buildBatch(append([]byte{opPut}, bytes.Repeat([]byte{3}, 29)...)))
	f.Add(buildBatch([]byte{opNotify, 1}, []byte{opAmo, 2, 3}))
	f.Add(buildBatch([]byte{opDoorRing}, []byte{opDoorGen}))
	// A fetching opAmo, a non-fetching one, and one whose operand is not
	// whole words.
	fetching := append([]byte{opAmo}, fetchAddFields()...)
	plain := slices.Clone(fetching)
	plain[14] = 0 // the fetch flag, behind opcode, key, off and op
	f.Add(buildBatch(fetching, plain, append(slices.Clone(plain), 1, 2, 3, 4)))
	// The retired word store, word load and chained AMO.
	for _, retired := range []byte{4, 5, 7} {
		f.Add(buildBatch(fetching, append([]byte{retired}, fetchAddFields()...)))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		subs, err := parseBatch(in)
		if err != nil {
			for _, want := range []error{ErrBatchHeader, ErrBatchCount, ErrBatchOpLen,
				ErrBatchOpEmpty, ErrBatchOpCode, ErrBatchTrailing} {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("parseBatch(%x) rejected with an untyped error: %v", in, err)
		}
		for i, s := range subs {
			if len(s) == 0 || !listed(s[0]) {
				t.Fatalf("parseBatch(%x) accepted invalid sub-op %d: %x", in, i, s)
			}
		}
		if out := buildBatch(subs...); !bytes.Equal(out, in) {
			t.Fatalf("parseBatch(%x) re-encodes to %x: silent truncation or reordering", in, out)
		}
	})
}

// TestEncScratchReuse pins the zero-allocation reuse contract request paths
// rely on: building into recycled scratch must not grow for same-size frames.
func TestEncScratchReuse(t *testing.T) {
	e := newEnc(nil)
	e.u8(opClock)
	e.i64(1)
	first := e.finish()
	e2 := newEnc(first[:0])
	e2.u8(opClock)
	e2.i64(2)
	second := e2.finish()
	if &first[0] != &second[0] {
		t.Errorf("same-size rebuild reallocated the scratch buffer")
	}
}
