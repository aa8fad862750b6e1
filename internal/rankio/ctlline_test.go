package rankio

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// everyLine is one well-formed line of every kind, as formatLine renders it.
var everyLine = []ctlLine{
	{kind: lnJoin, backend: "hybrid", rank: -1, addr: "127.0.0.1:4001", host: "h0", ranks: 4, rpn: 2, pace: 20000},
	{kind: lnWorld, rank: 1, addrs: []string{"127.0.0.1:4001", "[::1]:4002"}, hosts: []string{"h0", "h0"}},
	{kind: lnReady, rank: 3},
	{kind: lnGo},
	{kind: lnDone, rank: 0},
	{kind: lnFail, rank: 2, text: "rank 2 panicked: index out of range [5] with length 3"},
	{kind: lnFail, rank: 2},
	{kind: lnAbort},
	{kind: lnRankFail, rank: 1, text: "no heartbeat for 4s"},
	{kind: lnPing},
	{kind: lnPong, rank: 7},
	{kind: lnStats, text: `{"rank":1,"ranks":1,"counters":{"door.parks":9}}`},
	{kind: lnBye},
	{kind: lnDump},
}

func TestCtlLineRoundTrip(t *testing.T) {
	for _, want := range everyLine {
		wire := formatLine(want)
		if wire[len(wire)-1] != '\n' || bytes.Count(wire, []byte("\n")) != 1 {
			t.Fatalf("%q is not exactly one line", wire)
		}
		got, err := parseLine(wire[:len(wire)-1])
		if err != nil {
			t.Fatalf("parse %q: %v", wire, err)
		}
		if again := formatLine(got); !bytes.Equal(again, wire) {
			t.Fatalf("round trip changed %q into %q", wire, again)
		}
		if got.kind != want.kind || got.rank != want.rank || got.text != want.text || got.backend != want.backend ||
			got.addr != want.addr || got.host != want.host || got.pace != want.pace ||
			strings.Join(got.addrs, ",") != strings.Join(want.addrs, ",") {
			t.Fatalf("parsed %+v from %q, want %+v", got, wire, want)
		}
	}
	// Free text is flattened, never a second line.
	wire := formatLine(ctlLine{kind: lnFail, rank: 1, text: "first\nsecond\r\nthird"})
	if string(wire) != "FAIL 1 first second  third\n" {
		t.Fatalf("multi-line message rendered %q", wire)
	}
}

func TestCtlLineRejects(t *testing.T) {
	long := "STATS " + strings.Repeat("x", maxLine)
	for _, c := range []struct {
		line string
		want error
		kind lineKind
	}{
		{long, ErrLineTooLong, 0},
		{"", ErrLineVerb, 0},
		{"HELLO 1", ErrLineVerb, 0},
		{"join 8 net 0 a h 2 1 0", ErrLineVerb, 0},
		{"JOIN 0 127.0.0.1:4000 2 1 0 5 host0", ErrProtoVersion, lnJoin},      // a v5 worker's JOIN
		{"JOIN 6 net 0 127.0.0.1:4000 host0 2 1 0", ErrProtoVersion, lnJoin},  // a v6 worker's JOIN
		{"JOIN 7 net 0 127.0.0.1:4000 host0 2 1 0", ErrProtoVersion, lnJoin},  // a v7 worker's: same line, other data frames
		{"JOIN 8 net 0 127.0.0.1:4000 host0 2 1 0", ErrProtoVersion, lnJoin},  // a v8 worker's: same line, no DUMP
		{"JOIN 9 net 0 127.0.0.1:4000 host0 2 1 0", ErrProtoVersion, lnJoin},  // a v9 worker's: same line, ABORT carries a rank
		{"JOIN 10 net 0 127.0.0.1:4000 host0 2 1 0", ErrProtoVersion, lnJoin}, // a v10 worker's: same line, other AMO op codes
		{"JOIN 11 net 0 127.0.0.1:4000 host0 2 1 0", ErrProtoVersion, lnJoin}, // a v11 worker's: same line, word stores, loads and two AMO shapes on the wire
		{"JOIN 12 net 0 127.0.0.1:4000 host0 2 1 0", ErrProtoVersion, lnJoin}, // a v12 worker's: same line, a ring byte in every data frame
		{"JOIN 13 net 0 127.0.0.1:4000,evil:1 host0 2 1 0", ErrLineToken, lnJoin},
		{"JOIN 13 net 0 127.0.0.1:4000 host,0 2 1 0", ErrLineToken, lnJoin},
		{"JOIN 13 net 0  host0 2 1 0", ErrLineToken, lnJoin},
		{"JOIN 13 net 0 127.0.0.1:4000 host0 2 1", ErrLineFields, lnJoin},
		{"JOIN 13 net 0 127.0.0.1:4000 host0 2 1 0 extra", ErrLineFields, lnJoin},
		{"JOIN 13 net 0 127.0.0.1:4000 host0 0 1 0", ErrLineFields, lnJoin}, // a world of no ranks
		{"WORLD 0 a,,b h,h,h", ErrLineToken, lnWorld},
		{"READY 01", ErrLineFields, lnReady},
		{"READY +1", ErrLineFields, lnReady},
		{"READY -2", ErrLineFields, lnReady},
		{"READY 99999999999", ErrLineFields, lnReady},
		{"READY", ErrLineFields, lnReady},
		{"GO now", ErrLineFields, lnGo},
		{"DUMP 0", ErrLineFields, lnDump},
		{"ABORT -1", ErrLineFields, lnAbort}, // only the coordinator aborts, and it names nobody
		{"FAIL 1 ", ErrLineFields, lnFail},
		{"FAIL 1 two\nlines", ErrLineFields, 0},
	} {
		l, err := parseLine([]byte(c.line))
		if !errors.Is(err, c.want) {
			t.Errorf("parse %.40q: error %v, want %v", c.line, err, c.want)
		}
		if l.kind != c.kind {
			t.Errorf("parse %.40q: kind %d survives the error, want %d", c.line, l.kind, c.kind)
		}
	}
}

// FuzzCtlLine: the parser is total — no input panics it, nothing it returns
// outgrows the line it was given, a line past the bound is refused by name —
// and strict: whatever it accepts, the formatter renders back byte for byte.
func FuzzCtlLine(f *testing.F) {
	for _, l := range everyLine {
		wire := formatLine(l)
		f.Add(wire[:len(wire)-1])
	}
	f.Add([]byte("JOIN 0 127.0.0.1:4000 2 1 0 5 host0"))              // v5
	f.Add([]byte("JOIN 13 net -1 10.0.0.1:7,10.0.0.2:7 host0 2 1 0")) // comma-bearing addr
	f.Add([]byte("STATS " + strings.Repeat(`{"a":1}`, maxLine/7+1)))  // over-long STATS
	f.Add([]byte("WORLD 0 a,b h0,h1 trailing"))
	f.Add([]byte("FAIL 3 \x00\xff binary \x7f"))
	f.Fuzz(func(t *testing.T, in []byte) {
		l, err := parseLine(in)
		if len(in) >= maxLine && !errors.Is(err, ErrLineTooLong) {
			t.Fatalf("a %d-byte line was not refused as too long: %v", len(in), err)
		}
		held := len(l.backend) + len(l.addr) + len(l.host) + len(l.text)
		for _, e := range append(l.addrs, l.hosts...) {
			held += len(e)
		}
		if held > len(in) {
			t.Fatalf("parse of %d bytes holds %d", len(in), held)
		}
		if err != nil {
			return
		}
		out := formatLine(l)
		if !bytes.Equal(out[:len(out)-1], in) || out[len(out)-1] != '\n' {
			t.Fatalf("accepted %q but formats it back as %q", in, out)
		}
	})
}
