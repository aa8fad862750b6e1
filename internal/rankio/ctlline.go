package rankio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The control plane's wire format (DESIGN.md "Control plane"): newline-
// terminated lines of single-space-separated fields, a verb first. This file
// is the only place a control line is formatted or parsed. The parser is
// total and strict — it accepts exactly what formatLine emits, so
// formatLine(parseLine(x)) == x for every accepted x — and a line is at most
// maxLine bytes, which is as far as a reader's buffer grows.

// ProtoVersion gates the JOIN handshake for the control lines and netrun's
// data frames alike; bump on any change to either. JOIN leads with it, so a
// later version is free to lay the rest of the line out differently.
const ProtoVersion = 13

// maxLine bounds a control line, newline included. The longest legitimate
// line is a STATS snapshot (tens of KiB with a full event tail).
const maxLine = 64 << 10

type lineKind uint8

const (
	lnJoin     lineKind = iota + 1 // worker: its backend, claimed rank, data address, host key, world shape
	lnWorld                        // coordinator: assigned rank, address catalog, host catalog
	lnReady                        // worker: setup registrations are addressable
	lnGo                           // coordinator: every rank is READY
	lnDone                         // worker: clean completion
	lnFail                         // worker: failure, with its message
	lnAbort                        // coordinator: tear the world down
	lnRankFail                     // coordinator: the verdict — which rank's failure killed the world
	lnPing                         // coordinator: liveness probe
	lnPong                         // worker: probe answer
	lnStats                        // worker: its telemetry so far, before DONE/FAIL and on DUMP
	lnBye                          // coordinator: every rank is DONE
	lnDump                         // coordinator: answer with a STATS line now and dump goroutines to stderr
)

// lineTable is the grammar: a verb and its field codes — v version,
// b backend, r rank, a address, h host, n ranks, p ranks per node, w pace
// window, A address catalog, H host catalog, t free text to the end of the
// line (optional).
var lineTable = [...]struct{ verb, fields string }{
	lnJoin:     {"JOIN", "vbrahnpw"},
	lnWorld:    {"WORLD", "rAH"},
	lnReady:    {"READY", "r"},
	lnGo:       {"GO", ""},
	lnDone:     {"DONE", "r"},
	lnFail:     {"FAIL", "rt"},
	lnAbort:    {"ABORT", ""},
	lnRankFail: {"RANKFAIL", "rt"},
	lnPing:     {"PING", ""},
	lnPong:     {"PONG", "r"},
	lnStats:    {"STATS", "t"},
	lnBye:      {"BYE", ""},
	lnDump:     {"DUMP", ""},
}

// ctlLine is one control line; a kind uses the fields its lineTable row
// names and leaves the rest zero.
type ctlLine struct {
	kind         lineKind
	backend      string
	rank         int // -1: unassigned (JOIN)
	addr, host   string
	ranks, rpn   int
	pace         int64
	addrs, hosts []string
	text         string
}

// Named parse failures; each is wrapped with the offending detail.
var (
	ErrLineTooLong  = errors.New("rankio: control line exceeds the length bound")
	ErrLineVerb     = errors.New("rankio: unknown control verb")
	ErrLineFields   = errors.New("rankio: control line has the wrong fields for its verb")
	ErrLineToken    = errors.New("rankio: empty or separator-bearing token on a control line")
	ErrProtoVersion = errors.New("rankio: control protocol version mismatch (mixed binaries?)")
)

// token reports whether s may stand as one catalog entry: non-empty, and free
// of the field separator, the catalog separator and control bytes.
func token(s string) bool   { return s != "" && strings.IndexFunc(s, separator) < 0 }
func separator(r rune) bool { return r <= ' ' || r == ',' || r == 0x7f }

// canonInt parses a decimal the way strconv formats one: anything else
// ("+1", "01", "1e3") is rejected, so accepted lines re-format identically.
func canonInt(s string, lo, hi int64) (int64, bool) {
	v, err := strconv.ParseInt(s, 10, 64)
	return v, err == nil && v >= lo && v <= hi && strconv.FormatInt(v, 10) == s
}

// parseLine parses one line (without its newline). On failure the returned
// line still carries the kind when the verb was recognised, so a caller can
// tell a malformed JOIN from a stray connection's noise.
func parseLine(b []byte) (l ctlLine, err error) {
	if len(b) >= maxLine {
		return l, fmt.Errorf("%w (%d bytes)", ErrLineTooLong, len(b))
	}
	s := string(b)
	if strings.ContainsAny(s, "\r\n") {
		return l, fmt.Errorf("%w (line break inside a line)", ErrLineFields)
	}
	verb, rest, more := strings.Cut(s, " ")
	for k := 1; k < len(lineTable); k++ {
		if lineTable[k].verb == verb {
			l.kind = lineKind(k)
		}
	}
	if l.kind == 0 {
		return l, fmt.Errorf("%w (%.16q)", ErrLineVerb, verb)
	}
	for _, f := range []byte(lineTable[l.kind].fields) {
		var tok string
		ok, why := more, ErrLineFields
		if f == 't' {
			// Optional, but a separator must be followed by something.
			l.text, ok = rest, !more || rest != ""
			rest, more = "", false
		} else if more {
			tok, rest, more = strings.Cut(rest, " ")
		}
		num := func(lo int64) int {
			v, isNum := canonInt(tok, lo, math.MaxInt32)
			ok = ok && isNum
			return int(v)
		}
		names := func(sep string) []string {
			why = ErrLineToken
			list := strings.Split(tok, sep)
			for _, e := range list {
				ok = ok && token(e)
			}
			return list
		}
		switch f {
		case 'v':
			// Checked before anything else is parsed: another version's JOIN
			// may lay its remaining fields out differently.
			if num(ProtoVersion) != ProtoVersion || !ok {
				return ctlLine{kind: l.kind}, fmt.Errorf("%w: JOIN leads with %.16q, this side speaks %d", ErrProtoVersion, tok, ProtoVersion)
			}
		case 'r':
			l.rank = num(-1)
		case 'n':
			l.ranks = num(1)
		case 'p':
			l.rpn = num(1)
		case 'w':
			var isNum bool
			l.pace, isNum = canonInt(tok, math.MinInt64, math.MaxInt64)
			ok = ok && isNum
		case 'b':
			l.backend = names(" ")[0]
		case 'a':
			l.addr = names(" ")[0]
		case 'h':
			l.host = names(" ")[0]
		case 'A':
			l.addrs = names(",")
		case 'H':
			l.hosts = names(",")
		}
		if !ok {
			return ctlLine{kind: l.kind}, fmt.Errorf("%w (%s field %q = %.64q)", why, verb, f, tok)
		}
	}
	if more {
		return ctlLine{kind: l.kind}, fmt.Errorf("%w (%s carries extra %.64q)", ErrLineFields, verb, rest)
	}
	return l, nil
}

var oneLine = strings.NewReplacer("\n", " ", "\r", " ")

// formatLine renders l with its newline. Free text is flattened to one line
// and cut to the bound; tokens are the caller's to have validated, and
// parseLine at the receiver checks them.
func formatLine(l ctlLine) []byte {
	row := lineTable[l.kind]
	b := append(make([]byte, 0, 64+len(l.text)), row.verb...)
	for _, f := range []byte(row.fields) {
		var s string
		switch f {
		case 'v':
			s = strconv.Itoa(ProtoVersion)
		case 'b':
			s = l.backend
		case 'r':
			s = strconv.Itoa(l.rank)
		case 'a':
			s = l.addr
		case 'h':
			s = l.host
		case 'n':
			s = strconv.Itoa(l.ranks)
		case 'p':
			s = strconv.Itoa(l.rpn)
		case 'w':
			s = strconv.FormatInt(l.pace, 10)
		case 'A':
			s = strings.Join(l.addrs, ",")
		case 'H':
			s = strings.Join(l.hosts, ",")
		case 't':
			if s = l.text; s == "" {
				continue
			}
			s = oneLine.Replace(s[:min(len(s), maxLine-2-len(b))])
		}
		b = append(append(b, ' '), s...)
	}
	return append(b, '\n')
}

// newLineReader reads control lines from r through a buffer that grows with
// the lines it meets, up to the bound and no further.
func newLineReader(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	return sc
}

// readLine reads and parses the next control line.
func readLine(sc *bufio.Scanner) (ctlLine, error) {
	if sc.Scan() {
		return parseLine(sc.Bytes())
	}
	return ctlLine{}, scanErr(sc)
}

// scanErr is why sc stopped: io.EOF at the stream's clean end,
// ErrLineTooLong past the bound, else the read's error.
func scanErr(sc *bufio.Scanner) error {
	switch err := sc.Err(); {
	case err == nil:
		return io.EOF
	case errors.Is(err, bufio.ErrTooLong):
		return fmt.Errorf("%w (no newline in %d bytes)", ErrLineTooLong, maxLine)
	default:
		return err
	}
}
