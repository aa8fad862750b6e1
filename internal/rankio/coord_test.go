package rankio

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fompi/internal/simnet"
	"fompi/internal/sock"
	"fompi/internal/telemetry"
)

const testTimeouts = "heartbeat=50ms,stale=400ms"

var netWorld = Options{Backend: "net", Ranks: 2, RanksPerNode: 1, Hosts: []string{"localhost"}}

// hostListWorld starts a coordinator in host-list mode (it spawns nothing)
// on a fresh listener and returns how to reach it and where its verdict lands.
func hostListWorld(t *testing.T, network string, o Options, onReady func()) (addr string, result <-chan error) {
	t.Helper()
	t.Setenv(EnvTimeouts, testTimeouts)
	t.Setenv(EnvHost, "here")
	at := "127.0.0.1:0"
	if network == "unix" {
		at = filepath.Join(t.TempDir(), "ctl")
	}
	ln, err := sock.Listen(network, at)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan error, 1)
	go func() { done <- Coordinate(ln, o, onReady) }()
	return ln.Addr(), done
}

func dial(t *testing.T, network, addr string) sock.Conn {
	t.Helper()
	c, err := sock.Dial(network, addr, time.Second)
	if err != nil {
		t.Fatalf("dial coordinator: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func verdict(t *testing.T, result <-chan error) error {
	t.Helper()
	select {
	case err := <-result:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("coordinator never returned")
		return nil
	}
}

// TestJoinTimeout exercises the rendezvous deadline: a 2-rank world in
// host-list mode where only one worker ever shows up must fail with a typed
// *ErrJoinTimeout naming the absent rank, instead of hanging for the full
// bootstrap window.
func TestJoinTimeout(t *testing.T) {
	o := netWorld
	o.JoinTimeout = time.Second
	addr, result := hostListWorld(t, "tcp", o, nil)
	// The one worker that does appear, rankless: join order gives it rank 0.
	// Its World blocks on the broadcast and fails when the coordinator gives up.
	cl, err := Join(dial(t, "tcp", addr), netWorld, -1, "127.0.0.1:1")
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	var jt *ErrJoinTimeout
	if err := verdict(t, result); !errors.As(err, &jt) {
		t.Fatalf("Coordinate error %v (%T), want *ErrJoinTimeout", err, err)
	}
	if jt.Joined != 1 || jt.Ranks != 2 {
		t.Fatalf("ErrJoinTimeout counted %d of %d joined, want 1 of 2", jt.Joined, jt.Ranks)
	}
	if len(jt.Missing) != 1 || jt.Missing[0] != 1 {
		t.Fatalf("ErrJoinTimeout.Missing = %v, want [1]", jt.Missing)
	}
	if err := cl.World(); err == nil {
		t.Fatalf("the lone worker got a catalog from a world that never assembled")
	}
}

// TestCoordinatorRefusesBadJoins: a JOIN the coordinator cannot admit ends the
// launch with a named error — never a malformed catalog, never a hang —
// while connections that are not workers at all are ignored.
func TestCoordinatorRefusesBadJoins(t *testing.T) {
	for name, c := range map[string]struct {
		backend, addr string // a JOIN through the client, or
		raw           string // bytes on the wire
		want          error
	}{
		"backend mismatch":   {backend: "hybrid", addr: "127.0.0.1:1", want: ErrBackendMismatch},
		"comma-bearing addr": {backend: "net", addr: "10.0.0.1:7,10.0.0.2:7", want: ErrLineToken},
		"v5 worker":          {raw: "JOIN 0 127.0.0.1:4000 2 1 0 5 host0\n", want: ErrProtoVersion},
		"v8 worker":          {raw: "JOIN 8 net 0 127.0.0.1:4000 here 2 1 0\n", want: ErrProtoVersion},
		"over-long line":     {raw: "JOIN " + strings.Repeat("9", maxLine), want: ErrLineTooLong},
	} {
		t.Run(name, func(t *testing.T) {
			addr, result := hostListWorld(t, "tcp", netWorld, nil)
			dial(t, "tcp", addr).Close()                                 // a liveness probe
			dial(t, "tcp", addr).Write([]byte("GET / HTTP/1.1\r\n\r\n")) // a stray client
			conn := dial(t, "tcp", addr)
			if c.raw == "" {
				o := netWorld
				o.Backend = c.backend
				if _, err := Join(conn, o, 0, c.addr); err != nil {
					t.Fatalf("send JOIN: %v", err)
				}
			} else {
				go conn.Write([]byte(c.raw)) // the coordinator stops reading at the bound
			}
			if err := verdict(t, result); !errors.Is(err, c.want) {
				t.Fatalf("Coordinate returned %v, want %v", err, c.want)
			}
		})
	}
}

// rank is one in-process worker of a test world over network.
func rank(t *testing.T, network, addr string, r int) *Client {
	t.Helper()
	cl, err := Join(dial(t, network, addr), netWorld, r, "mem")
	if err != nil {
		t.Fatalf("rank %d join: %v", r, err)
	}
	return cl
}

// enter takes ranks through the catalog and the barrier together (GO needs
// every rank's READY).
func enter(t *testing.T, ranks ...*Client) {
	t.Helper()
	errs := make(chan error, len(ranks))
	for _, cl := range ranks {
		go func() {
			err := cl.World()
			if err == nil && cl.Hosts()[1] != "here" {
				err = fmt.Errorf("catalog hosts %v", cl.Hosts())
			}
			if err == nil {
				err = cl.Ready()
			}
			errs <- err
		}()
	}
	for range ranks {
		if err := <-errs; err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
	}
}

// TestCleanWorldOverUnixSocket runs the whole conversation over the socket
// kind mprun uses: the ready hook's contract, several heartbeats, DONE and BYE.
func TestCleanWorldOverUnixSocket(t *testing.T) {
	var ready atomic.Int32
	addr, result := hostListWorld(t, "unix", netWorld, func() { ready.Add(1) })
	a, b := rank(t, "unix", addr, 0), rank(t, "unix", addr, 1)
	enter(t, a, b)
	if ready.Load() != 1 {
		t.Fatalf("OnReady ran %d times before GO, want once", ready.Load())
	}
	time.Sleep(150 * time.Millisecond) // three PINGs, answered by both watchers
	finished := make(chan struct{})
	go func() { a.Finish(); close(finished) }()
	select {
	case <-finished:
		t.Fatal("a finished rank was released before every rank was DONE")
	case <-time.After(100 * time.Millisecond):
	}
	b.Finish()
	<-finished
	if err := verdict(t, result); err != nil {
		t.Fatalf("clean world: %v", err)
	}
	if a.Aborted() || b.Aborted() {
		t.Fatalf("clean world ran an abort (clients %v, %v)", a.Aborted(), b.Aborted())
	}
}

// TestVerdictReachesHookAndSurvivor: a rank's FAIL names it in the *RankError
// and, through the control stream alone, in the survivor's abort hook and
// abort state: RANKFAIL precedes ABORT, so the hook already sees the culprit.
func TestVerdictReachesHookAndSurvivor(t *testing.T) {
	addr, result := hostListWorld(t, "unix", netWorld, nil)
	a, b := rank(t, "unix", addr, 0), rank(t, "unix", addr, 1)
	enter(t, a, b)
	hooked := make(chan int, 1)
	a.OnAbort(func() { hooked <- a.FailedRank() })
	b.Fail("rank 1 panicked: boom")
	select {
	case r := <-hooked:
		var pf *simnet.ErrPeerFailed
		if r != 1 || !errors.As(a.AbortErr(), &pf) || pf.Rank != 1 {
			t.Fatalf("survivor's hook saw culprit %d, abort error %v; want rank 1 in both", r, a.AbortErr())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the survivor never observed the abort")
	}
	a.Fail(PeerAbortMsg) // the symptom must not displace the cause
	var re *RankError
	if err := verdict(t, result); !errors.As(err, &re) || re.Rank != 1 || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Coordinate returned %v, want a *RankError blaming rank 1 with its message", err)
	}
}

// TestStaleHeartbeatNamesTheRank: a rank that is connected but answers no
// PING — stopped, wedged, partitioned — is declared dead by name.
func TestStaleHeartbeatNamesTheRank(t *testing.T) {
	addr, result := hostListWorld(t, "unix", netWorld, nil)
	a := rank(t, "unix", addr, 0)
	// Rank 1 speaks the handshake by hand and then goes silent; it closes
	// its stream only once told to abort, as a killed process would.
	mute := dial(t, "unix", addr)
	mute.Write(formatLine(ctlLine{kind: lnJoin, backend: "net", rank: 1, addr: "mem", host: "here", ranks: 2, rpn: 1}))
	rd := newLineReader(mute)
	if l, err := readLine(rd); err != nil || l.kind != lnWorld {
		t.Fatalf("mute rank's catalog: %+v %v", l, err)
	}
	mute.Write(formatLine(ctlLine{kind: lnReady, rank: 1}))
	enter(t, a)
	go func() {
		for {
			if l, err := readLine(rd); err != nil || l.kind == lnAbort {
				mute.Close()
				return
			}
		}
	}()
	select {
	case <-a.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the live rank never heard the verdict")
	}
	if a.FailedRank() != 1 {
		t.Fatalf("verdict blamed %d, want the silent rank 1", a.FailedRank())
	}
	a.Fail(PeerAbortMsg)
	var re *RankError
	if err := verdict(t, result); !errors.As(err, &re) || re.Rank != 1 || !strings.Contains(err.Error(), "no heartbeat") {
		t.Fatalf("Coordinate returned %v, want a *RankError naming rank 1's missing heartbeat", err)
	}
}

// TestDumpOnSIGQUIT: a SIGQUIT to the launcher travels the control plane as
// DUMP on every rank's stream — the rank speaking the protocol by hand reads
// it before its second PING — and a real Client answers with a STATS line
// whose snapshot names its rank, which the coordinator prints tagged with it.
func TestDumpOnSIGQUIT(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w // the coordinator's and the Client's writes, from here on
	logged := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(r)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if _, line, ok := strings.Cut(sc.Text(), "rank 0 stats "); ok {
				select {
				case logged <- line:
				default:
				}
			}
		}
		r.Close()
	}()
	t.Cleanup(func() { os.Stderr = saved; w.Close() })

	addr, result := hostListWorld(t, "unix", netWorld, nil)
	a := rank(t, "unix", addr, 0)
	hand := dial(t, "unix", addr)
	hand.Write(formatLine(ctlLine{kind: lnJoin, backend: "net", rank: 1, addr: "mem", host: "here", ranks: 2, rpn: 1}))
	rd := newLineReader(hand)
	if l, err := readLine(rd); err != nil || l.kind != lnWorld {
		t.Fatalf("hand rank's catalog: %+v %v", l, err)
	}
	hand.Write(formatLine(ctlLine{kind: lnReady, rank: 1}))
	enter(t, a)
	if l, err := readLine(rd); err != nil || l.kind != lnGo {
		t.Fatalf("hand rank's GO: %+v %v", l, err)
	}
	syscall.Kill(os.Getpid(), syscall.SIGQUIT)
	for pings := 0; ; {
		l, err := readLine(rd)
		if err != nil {
			t.Fatalf("hand rank's stream before DUMP: %v", err)
		}
		if l.kind == lnDump {
			break
		}
		if l.kind == lnPing {
			if pings++; pings == 2 {
				t.Fatal("a second PING arrived before the DUMP")
			}
			hand.Write(formatLine(ctlLine{kind: lnPong, rank: 1}))
		}
	}
	hand.Write(formatLine(ctlLine{kind: lnDone, rank: 1}))
	go func() { // until BYE, as a finished rank does
		for l, err := readLine(rd); err == nil && l.kind != lnBye; l, err = readLine(rd) {
		}
		hand.Close()
	}()
	select {
	case line := <-logged:
		snap, err := telemetry.ParseSnapshot([]byte(line))
		if err != nil || snap.Rank != 0 {
			t.Fatalf("rank 0's DUMP answer %q (%v), want a snapshot of rank 0", line, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the coordinator printed no STATS line from rank 0 after the DUMP")
	}
	a.Finish()
	if err := verdict(t, result); err != nil {
		t.Fatalf("a world that was dumped did not end cleanly: %v", err)
	}
}
