package faultnet

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"fompi/internal/sock"
)

func TestParse(t *testing.T) {
	c, err := Parse("seed=7, delayp=0.25, delaymax=3ms, partialp=0.5, dialfailn=2, resetafter=400, dropafter=500, log=/tmp/x.log")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := Config{Seed: 7, DelayProb: 0.25, DelayMax: 3 * time.Millisecond,
		PartialProb: 0.5, DialFailN: 2, ResetAfter: 400, DropAfter: 500, LogPath: "/tmp/x.log"}
	if c != want {
		t.Fatalf("Parse = %+v, want %+v", c, want)
	}
	if !c.Enabled() {
		t.Fatalf("full spec not Enabled")
	}
}

func TestParseDefaults(t *testing.T) {
	c, err := Parse("")
	if err != nil || c.Enabled() {
		t.Fatalf("empty spec: cfg %+v, err %v; want disabled, nil", c, err)
	}
	// delayp alone gets a usable delay bound and the default seed.
	c, err = Parse("delayp=0.5")
	if err != nil {
		t.Fatalf("Parse(delayp): %v", err)
	}
	if c.Seed != 1 || c.DelayMax <= 0 {
		t.Fatalf("delayp-only spec: seed %d, delaymax %v; want default seed 1 and a positive bound", c.Seed, c.DelayMax)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"frobnicate=1",    // unknown key
		"delayp",          // not key=value
		"delayp=1.5",      // probability out of range
		"dialfailn=-3",    // negative count
		"delaymax=banana", // not a duration
		"resetafter=many", // not a number
		"dropfor=2",       // dropfor without its dropeveryn period
		"plane=ctl",       // plane is all|data only
		"reseteveryn=-1",  // negative count
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a malformed spec", spec)
		}
	}
}

// TestParseRecurring pins the recurring-mode keys: reseteveryn/dropeveryn
// parse, dropfor defaults to a short window, and plane=data is recorded
// (plane=all being the no-op spelling of the default).
func TestParseRecurring(t *testing.T) {
	c, err := Parse("seed=9,reseteveryn=300,dropeveryn=50,dropfor=3,plane=data")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := Config{Seed: 9, ResetEveryN: 300, DropEveryN: 50, DropFor: 3, Plane: "data"}
	if c != want {
		t.Fatalf("Parse = %+v, want %+v", c, want)
	}
	if !c.Enabled() {
		t.Fatalf("recurring spec not Enabled")
	}
	c, err = Parse("dropeveryn=50")
	if err != nil || c.DropFor <= 0 {
		t.Fatalf("dropeveryn without dropfor: cfg %+v, err %v; want a positive default window", c, err)
	}
	c, err = Parse("plane=all,delayp=0.1")
	if err != nil || c.Plane != "" {
		t.Fatalf("plane=all: cfg %+v, err %v; want the empty (all-conns) default", c, err)
	}
}

// TestDisabledPassthrough pins the zero-cost contract: with no spec, a dial
// returns the raw connection and WrapListener returns its argument.
func TestDisabledPassthrough(t *testing.T) {
	t.Setenv(EnvVar, "")
	ln, err := sock.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	if got := WrapListener(ln); got != ln {
		t.Fatalf("WrapListener wrapped despite injection being disabled")
	}
	c, err := dialPlane("tcp", ln.Addr(), time.Second, "")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, ok := c.(*conn); ok {
		t.Fatalf("the dial wrapped the connection despite injection being disabled")
	}
}

// TestDialFailN pins the retry-fodder contract: exactly the first N dials
// per destination fail, and the N+1st succeeds.
func TestDialFailN(t *testing.T) {
	ln, err := sock.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	t.Setenv(EnvVar, "dialfailn=2")
	addr := ln.Addr()
	for i := 0; i < 2; i++ {
		if _, err := dialPlane("tcp", addr, time.Second, ""); err == nil {
			t.Fatalf("dial %d succeeded, want injected failure", i+1)
		}
	}
	c, err := dialPlane("tcp", addr, time.Second, "")
	if err != nil {
		t.Fatalf("dial 3 after dialfailn=2: %v", err)
	}
	c.Close()
}

// pipePair builds a wrapped client conn talking to a raw server conn over
// loopback TCP, with the current FOMPI_FAULTS spec applied to the client.
func pipePair(t *testing.T) (client, server sock.Conn) {
	t.Helper()
	ln, err := sock.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	done := make(chan sock.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(done)
			return
		}
		done <- c
	}()
	client, err = dialPlane("tcp", ln.Addr(), time.Second, "")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	server, ok := <-done
	if !ok {
		t.Fatalf("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestResetAfter pins the mid-stream reset: the conn works for N ops, then
// every further operation fails with the injected reset.
func TestResetAfter(t *testing.T) {
	t.Setenv(EnvVar, "resetafter=3")
	client, server := pipePair(t)
	go io.Copy(io.Discard, server)
	for i := 0; i < 3; i++ {
		if _, err := client.Write([]byte("x")); err != nil {
			t.Fatalf("write %d before the reset budget: %v", i+1, err)
		}
	}
	if _, err := client.Write([]byte("x")); err == nil || !strings.Contains(err.Error(), "reset") {
		t.Fatalf("write past resetafter: err %v, want injected reset", err)
	}
	if _, err := client.Write([]byte("x")); err == nil {
		t.Fatalf("a reset conn came back to life")
	}
}

// TestDropAfter pins the blackhole: writes past the budget report success
// but deliver nothing, while reads keep working.
func TestDropAfter(t *testing.T) {
	t.Setenv(EnvVar, "dropafter=1")
	client, server := pipePair(t)
	if n, err := client.Write([]byte("live")); err != nil || n != 4 {
		t.Fatalf("write inside the budget: n %d, err %v", n, err)
	}
	if n, err := client.Write([]byte("dead")); err != nil || n != 4 {
		t.Fatalf("blackholed write must pretend success: n %d, err %v", n, err)
	}
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	n, _ := server.Read(buf)
	if !bytes.Equal(buf[:n], []byte("live")) {
		t.Fatalf("server read %q, want only the pre-drop bytes %q", buf[:n], "live")
	}
	if n, err := server.Read(buf); err == nil {
		t.Fatalf("blackholed bytes arrived anyway: %q", buf[:n])
	}
}

// TestPartialAndDelayPreserveBytes pins that torn and delayed writes are
// faults of timing, not of content: the byte stream arrives intact.
func TestPartialAndDelayPreserveBytes(t *testing.T) {
	t.Setenv(EnvVar, "seed=3,partialp=1,delayp=1,delaymax=1ms")
	client, server := pipePair(t)
	msg := []byte("0123456789abcdef0123456789abcdef")
	go func() {
		for i := 0; i < 8; i++ {
			if _, err := client.Write(msg); err != nil {
				return
			}
		}
	}()
	server.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := make([]byte, 8*len(msg))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := 0; i < 8; i++ {
		if !bytes.Equal(got[i*len(msg):(i+1)*len(msg)], msg) {
			t.Fatalf("chunk %d corrupted by partial/delayed writes", i)
		}
	}
}

// TestDeterministicSchedule pins seed determinism: two conns created in the
// same per-process order under the same seed draw identical fault schedules.
func TestDeterministicSchedule(t *testing.T) {
	sample := func(seed string) []time.Duration {
		t.Setenv(EnvVar, "seed="+seed+",delayp=0.5,delaymax=4ms")
		inj := current()
		if inj == nil {
			t.Fatalf("injector disabled under an enabled spec")
		}
		// Reset the per-process connection counter by taking a fresh
		// injector (new spec string → new injector), then sample one conn's
		// write-fault schedule directly.
		c := inj.wrap(nopConn{}, "test", "").(*conn)
		var ds []time.Duration
		for i := 0; i < 64; i++ {
			d, _, _, _ := c.step(true)
			ds = append(ds, d)
		}
		return ds
	}
	a := sample("42")
	// Force a fresh injector (and a fresh conn counter) for the second
	// sample: the cache re-resolves only when the spec string changes.
	t.Setenv(EnvVar, "")
	Enabled()
	b := sample("42")
	if len(a) != len(b) {
		t.Fatalf("sample lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d under one seed: %v vs %v", i, a[i], b[i])
		}
	}
}

// freshInjector re-resolves the injector under spec with a clean conn
// counter and global op counter, by cycling the cache through a disabled
// spec first.
func freshInjector(t *testing.T, spec string) *injector {
	t.Helper()
	t.Setenv(EnvVar, "")
	Enabled()
	t.Setenv(EnvVar, spec)
	inj := current()
	if inj == nil {
		t.Fatalf("injector disabled under spec %q", spec)
	}
	return inj
}

// TestResetEveryNRecurs pins the recurring reset: the process-wide op
// counter, not any one conn's, trips a reset every N ops — so fresh
// connections keep getting broken, each on schedule.
func TestResetEveryNRecurs(t *testing.T) {
	inj := freshInjector(t, "reseteveryn=4")
	// First conn: ops 1..3 clean, op 4 crosses the multiple and resets.
	c := inj.wrap(nopConn{}, "a", "").(*conn)
	for i := 0; i < 3; i++ {
		if _, _, _, reset := c.step(true); reset {
			t.Fatalf("conn a reset at global op %d, want at 4", i+1)
		}
	}
	if _, _, _, reset := c.step(true); !reset {
		t.Fatalf("conn a not reset at global op 4")
	}
	// A replacement conn inherits the global counter (now 4): its ops run
	// 5..7 clean, then op 8 trips the next multiple. Recurrence, not
	// once-per-conn.
	c2 := inj.wrap(nopConn{}, "b", "").(*conn)
	for i := 0; i < 3; i++ {
		if _, _, _, reset := c2.step(true); reset {
			t.Fatalf("conn b reset at global op %d, want at 8", 5+i)
		}
	}
	if _, _, _, reset := c2.step(true); !reset {
		t.Fatalf("conn b not reset at global op 8")
	}
}

// TestDropEveryNWindow pins the periodic blackhole: every N ops on a conn
// open a window dropping the next dropfor writes, then the conn heals.
func TestDropEveryNWindow(t *testing.T) {
	inj := freshInjector(t, "dropeveryn=4,dropfor=2")
	c := inj.wrap(nopConn{}, "w", "").(*conn)
	var got []bool
	for i := 0; i < 12; i++ {
		_, _, drop, reset := c.step(true)
		if reset {
			t.Fatalf("dropeveryn tripped a reset at op %d", i+1)
		}
		got = append(got, drop)
	}
	// Ops 4,5 and 8,9 and 12 fall in windows (the op crossing the multiple
	// opens the window and is itself dropped).
	want := []bool{false, false, false, true, true, false, false, true, true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: drop=%v, want %v (schedule %v)", i+1, got[i], want[i], got)
		}
	}
}

// TestPlaneScoping pins plane=data: conn-killing modes spare control-plane
// connections entirely while data-plane conns still die on schedule.
func TestPlaneScoping(t *testing.T) {
	inj := freshInjector(t, "plane=data,resetafter=2")
	ctl := inj.wrap(nopConn{}, "ctl", "").(*conn)
	for i := 0; i < 10; i++ {
		if _, _, _, reset := ctl.step(true); reset {
			t.Fatalf("control conn reset under plane=data at op %d", i+1)
		}
	}
	data := inj.wrap(nopConn{}, "data", "data").(*conn)
	for i := 0; i < 2; i++ {
		if _, _, _, reset := data.step(true); reset {
			t.Fatalf("data conn reset inside its budget at op %d", i+1)
		}
	}
	if _, _, _, reset := data.step(true); !reset {
		t.Fatalf("data conn survived past resetafter under plane=data")
	}
}

// TestDialDataPlane pins the public wiring: DialData produces a data-plane
// conn, a control-plane dial a control one, under the same live spec.
func TestDialDataPlane(t *testing.T) {
	freshInjector(t, "plane=data,resetafter=1")
	ln, err := sock.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	ctl, err := dialPlane("tcp", ln.Addr(), time.Second, "")
	if err != nil {
		t.Fatalf("control dial: %v", err)
	}
	defer ctl.Close()
	for i := 0; i < 4; i++ {
		if _, err := ctl.Write([]byte("x")); err != nil {
			t.Fatalf("control write %d died under plane=data: %v", i+1, err)
		}
	}
	data, err := DialData("tcp", ln.Addr(), time.Second)
	if err != nil {
		t.Fatalf("DialData: %v", err)
	}
	defer data.Close()
	if _, err := data.Write([]byte("x")); err != nil {
		t.Fatalf("data write inside the budget: %v", err)
	}
	if _, err := data.Write([]byte("x")); err == nil || !strings.Contains(err.Error(), "reset") {
		t.Fatalf("data write past resetafter: err %v, want injected reset", err)
	}
}

// nopConn is a do-nothing sock.Conn for schedule sampling.
type nopConn struct{}

func (nopConn) Read(p []byte) (int, error)       { return 0, errors.New("nop") }
func (nopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }
