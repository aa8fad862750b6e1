// Package faultnet is a deterministic, seedable fault-injection layer for
// the process transport's TCP sockets (netrun). It wraps the dialer and listener
// so that every connection of a world can suffer injected delays, partial
// writes, refused dials, mid-stream resets, and silent write drops — the
// failure modes a 524k-core fabric exhibits as steady state — while staying
// fully reproducible: one seed fixes the whole schedule.
//
// Faults are configured through the FOMPI_FAULTS environment variable (or
// `fompi-run -faults`, which sets it so worker processes inherit it). The
// spec is a comma-separated key=value list:
//
//	seed=7                  PRNG seed (default 1)
//	delayp=0.2              probability of an injected delay per write
//	delaymax=3ms            upper bound of each injected delay
//	partialp=0.3            probability a write is split into two segments
//	dialfailn=2             first N dials per destination fail (retry test)
//	resetafter=400          each conn is reset after N reads+writes
//	dropafter=500           each conn blackholes writes after N reads+writes
//	reseteveryn=300         recurring: a conn is reset each time the process-
//	                        wide op counter crosses a multiple of N
//	dropeveryn=200          recurring: every N ops on a conn open a short
//	                        blackhole window dropping the next `dropfor` writes
//	dropfor=2               width of each dropeveryn blackhole window (writes)
//	plane=data              scope the conn-killing modes (resetafter,
//	                        reseteveryn, dropafter, dropeveryn) to data-plane
//	                        connections, sparing the control/bootstrap streams
//	log=/path/chaos.log     append a line per injected fault (shared, O_APPEND)
//
// Zero values disable the corresponding fault; an empty/unset spec makes
// every wrapper a pass-through with no overhead on the data path.
//
// The recurring modes (reseteveryn, dropeveryn) exist to exercise *recovery*:
// a single resetafter fires once per connection, but a transport that
// transparently reconnects (netrun's session resume) then runs fault-free
// forever after. Recurring resets and periodic blackholes keep re-breaking
// the fresh connections, so one run exercises the reconnect/replay path many
// times. They are usually combined with plane=data: the coordinator's
// control stream has no resume protocol, so killing it turns a transient
// test into a teardown test.
//
// Determinism: each connection draws from its own PRNG seeded by
// (seed, per-process connection counter), and dial-failure counting is per
// destination address — so a fixed seed and a fixed connection order yield
// the same schedule. Across processes the schedule is per-process
// deterministic; the conformance suite relies on the stronger property that
// *virtual time* is invariant under any transient schedule, not on
// reproducing one global schedule.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fompi/internal/sock"
	"fompi/internal/telemetry"
)

// EnvVar is the environment variable carrying the fault spec.
const EnvVar = "FOMPI_FAULTS"

// Config is a parsed fault spec. The zero Config injects nothing.
type Config struct {
	Seed        int64         // seed= (default 1 when any fault is enabled)
	DelayProb   float64       // delayp= injected delay probability per write
	DelayMax    time.Duration // delaymax= upper bound per injected delay
	PartialProb float64       // partialp= probability a write is torn in two
	DialFailN   int           // dialfailn= first N dials per address fail
	ResetAfter  int           // resetafter= conn resets after N reads+writes
	DropAfter   int           // dropafter= conn blackholes writes after N ops
	ResetEveryN int           // reseteveryn= recurring reset per N global ops
	DropEveryN  int           // dropeveryn= per-conn periodic blackhole window
	DropFor     int           // dropfor= writes dropped per dropeveryn window
	Plane       string        // plane= "" (all conns) or "data"
	LogPath     string        // log= chaos log file (append mode)
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.DelayProb > 0 || c.PartialProb > 0 || c.DialFailN > 0 ||
		c.ResetAfter > 0 || c.DropAfter > 0 || c.ResetEveryN > 0 || c.DropEveryN > 0
}

// Parse parses a FOMPI_FAULTS spec. An empty spec is a valid, disabled
// Config. Unknown keys and malformed values are errors — a chaos run with a
// typo'd spec must fail loudly, not run fault-free and "pass".
func Parse(spec string) (Config, error) {
	var c Config
	c.Seed = 1
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("faultnet: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			c.Seed, err = strconv.ParseInt(v, 10, 64)
		case "delayp":
			c.DelayProb, err = parseProb(v)
		case "delaymax":
			c.DelayMax, err = time.ParseDuration(v)
		case "partialp":
			c.PartialProb, err = parseProb(v)
		case "dialfailn":
			c.DialFailN, err = parseCount(v)
		case "resetafter":
			c.ResetAfter, err = parseCount(v)
		case "dropafter":
			c.DropAfter, err = parseCount(v)
		case "reseteveryn":
			c.ResetEveryN, err = parseCount(v)
		case "dropeveryn":
			c.DropEveryN, err = parseCount(v)
		case "dropfor":
			c.DropFor, err = parseCount(v)
		case "plane":
			if v != "all" && v != "data" {
				return c, fmt.Errorf("faultnet: bad plane=%q (want all or data)", v)
			}
			if v == "data" {
				c.Plane = v
			}
		case "log":
			c.LogPath = v
		default:
			return c, fmt.Errorf("faultnet: unknown key %q (want seed, delayp, delaymax, partialp, dialfailn, resetafter, dropafter, reseteveryn, dropeveryn, dropfor, plane, log)", k)
		}
		if err != nil {
			return c, fmt.Errorf("faultnet: bad %s=%q: %v", k, v, err)
		}
	}
	if c.DelayProb > 0 && c.DelayMax <= 0 {
		c.DelayMax = time.Millisecond
	}
	if c.DropEveryN > 0 && c.DropFor <= 0 {
		c.DropFor = 2
	}
	if c.DropFor > 0 && c.DropEveryN == 0 {
		return c, errors.New("faultnet: dropfor needs dropeveryn")
	}
	return c, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, errors.New("probability outside [0,1]")
	}
	return p, nil
}

func parseCount(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, errors.New("negative count")
	}
	return n, nil
}

// injector is the per-process fault state for one parsed spec.
type injector struct {
	cfg Config

	// globalOps counts reads+writes across every faulted connection of the
	// process; reseteveryn trips the conn whose op crosses a multiple of N.
	globalOps atomic.Uint64

	mu        sync.Mutex
	connSeq   uint64
	dialFails map[string]int // dials failed so far, per destination address
	logW      *os.File
}

// The active injector is cached per spec string so tests can flip the
// environment between runs (sync.Once would pin the first value forever).
var (
	curMu   sync.Mutex
	curSpec string
	curInj  *injector
	curSet  bool
	warned  bool
)

// Injected-fault metrics, one counter per mode. They feed the same event
// stream as the transports' recovery metrics (net.resumes, net.retransmits),
// so an aggregated snapshot pairs each cause with its observed cure.
var (
	mFaultReset   = telemetry.NewCounter("fault.reset")
	mFaultDrop    = telemetry.NewCounter("fault.drop")
	mFaultDelay   = telemetry.NewCounter("fault.delay")
	mFaultPartial = telemetry.NewCounter("fault.partial")
	mFaultDial    = telemetry.NewCounter("fault.dial")
)

func current() *injector {
	spec := os.Getenv(EnvVar)
	curMu.Lock()
	defer curMu.Unlock()
	if curSet && spec == curSpec {
		return curInj
	}
	cfg, err := Parse(spec)
	if err != nil {
		// A malformed spec set directly in the environment (fompi-run
		// validates its -faults flag before it gets here): warn once and
		// run fault-free rather than silently injecting who-knows-what.
		if !warned {
			fmt.Fprintf(os.Stderr, "faultnet: ignoring malformed %s: %v\n", EnvVar, err)
			warned = true
		}
		cfg = Config{}
	}
	var inj *injector
	if cfg.Enabled() {
		inj = &injector{cfg: cfg, dialFails: make(map[string]int)}
		if cfg.LogPath != "" {
			if f, ferr := os.OpenFile(cfg.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); ferr == nil {
				inj.logW = f
			}
		}
	}
	curSpec, curInj, curSet = spec, inj, true
	return inj
}

// Enabled reports whether this process has fault injection configured.
func Enabled() bool { return current() != nil }

// Check validates the spec currently in the environment; launch paths call
// it so a malformed spec fails the run instead of degrading to a warning.
func Check() error {
	_, err := Parse(os.Getenv(EnvVar))
	return err
}

func (inj *injector) logf(format string, args ...any) {
	if inj.logW == nil {
		return
	}
	// O_APPEND keeps concurrent small writes from different worker
	// processes whole; a torn chaos log is diagnostic-only anyway.
	fmt.Fprintf(inj.logW, "faultnet[pid %d]: "+format+"\n", append([]any{os.Getpid()}, args...)...)
}

// errInjected marks faults manufactured by this package. It is no deadline
// error (os.ErrDeadlineExceeded), so callers treating timeouts specially see
// a plain fatal error.
type errInjected struct{ msg string }

func (e *errInjected) Error() string { return "faultnet: injected " + e.msg }

// Logf appends one line to the active chaos log (the spec's log= file); it
// is a no-op when injection or logging is off. The transports use it to
// record recovery actions — reconnects, session resumes, replayed replies —
// interleaved with the injected faults that caused them, so one artifact
// tells the whole fault/recovery story.
func Logf(format string, args ...any) {
	if inj := current(); inj != nil {
		inj.logf(format, args...)
	}
}

// Dial dials like sock.Dial, injecting dial failures and wrapping the
// resulting connection when fault injection is enabled. Connections made
// through Dial are control-plane: plane=data spares them the conn-killing
// modes.
func Dial(network, addr string, timeout time.Duration) (sock.Conn, error) {
	return dialPlane(network, addr, timeout, "")
}

// DialData is Dial for data-plane connections — the requester→owner op
// streams that netrun's session layer can transparently resume. Under
// plane=data, only these (and WrapListenerData accepts) suffer resets and
// blackholes.
func DialData(network, addr string, timeout time.Duration) (sock.Conn, error) {
	return dialPlane(network, addr, timeout, "data")
}

func dialPlane(network, addr string, timeout time.Duration, plane string) (sock.Conn, error) {
	inj := current()
	if inj == nil {
		return sock.Dial(network, addr, timeout)
	}
	inj.mu.Lock()
	nth := inj.dialFails[addr]
	fail := nth < inj.cfg.DialFailN
	if fail {
		inj.dialFails[addr] = nth + 1
	}
	inj.mu.Unlock()
	if fail {
		mFaultDial.Inc()
		telemetry.RecordEvent(telemetry.EvFaultDial, uint64(nth+1), 0)
		inj.logf("dial %s refused (%d/%d)", addr, nth+1, inj.cfg.DialFailN)
		return nil, &errInjected{msg: "dial failure to " + addr}
	}
	c, err := sock.Dial(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return inj.wrap(c, "dial->"+addr, plane), nil
}

// WrapListener wraps ln so accepted connections carry fault injection; it
// returns ln unchanged when injection is disabled. Accepted connections are
// control-plane.
func WrapListener(ln sock.Listener) sock.Listener {
	return wrapListenerPlane(ln, "")
}

// WrapListenerData is WrapListener for data-plane listeners (netrun's per-
// rank op listener): its accepts are eligible for plane=data conn killing.
func WrapListenerData(ln sock.Listener) sock.Listener {
	return wrapListenerPlane(ln, "data")
}

func wrapListenerPlane(ln sock.Listener, plane string) sock.Listener {
	if current() == nil {
		return ln
	}
	return &listener{Listener: ln, plane: plane}
}

type listener struct {
	sock.Listener
	plane string
}

func (l *listener) Accept() (sock.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	// Re-resolve per accept: the active spec can change between test runs
	// in one process, and a listener outlives any one spec.
	inj := current()
	if inj == nil {
		return c, nil
	}
	return inj.wrap(c, "accept@"+l.Addr(), l.plane), nil
}

func (inj *injector) wrap(c sock.Conn, label, plane string) sock.Conn {
	inj.mu.Lock()
	id := inj.connSeq
	inj.connSeq++
	inj.mu.Unlock()
	return &conn{
		Conn:  c,
		inj:   inj,
		id:    id,
		label: label,
		plane: plane,
		rng:   rand.New(rand.NewPCG(uint64(inj.cfg.Seed), id)),
	}
}

// conn injects faults around one sock.Conn. Decision state (PRNG, op
// counters) is guarded by mu; the underlying I/O runs outside the lock so a
// parked Read never blocks a concurrent Write's fault sampling.
type conn struct {
	sock.Conn
	inj   *injector
	id    uint64
	label string
	plane string // "" (control) or "data"; plane=data kills only data conns

	mu      sync.Mutex
	rng     *rand.Rand
	ops     int  // reads+writes completed, for resetafter/dropafter
	dropWin int  // writes left in the current dropeveryn blackhole window
	reset   bool // injected reset tripped: all further I/O fails
	dropped bool // blackhole tripped: writes pretend to succeed
}

// step advances the op counter and samples this op's faults.
func (c *conn) step(isWrite bool) (delay time.Duration, split int, drop, reset bool) {
	cfg := &c.inj.cfg
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reset {
		return 0, 0, false, true
	}
	c.ops++
	// The conn-killing modes honor plane=data scoping; the byte-level
	// faults below (delays, partial writes) stay on for every connection.
	if cfg.Plane != "data" || c.plane == "data" {
		if cfg.ResetAfter > 0 && c.ops > cfg.ResetAfter {
			c.reset = true
			return 0, 0, false, true
		}
		if cfg.ResetEveryN > 0 &&
			c.inj.globalOps.Add(1)%uint64(cfg.ResetEveryN) == 0 {
			c.reset = true
			return 0, 0, false, true
		}
		if cfg.DropAfter > 0 && c.ops > cfg.DropAfter {
			c.dropped = true
		}
		if cfg.DropEveryN > 0 && c.ops%cfg.DropEveryN == 0 {
			c.dropWin = cfg.DropFor
		}
	}
	if c.dropped {
		return 0, 0, true, false
	}
	if isWrite && c.dropWin > 0 {
		c.dropWin--
		return 0, 0, true, false
	}
	if isWrite {
		if cfg.DelayProb > 0 && c.rng.Float64() < cfg.DelayProb {
			delay = time.Duration(c.rng.Int64N(int64(cfg.DelayMax))) + 1
		}
		if cfg.PartialProb > 0 && c.rng.Float64() < cfg.PartialProb {
			split = 1 // caller splits at len/2; flag only
		}
	}
	return delay, split, false, false
}

func (c *conn) tripReset() error {
	c.mu.Lock()
	ops := c.ops
	c.mu.Unlock()
	mFaultReset.Inc()
	telemetry.RecordEvent(telemetry.EvFaultReset, uint64(c.id), uint64(ops))
	c.inj.logf("conn %d (%s) reset at op %d", c.id, c.label, ops)
	c.Conn.Close()
	return &errInjected{msg: "connection reset"}
}

// SyscallConn forwards to the wrapped socket, so sock.LocalAddr sees
// through the wrapper.
func (c *conn) SyscallConn() (syscall.RawConn, error) {
	if s, ok := c.Conn.(syscall.Conn); ok {
		return s.SyscallConn()
	}
	return nil, errors.ErrUnsupported
}

func (c *conn) Read(p []byte) (int, error) {
	_, _, drop, reset := c.step(false)
	if reset {
		return 0, c.tripReset()
	}
	// A blackholed conn still reads normally: "drop" models lost outbound
	// bytes, so starvation arrives naturally when the peer never replies.
	_ = drop
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	delay, split, drop, reset := c.step(true)
	if reset {
		return 0, c.tripReset()
	}
	if drop {
		mFaultDrop.Inc()
		telemetry.RecordEvent(telemetry.EvFaultDrop, uint64(c.id), uint64(len(p)))
		c.inj.logf("conn %d (%s) dropped %d-byte write", c.id, c.label, len(p))
		return len(p), nil // swallowed: peer starves, deadlines must save us
	}
	if delay > 0 {
		mFaultDelay.Inc()
		telemetry.RecordEvent(telemetry.EvFaultDelay, uint64(c.id), uint64(delay))
		c.inj.logf("conn %d (%s) delayed write %v", c.id, c.label, delay)
		time.Sleep(delay)
	}
	if split != 0 && len(p) > 1 {
		mFaultPartial.Inc()
		telemetry.RecordEvent(telemetry.EvFaultPartial, uint64(c.id), uint64(len(p)))
		c.inj.logf("conn %d (%s) partial write %d+%d", c.id, c.label, len(p)/2, len(p)-len(p)/2)
		n, err := c.Conn.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		time.Sleep(50 * time.Microsecond)
		m, err := c.Conn.Write(p[len(p)/2:])
		return n + m, err
	}
	return c.Conn.Write(p)
}
