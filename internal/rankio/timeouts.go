package rankio

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// EnvTimeouts overrides the failure-model timing knobs (see Timeouts); worker
// processes inherit it, so one setting governs a whole world.
const EnvTimeouts = "FOMPI_NET_TIMEOUTS"

// Timeouts are the failure-model timing knobs (DESIGN.md "Control plane" and
// §11), configurable per world so chaos tests and latency-sensitive
// deployments need not wait out the conservative defaults. The environment
// spec (EnvTimeouts, `fompi-run -net-timeouts`) is a comma-separated
// key=value list of Go durations:
//
//	heartbeat=500ms   coordinator PING cadence after GO
//	stale=3s          missing-PONG budget before a rank is declared dead
//	optimeout=2s      per-request data-plane budget on the wire backends
//	                  (also the whole reconnect-and-resume budget of one op)
//	ctlidle=6s        worker-side idle-control-stream cutoff (a vanished
//	                  coordinator)
//
// Absent keys keep the defaults (2s / 10s / 15s / 30s). Malformed or
// inconsistent specs fail the launch, like a bad -faults spec.
type Timeouts struct {
	HeartbeatEvery time.Duration // heartbeat=
	HeartbeatStale time.Duration // stale=
	OpTimeout      time.Duration // optimeout=
	CtlIdleTimeout time.Duration // ctlidle=
}

// defaultTimeouts: the coordinator PINGs every 2 s once the world is running
// and declares a rank whose PONG is older than 10 s dead; the worker mirrors
// the check — a control stream idle for 30 s means the coordinator (or its
// host) vanished without a FIN; a wire peer that neither answers a request
// nor resets within 15 s is treated as dead.
var defaultTimeouts = Timeouts{2 * time.Second, 10 * time.Second, 15 * time.Second, 30 * time.Second}

// ParseTimeouts parses an EnvTimeouts spec over the defaults and validates
// the result; an empty spec is the defaults.
func ParseTimeouts(spec string) (Timeouts, error) {
	t := defaultTimeouts
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return t, fmt.Errorf("rankio: timeout spec %q is not key=value", kv)
		}
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return t, fmt.Errorf("rankio: bad timeout %s=%q (want a positive duration)", k, v)
		}
		switch k {
		case "heartbeat":
			t.HeartbeatEvery = d
		case "stale":
			t.HeartbeatStale = d
		case "optimeout":
			t.OpTimeout = d
		case "ctlidle":
			t.CtlIdleTimeout = d
		default:
			return t, fmt.Errorf("rankio: unknown timeout key %q (want heartbeat, stale, optimeout, ctlidle)", k)
		}
	}
	if t.HeartbeatStale <= t.HeartbeatEvery {
		return t, fmt.Errorf("rankio: stale budget %v must exceed the heartbeat cadence %v", t.HeartbeatStale, t.HeartbeatEvery)
	}
	if t.CtlIdleTimeout <= t.HeartbeatEvery {
		return t, fmt.Errorf("rankio: ctl idle cutoff %v must exceed the heartbeat cadence %v (PINGs are what keep the stream busy)", t.CtlIdleTimeout, t.HeartbeatEvery)
	}
	return t, nil
}

// ResolveTimeouts reads EnvTimeouts. The coordinator and every rank resolve
// the same way from an environment the ranks inherit, so a world agrees.
func ResolveTimeouts() (Timeouts, error) { return ParseTimeouts(os.Getenv(EnvTimeouts)) }
