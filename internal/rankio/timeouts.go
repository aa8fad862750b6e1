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
//
// Absent keys keep the defaults (2s / 10s). Every other silence budget
// follows from these two (SilenceBudget). Malformed or inconsistent specs
// fail the launch, like a bad -faults spec.
type Timeouts struct {
	HeartbeatEvery time.Duration // heartbeat=
	HeartbeatStale time.Duration // stale=
}

// defaultTimeouts: the coordinator PINGs every 2 s once the world is running
// and declares a rank whose PONG is older than 10 s dead.
var defaultTimeouts = Timeouts{2 * time.Second, 10 * time.Second}

// SilenceBudget is how long a rank waits out silence before it gives up: a
// wire request's whole budget, reconnects and retransmissions included, and
// a worker's idle cutoff on its control stream. The coordinator declares a
// silent rank dead at most stale + one heartbeat after it fell silent, so a
// budget one heartbeat longer lets the verdict reach every survivor first:
// only the coordinator judges a rank dead, and a rank that still runs out
// has met a failure the control plane cannot see.
func (t Timeouts) SilenceBudget() time.Duration { return t.HeartbeatStale + 2*t.HeartbeatEvery }

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
		default:
			return t, fmt.Errorf("rankio: unknown timeout key %q (want heartbeat or stale; the wire budget and the idle cutoff are stale + 2×heartbeat)", k)
		}
	}
	if t.HeartbeatStale <= t.HeartbeatEvery {
		return t, fmt.Errorf("rankio: stale budget %v must exceed the heartbeat cadence %v", t.HeartbeatStale, t.HeartbeatEvery)
	}
	return t, nil
}

// ResolveTimeouts reads EnvTimeouts. The coordinator and every rank resolve
// the same way from an environment the ranks inherit, so a world agrees.
func ResolveTimeouts() (Timeouts, error) { return ParseTimeouts(os.Getenv(EnvTimeouts)) }
